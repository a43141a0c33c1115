/**
 * @file
 * Example: explore how each cache design behaves for one workload in
 * one energy environment. Prints execution time, outage counts,
 * energy breakdown, and cache behaviour side by side — the fastest
 * way to understand the trade-off space the paper's Table 1 sketches
 * — then the Pareto frontier over (time, NVM writes, hardware area).
 *
 * A thin wrapper over the explore subsystem: the design comparison is
 * one sweep with a single "design" axis over every design table row,
 * run through runExploration on all cores (or WLCACHE_JOBS).
 * For sweeps over more dimensions, use tools/wlcache_explore with a
 * JSON spec instead.
 *
 * Usage: design_explorer [workload] [trace1|trace2|trace3|solar|
 *                        thermal|none] [scale]
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "explore/explorer.hh"
#include "nvp/system_config.hh"
#include "util/strings.hh"
#include "util/table.hh"
#include "workloads/workloads.hh"

using namespace wlcache;

int
main(int argc, char **argv)
{
    const std::string workload = argc > 1 ? argv[1] : "sha";
    const std::string env_name = argc > 2 ? argv[2] : "trace1";
    const unsigned scale =
        argc > 3 ? static_cast<unsigned>(std::atoi(argv[3])) : 1;

    explore::SweepSpec sweep;
    sweep.name = "design-explorer";
    sweep.base = { { "workload", explore::strValue(workload) },
                   { "power", explore::strValue(env_name) },
                   { "scale", explore::numValue(scale) } };
    explore::Axis designs{ "design", {} };
    for (const auto &row : nvp::designTable())
        designs.values.push_back(explore::strValue(row.cli_name));
    sweep.axes = { designs };
    sweep.objectives = { "time", "nvm_writes", "hw_area" };

    explore::ExploreConfig cfg;
    cfg.sweep = sweep;

    explore::ExploreReport report;
    std::string err;
    if (!explore::runExploration(cfg, report, &err)) {
        std::cerr << "design_explorer: " << err << '\n';
        return 1;
    }

    const auto &trace = workloads::getTrace(workload, scale);
    std::cout << "workload " << workload << ": "
              << trace.events.size() << " memory events, "
              << trace.totalInstructions() << " instructions, "
              << util::fmtDouble(100.0 * trace.storeFraction(), 1)
              << "% stores, image "
              << util::fmtBytes(trace.initial_image.size()) << "\n\n";

    util::TextTable table;
    table.header({ "design", "time", "on-cycles", "outages",
                   "energy", "nvm-wr", "ld-hit%", "st-stall",
                   "final-ok" });
    for (const auto &o : report.outcomes) {
        const auto &r = o.nodes.front().result;
        table.row({
            nvp::designKindName(o.point.spec.design),
            util::fmtSeconds(r.total_seconds),
            std::to_string(r.on_cycles),
            std::to_string(r.outages),
            util::fmtEnergy(r.meter.total()),
            std::to_string(r.nvm_writes),
            util::fmtDouble(100.0 * r.dcache_load_hit_rate, 1),
            std::to_string(r.store_stall_cycles),
            r.completed ? (r.final_state_correct ? "yes" : "NO!")
                        : "dnf",
        });
    }
    table.print(std::cout);

    std::cout << "\nPareto frontier (min time, NVM writes, area):\n";
    for (const std::size_t i : report.frontier)
        std::cout << "  "
                  << nvp::designKindName(
                         report.outcomes[i].point.spec.design)
                  << '\n';
    return 0;
}
