/**
 * @file
 * Fleet scenario driver: evaluate a declarative N-node fleet spec —
 * every node runs a single-node experiment with a correlated-but-
 * jittered power trace and a mix-assigned workload — and report the
 * Pareto frontier over fleet objectives (forward-progress
 * percentiles, fleet-total/worst-line NVM wear, deadline misses).
 *
 * Examples:
 *   # Local evaluation with a warm result cache:
 *   wlcache_fleet --spec fleet.json --jobs 8 \
 *                 --cache-dir ~/.wlcache-cache \
 *                 --csv points.csv --report fleet.md
 *
 *   # CI warm-cache check:
 *   wlcache_fleet --spec fleet.json --cache-dir cache --require-warm
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "fleet/fleet.hh"
#include "fleet/fleet_spec.hh"
#include "fleet/report.hh"
#include "sim/logging.hh"
#include "util/arg_parser.hh"
#include "util/strings.hh"

using namespace wlcache;

namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot read fleet spec '%s'", path.c_str());
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
writeFileOrDie(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        fatal("cannot write '%s'", path.c_str());
    out << content;
}

} // namespace

int
main(int argc, char **argv)
{
    util::ArgParser args(
        "wlcache_fleet",
        "N-node intermittent-computing fleet scenarios over the "
        "content-addressed runner");
    args.option("spec", "", "fleet-spec JSON file (required)")
        .option("jobs", "0",
                "worker threads; 0 = WLCACHE_JOBS env or all cores")
        .option("cache-dir", "",
                "result-cache directory (empty = no cache)")
        .option("csv", "", "write every point as CSV here")
        .option("report", "", "write the Markdown fleet report here")
        .flag("progress", "per-job progress lines on stderr")
        .flag("require-warm",
              "fail unless every run was served from the result "
              "cache (CI determinism check)")
        .flag("list-objectives", "list fleet objectives and exit");
    if (!args.parse(argc, argv))
        return 1;

    if (args.getFlag("list-objectives")) {
        for (const auto &d : fleet::allFleetObjectives())
            std::cout << util::padRight(d.name, 22) << d.help
                      << "\n";
        return 0;
    }

    std::string spec_path = args.get("spec");
    if (spec_path.empty() && args.positional().size() == 1)
        spec_path = args.positional()[0];
    if (spec_path.empty())
        fatal("need a fleet spec: --spec <file.json>");

    const std::string spec_text = readFile(spec_path);

    fleet::FleetConfig cfg;
    std::string err;
    if (!fleet::parseFleetSpec(spec_text, cfg.spec, &err))
        fatal("%s: %s", spec_path.c_str(), err.c_str());

    cfg.jobs = static_cast<unsigned>(args.getInt("jobs"));
    cfg.cache_dir = args.get("cache-dir");
    cfg.progress = args.getFlag("progress");

    fleet::FleetReport report;
    if (!fleet::runFleet(cfg, report, &err))
        fatal("%s: %s", spec_path.c_str(), err.c_str());

    fleet::writeFleetSummaryText(std::cout, report);

    if (!args.get("csv").empty()) {
        std::ostringstream ss;
        fleet::writeFleetCsv(ss, report);
        writeFileOrDie(args.get("csv"), ss.str());
    }
    if (!args.get("report").empty()) {
        std::ostringstream ss;
        fleet::writeFleetMarkdown(ss, report);
        writeFileOrDie(args.get("report"), ss.str());
    }

    if (args.getFlag("require-warm") && report.executed != 0) {
        std::cout << "FAILED: --require-warm but " << report.executed
                  << " run(s) executed instead of hitting the "
                     "result cache\n";
        return 3;
    }
    return 0;
}
