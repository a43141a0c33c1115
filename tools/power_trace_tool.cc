/**
 * @file
 * Power-trace utility: synthesize any of the paper's five ambient
 * environments to a file, inspect a trace's statistics, or estimate
 * how a platform with a given capacitor and load would fare in it
 * (outage-rate back-of-envelope without running a workload).
 *
 * Examples:
 *   power_trace_tool gen --kind trace1 --out tr1.txt
 *   power_trace_tool info tr1.txt
 *   power_trace_tool estimate tr1.txt --load 25e-3 --capacitor 1e-6
 */

#include <fstream>
#include <iostream>
#include <string>

#include "energy/capacitor.hh"
#include "energy/harvester.hh"
#include "energy/power_trace.hh"
#include "sim/logging.hh"
#include "util/arg_parser.hh"
#include "util/strings.hh"

using namespace wlcache;
using namespace wlcache::energy;

namespace {

int
cmdInfo(const PowerTrace &trace)
{
    std::cout << "samples:          " << trace.numSamples() << " x "
              << util::fmtSeconds(trace.samplePeriod()) << " = "
              << util::fmtSeconds(trace.duration()) << "\n";
    std::cout << "mean power:       "
              << util::fmtDouble(trace.meanPower() * 1e3, 3)
              << " mW\n";
    std::cout << "variation coeff.: "
              << util::fmtDouble(trace.variationCoefficient(), 3)
              << "\n";
    double peak = 0.0, trough = 1e9;
    for (const double w : trace.samples()) {
        peak = std::max(peak, w);
        trough = std::min(trough, w);
    }
    std::cout << "min/max power:    "
              << util::fmtDouble(trough * 1e3, 3) << " / "
              << util::fmtDouble(peak * 1e3, 3) << " mW\n";
    return 0;
}

int
cmdEstimate(const PowerTrace &trace, double load_w, double cap_f,
            double efficiency)
{
    Capacitor cap(cap_f, 2.8, 3.5);
    Harvester h(trace, efficiency);
    const double horizon = trace.duration();
    unsigned outages = 0;
    double on_s = 0.0, off_s = 0.0;

    // Charge to Von, run the constant load until Vbackup-ish (use
    // 2.9 V), repeat across one full pass of the trace.
    off_s += h.chargeUntil(cap, 3.3, horizon);
    while (h.now() < horizon) {
        const double step = 10e-6;
        h.advance(step, cap);
        cap.drawEnergy(load_w * step);
        on_s += step;
        if (cap.storedEnergy() <= cap.energyBetween(0.0, 2.9)) {
            ++outages;
            off_s += h.chargeUntil(cap, 3.3, horizon);
        }
    }
    std::cout << "constant load:    "
              << util::fmtDouble(load_w * 1e3, 2) << " mW\n";
    std::cout << "outages/second:   "
              << util::fmtDouble(outages / horizon, 1) << "\n";
    std::cout << "duty cycle:       "
              << util::fmtDouble(100.0 * on_s / (on_s + off_s), 1)
              << "% powered\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    util::ArgParser args("power_trace_tool",
                         "generate/inspect ambient power traces");
    args.option("kind", "trace1",
                "trace1|trace2|trace3|solar|thermal|constant")
        .option("seed", "7", "generator seed")
        .option("duration", "2.0", "trace length, seconds")
        .option("constant-mw", "5.0", "level for --kind constant, mW")
        .option("out", "", "output file for 'gen'")
        .option("load", "25e-3", "constant load for 'estimate', W")
        .option("capacitor", "1e-6", "capacitance for 'estimate', F")
        .option("efficiency", "0.7", "harvester efficiency")
        .option("node", "0", "fleet node id for --jitter derivation")
        .option("jitter", "0",
                "derive a node-local trace with this gain spread");
    if (!args.parse(argc, argv))
        return args.helpRequested() ? 0 : 1;
    if (args.positional().empty()) {
        std::cerr << "usage: power_trace_tool gen|info|estimate "
                     "[file] [options]\n"
                  << args.usage();
        return 1;
    }
    const std::string cmd = args.positional()[0];

    auto load_or_gen = [&]() -> PowerTrace {
        PowerTrace base;
        if (args.positional().size() > 1) {
            std::ifstream in(args.positional()[1]);
            if (!in)
                fatal("cannot open '%s'",
                      args.positional()[1].c_str());
            base = PowerTrace::load(in);
        } else {
            TraceKind kind;
            if (!traceKindFromName(args.get("kind"), kind))
                fatal("unknown kind '%s' (valid: %s)",
                      args.get("kind").c_str(),
                      traceKindNameList().c_str());
            TraceGenConfig cfg;
            cfg.seed =
                static_cast<std::uint64_t>(args.getInt("seed"));
            cfg.duration_s = args.getDouble("duration");
            base = makeTrace(kind, cfg,
                             args.getDouble("constant-mw") * 1e-3);
        }
        // Optional per-node derivation (fleet scenarios): jitter 0
        // passes the base trace through untouched.
        return deriveNodeTrace(
            base, static_cast<std::uint64_t>(args.getInt("node")),
            args.getDouble("jitter"));
    };

    if (cmd == "gen") {
        const PowerTrace t = load_or_gen();
        const std::string out = args.get("out");
        if (out.empty()) {
            t.save(std::cout);
        } else {
            std::ofstream os(out);
            if (!os)
                fatal("cannot write '%s'", out.c_str());
            t.save(os);
            std::cout << "wrote " << t.numSamples() << " samples to "
                      << out << "\n";
        }
        return 0;
    }
    if (cmd == "info")
        return cmdInfo(load_or_gen());
    if (cmd == "estimate")
        return cmdEstimate(load_or_gen(), args.getDouble("load"),
                           args.getDouble("capacitor"),
                           args.getDouble("efficiency"));
    std::cerr << "unknown command '" << cmd << "'\n" << args.usage();
    return 1;
}
