/**
 * @file
 * Design-space exploration driver: expand a declarative JSON sweep
 * spec into concrete experiments, evaluate them through the parallel
 * runner (content-addressed caching makes explorations resumable),
 * and report the Pareto frontier over the chosen objectives.
 *
 * Examples:
 *   # Exhaustive 2-axis sweep, frontier on time vs NVM writes:
 *   wlcache_explore --spec sweep.json --jobs 8 \
 *                   --cache-dir ~/.wlcache-cache \
 *                   --csv points.csv --report frontier.md
 *
 *   # Same spec, three objectives:
 *   wlcache_explore --spec sweep.json \
 *                   --objective time --objective nvm_writes \
 *                   --objective hw_area
 *
 *   # CI warm-cache check: fail unless everything is served from
 *   # the result cache:
 *   wlcache_explore --spec sweep.json --cache-dir cache \
 *                   --require-warm
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "explore/explorer.hh"
#include "explore/objectives.hh"
#include "explore/report.hh"
#include "sim/logging.hh"
#include "util/arg_parser.hh"
#include "util/strings.hh"
#include "util/table.hh"

using namespace wlcache;

namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot read sweep spec '%s'", path.c_str());
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
        "wlcache_explore",
        "declarative design-space exploration: evaluate every "
        "point of a sweep and extract the Pareto frontier");
    args.option("spec", "", "sweep-spec JSON file (required)")
        .listOption("objective",
                    "objective name(s); overrides the spec's list "
                    "(see --list-objectives)")
        .option("jobs", "0",
                "worker threads; 0 = WLCACHE_JOBS env or all cores")
        .option("cache-dir", "",
                "result-cache directory (empty = no cache)")
        .option("csv", "", "write all evaluated points as CSV here")
        .option("report", "",
                "write the Markdown frontier report here")
        .flag("progress", "per-job progress lines on stderr")
        .flag("require-warm",
              "fail unless every run was served from the result "
              "cache (CI determinism check)")
        .flag("list-params", "list sweepable parameters and exit")
        .flag("list-objectives", "list objectives and exit");
    if (!args.parse(argc, argv))
        return 1;

    if (args.getFlag("list-params")) {
        for (const auto &[name, help] : explore::listParams())
            std::cout << util::padRight(name, 26) << help << "\n";
        return 0;
    }
    if (args.getFlag("list-objectives")) {
        for (const auto &d : explore::allObjectives())
            std::cout << util::padRight(d.name, 14) << d.help
                      << "\n";
        return 0;
    }

    std::string spec_path = args.get("spec");
    if (spec_path.empty() && args.positional().size() == 1)
        spec_path = args.positional()[0];
    if (spec_path.empty())
        fatal("need a sweep spec: --spec <file.json>");

    const std::string spec_text = readFile(spec_path);

    explore::ExploreConfig cfg;
    std::string err;
    if (!explore::parseSweepSpec(spec_text, cfg.sweep, &err))
        fatal("%s: %s", spec_path.c_str(), err.c_str());

    cfg.objectives = args.getList("objective");
    for (const auto &name : cfg.objectives)
        if (!explore::findObjective(name))
            fatal("unknown objective '%s' (valid: %s)", name.c_str(),
                  explore::objectiveNameList().c_str());
    cfg.jobs = static_cast<unsigned>(args.getInt("jobs"));
    cfg.cache_dir = args.get("cache-dir");
    cfg.progress = args.getFlag("progress");

    explore::ExploreReport report;
    if (!explore::runExploration(cfg, report, &err))
        fatal("%s: %s", spec_path.c_str(), err.c_str());

    // Frontier summary on stdout.
    explore::writeSummaryText(std::cout, report);

    if (!args.get("csv").empty()) {
        std::ostringstream ss;
        explore::writeCsv(ss, report);
        writeFileOrDie(args.get("csv"), ss.str());
    }
    if (!args.get("report").empty()) {
        std::ostringstream ss;
        explore::writeFrontierMarkdown(ss, report, cfg.cache_dir);
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
