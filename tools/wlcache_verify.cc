/**
 * @file
 * Fault-injection campaign driver: systematically force power
 * failures at chosen cycle points of a (design x workload) run and
 * diff the post-recovery persistent state against a golden
 * uninterrupted execution (src/verify/).
 *
 * Examples:
 *   # Stride-sample the whole run, 1000 points apart:
 *   wlcache_verify --design wl --workload sha --stride 1000
 *
 *   # Exhaustive window around a suspect region, then bisect:
 *   wlcache_verify --design wl --workload sha \
 *                  --window 40000:42000:10 --bisect
 *
 *   # Oracle self-test: a dropped JIT checkpoint must be detected
 *   # (exit status fails unless a divergence is found):
 *   wlcache_verify --design wl --workload sha --stride 500 \
 *                  --inject checkpoint-skip --expect divergent
 *
 * Campaigns fan out over the parallel runner; point --cache-dir at a
 * directory to make re-runs (and bisection probes) nearly free.
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "util/arg_parser.hh"
#include "util/strings.hh"
#include "verify/campaign.hh"
#include "workloads/workloads.hh"

using namespace wlcache;

namespace {

std::vector<std::uint64_t>
parsePoints(const std::string &arg)
{
    std::vector<std::uint64_t> out;
    for (const auto &tok : util::split(arg, ','))
        if (!tok.empty())
            out.push_back(std::stoull(tok));
    return out;
}

/** Parse "begin:end[:step]". */
bool
parseWindow(const std::string &arg, verify::CampaignConfig &cfg)
{
    const auto parts = util::split(arg, ':');
    if (parts.size() < 2 || parts.size() > 3)
        return false;
    cfg.has_window = true;
    cfg.window_begin = std::stoull(parts[0]);
    cfg.window_end = std::stoull(parts[1]);
    cfg.window_step = parts.size() == 3 ? std::stoull(parts[2]) : 1;
    return cfg.window_end > cfg.window_begin && cfg.window_step > 0;
}

std::vector<std::string>
expandList(const std::string &arg)
{
    std::vector<std::string> out;
    for (const auto &item : util::split(arg, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    util::ArgParser args(
        "wlcache_verify",
        "forced-outage fault-injection campaigns with a golden-model "
        "differential oracle");
    args.option("design", "wl",
                "comma list: " + nvp::designKindCliNameList())
        .option("workload", "sha", "comma list of benchmark kernels")
        .option("trace", "none",
                energy::powerCliNameList() +
                    " (none/infinite: the forced point is the only "
                    "outage; a trace adds ambient outages)")
        .option("points", "", "explicit outage cycles, comma list")
        .option("stride", "0",
                "stride-sample the run every N cycles")
        .option("window", "",
                "exhaustive window begin:end[:step] in cycles")
        .flag("bisect",
              "bisect below the first divergent point for the "
              "minimal failing cycle")
        .option("inject", "",
                "oracle self-test faults: comma list of "
                "checkpoint-skip,register-skip")
        .option("expect", "clean",
                "exit status checks campaigns are clean|divergent")
        .option("scale", "1", "workload input scale factor")
        .option("seed", "42", "workload input seed")
        .option("power-seed", "7", "power trace seed")
        .option("jobs", "0",
                "worker threads; 0 = WLCACHE_JOBS env or all cores")
        .option("cache-dir", "",
                "result-cache directory (empty = no cache)")
        .option("snapshot-interval", "0",
                "record a golden-run snapshot every N cycles and "
                "fast-forward each point run from the nearest "
                "preceding snapshot (0 disables; requires --trace "
                "none)")
        .option("snapshot-dir", "",
                "snapshot-store directory persisting the golden "
                "ladder across campaigns (empty = in-memory only)")
        .option("timeline-window", "64",
                "timeline events to attach around the first "
                "divergence (0 disables the extra traced re-run)")
        .option("step-mode", "skip_ahead",
                "run-loop energy integration: skip_ahead|percycle "
                "(reports are byte-identical either way; percycle is "
                "the slow reference loop, DESIGN.md sec. 15)")
        .option("json", "", "write the campaign report JSON here")
        .flag("progress", "per-job progress lines on stderr");
    if (!args.parse(argc, argv))
        return args.helpRequested() ? 0 : 1;

    energy::TraceKind kind = energy::TraceKind::Constant;
    bool no_failure = true;
    if (!energy::powerFromCliName(args.get("trace"), kind, no_failure))
        fatal("unknown trace '%s' (valid: %s)",
              args.get("trace").c_str(),
              energy::powerCliNameList().c_str());
    const bool ambient = !no_failure;

    bool inject_ckpt = false, inject_regs = false;
    for (const auto &f : expandList(util::toLower(args.get("inject")))) {
        if (f == "checkpoint-skip")
            inject_ckpt = true;
        else if (f == "register-skip")
            inject_regs = true;
        else
            fatal("unknown fault '%s' (checkpoint-skip, "
                  "register-skip)", f.c_str());
    }

    const std::string expect = util::toLower(args.get("expect"));
    if (expect != "clean" && expect != "divergent")
        fatal("--expect must be clean or divergent");

    StepMode step_mode;
    if (!nvp::stepModeFromName(util::toLower(args.get("step-mode")),
                               step_mode))
        fatal("unknown --step-mode '%s' (percycle|skip_ahead)",
              args.get("step-mode").c_str());

    const auto designs = expandList(args.get("design"));
    const auto apps = expandList(args.get("workload"));
    if (designs.empty() || apps.empty())
        fatal("need at least one design and one workload");

    std::vector<std::string> report_jsons;
    bool all_ok = true;
    const bool want_divergent = expect == "divergent";

    for (const auto &design_name : designs) {
        nvp::DesignKind design;
        if (!nvp::designKindFromCliName(design_name, design))
            fatal("unknown design '%s' (valid: %s)",
                  design_name.c_str(),
                  nvp::designKindCliNameList().c_str());
        for (const auto &app : apps) {
            if (!workloads::findWorkload(app))
                fatal("unknown workload '%s'", app.c_str());

            verify::CampaignConfig cc;
            cc.base.design = design;
            cc.base.workload = app;
            cc.base.power = kind;
            cc.base.no_failure = !ambient;
            cc.base.scale =
                static_cast<unsigned>(args.getInt("scale"));
            cc.base.workload_seed =
                static_cast<std::uint64_t>(args.getInt("seed"));
            cc.base.power_seed =
                static_cast<std::uint64_t>(args.getInt("power-seed"));
            cc.base.tweak = [step_mode](nvp::SystemConfig &cfg) {
                cfg.step_mode = step_mode;
            };
            cc.ambient = ambient;
            cc.points = parsePoints(args.get("points"));
            cc.stride =
                static_cast<std::uint64_t>(args.getInt("stride"));
            if (!args.get("window").empty() &&
                !parseWindow(args.get("window"), cc))
                fatal("bad --window '%s' (begin:end[:step])",
                      args.get("window").c_str());
            cc.bisect = args.getFlag("bisect");
            cc.inject_checkpoint_skip = inject_ckpt;
            cc.inject_register_skip = inject_regs;
            cc.jobs = static_cast<unsigned>(args.getInt("jobs"));
            cc.cache_dir = args.get("cache-dir");
            cc.snapshot_interval = static_cast<std::uint64_t>(
                args.getInt("snapshot-interval"));
            cc.snapshot_dir = args.get("snapshot-dir");
            cc.timeline_window = static_cast<std::size_t>(
                args.getInt("timeline-window"));
            cc.progress = args.getFlag("progress");

            const verify::CampaignReport rep =
                verify::runCampaign(cc);

            verify::writeCampaignSummary(std::cout, rep);
            std::ostringstream rj;
            writeCampaignReportJson(rj, rep);
            report_jsons.push_back(rj.str());
            if (!rep.golden_clean) {
                all_ok = false;
                continue;
            }

            if (want_divergent != (rep.num_divergent > 0))
                all_ok = false;
        }
    }

    if (!args.get("json").empty()) {
        std::ofstream out(args.get("json"));
        if (!out)
            fatal("cannot write '%s'", args.get("json").c_str());
        out << "{\n  \"campaigns\": [\n";
        for (std::size_t i = 0; i < report_jsons.size(); ++i) {
            out << report_jsons[i];
            if (i + 1 < report_jsons.size())
                out << ",\n";
        }
        out << "  ]\n}\n";
        std::cout << "campaign report written to "
                  << args.get("json") << "\n";
    }

    if (!all_ok)
        std::cout << "FAILED: expectation '" << expect
                  << "' not met by every campaign\n";
    return all_ok ? 0 : 2;
}
