/**
 * @file
 * The paper's evaluation as one program. Every table and figure is
 * one row of kFigures: its make() returns the experiments it needs
 * plus a render callback that prints it from their results. main()
 * forms the union of the selected rows' experiments by spec key, runs
 * it as one runner batch — the NVSRAM(ideal) baseline, default
 * WL-Cache and friends recur across figures but execute once — and
 * hands each row its results in its own submission order.
 *
 * Usage: bench_paper [--only table1,fig5,...]
 * Rows print in table order. Environment:
 *
 *   WLCACHE_JOBS             worker threads (default: all cores)
 *   WLCACHE_BENCH_CACHE_DIR  content-addressed result cache directory
 *   WLCACHE_BENCH_PROGRESS   set non-empty for progress lines (stderr)
 *   WLCACHE_BENCH_MANIFEST   write the batch manifest JSON here
 *   WLCACHE_BENCH_CSV        CSV path prefix for the per-app figures
 *   WLCACHE_BENCH_SCALE      workload scale factor (default 1)
 */

#include <algorithm>
#include <array>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/bench_common.hh"
#include "cache/nvsram_cache.hh"
#include "cache/nvsram_practical_cache.hh"
#include "cache/replay_cache.hh"
#include "cache/vcache_wt.hh"
#include "core/wl_cache.hh"
#include "energy/energy_meter.hh"
#include "hwcost/cacti_lite.hh"
#include "nvp/system_config.hh"
#include "runner/runner.hh"
#include "runner/spec_key.hh"
#include "sim/logging.hh"
#include "util/arg_parser.hh"
#include "util/stat_math.hh"
#include "util/strings.hh"
#include "util/table.hh"
#include "workloads/workloads.hh"

using namespace wlcache;
using namespace wlcache::bench;

namespace {

using Results = std::vector<nvp::RunResult>;
using Tweak = std::function<void(nvp::SystemConfig &)>;

/** A table or figure: what to run and how to print it. */
struct Figure
{
    std::vector<nvp::ExperimentSpec> specs;
    /** Prints the figure from the results of @c specs, in order. */
    std::function<void(const Results &)> render;
};

/** One spec per app, paper order, on top of @p base. */
std::vector<nvp::ExperimentSpec>
perApp(const nvp::ExperimentSpec &base)
{
    std::vector<nvp::ExperimentSpec> specs;
    for (const auto &app : appNames()) {
        nvp::ExperimentSpec s = base;
        s.workload = app;
        specs.push_back(std::move(s));
    }
    return specs;
}

/**
 * Append, per app, an NVSRAM(ideal) baseline and then @p variant,
 * both on the variant's power and seeds. gmeanVsNvsram() reads them.
 */
void
addVsNvsram(std::vector<nvp::ExperimentSpec> &specs,
            const nvp::ExperimentSpec &variant)
{
    for (auto &s : perApp(variant)) {
        nvp::ExperimentSpec nvsram = s;
        nvsram.design = nvp::DesignKind::NvsramWB;
        nvsram.tweak = nullptr;
        specs.push_back(std::move(nvsram));
        specs.push_back(std::move(s));
    }
}

/**
 * Geometric-mean speedup vs NVSRAM(ideal) over one addVsNvsram()
 * block of @p r starting at @p i, which moves past the block.
 * @param mean_outages Optional; receives the variant's mean outages.
 */
double
gmeanVsNvsram(const Results &r, std::size_t &i,
              double *mean_outages = nullptr)
{
    std::vector<double> speedups;
    double outages = 0.0;
    const std::size_t n = appNames().size();
    for (std::size_t a = 0; a < n; ++a, i += 2) {
        speedups.push_back(nvp::speedupVs(r[i + 1], r[i]));
        outages += static_cast<double>(r[i + 1].outages);
    }
    if (mean_outages)
        *mean_outages = outages / n;
    return util::geoMean(speedups);
}

/** Power conditions of Figures 8a and 8b. */
struct Condition
{
    const char *name;
    energy::TraceKind power;
    bool no_failure;
};

constexpr Condition kConditions[] = {
    { "no failure", energy::TraceKind::Constant, true },
    { "trace 1", energy::TraceKind::RfHome, false },
    { "trace 2", energy::TraceKind::RfOffice, false },
};

// --- Table 1 --------------------------------------------------------

/** Bucket a checkpoint-energy bound into the paper's qualitative
 *  Energy-Buffer-Requirement column. */
const char *
energyBufferClass(double joules)
{
    if (joules <= 1.0e-12)
        return "No";
    if (joules < 0.1e-6)
        return "Small";
    if (joules < 0.5e-6)
        return "Medium";
    return "Large";
}

const char *
perfClass(double speedup_vs_nvc)
{
    if (speedup_vs_nvc < 1.4)
        return "Low";
    if (speedup_vs_nvc < 2.4)
        return "Medium";
    return "High";
}

/**
 * Table 1: hardware complexity and performance comparison of the
 * cache schemes. The qualitative columns are derived from the model
 * parameters (checkpoint-energy bounds, technology presets) plus a
 * quick measured speedup vs NVCache-WB (the slow baseline) on a
 * representative app under Trace 1, rather than hard-coded strings.
 */
Figure
table1()
{
    nvp::ExperimentSpec nvc;
    nvc.workload = "gsmdecode";
    nvc.power = energy::TraceKind::RfHome;
    nvc.design = nvp::DesignKind::NVCacheWB;

    Figure f;
    f.specs = { nvc };
    for (const auto d : {
             nvp::DesignKind::VCacheWT,
             nvp::DesignKind::NVCacheWB,
             nvp::DesignKind::NvsramFull,
             nvp::DesignKind::NvsramWB,
             nvp::DesignKind::NvsramPractical,
             nvp::DesignKind::Replay,
             nvp::DesignKind::WL,
         }) {
        nvp::ExperimentSpec s = nvc;
        s.design = d;
        f.specs.push_back(std::move(s));
    }

    f.render = [](const Results &results) {
        std::cout << "=== Table 1: hardware complexity and performance "
                     "comparison ===\n";

        energy::EnergyMeter meter;
        mem::NvmParams np;
        mem::NvmMemory nvm(np, &meter);
        const cache::CacheParams sram = cache::sramCacheParams();

        cache::VCacheWT wt(sram, nvm, &meter);
        cache::NvsramCacheWB nvsram(sram, cache::NvsramParams{}, nvm,
                                    &meter);
        cache::ReplayCacheModel replay(sram, cache::ReplayParams{},
                                       nvm, &meter);
        core::WLCache wl(sram, core::WlParams{}, nvm, &meter);

        std::vector<double> sp;
        for (std::size_t i = 1; i < results.size(); ++i)
            sp.push_back(nvp::speedupVs(results[i], results[0]));

        util::TextTable t;
        t.header({ "scheme", "HW cost", "EnergyBuf", "NV cache req.",
                   "ckpt bound", "perf." });
        t.row({ "VCache-WT", "None",
                energyBufferClass(wt.checkpointEnergyBound()), "No",
                util::fmtEnergy(wt.checkpointEnergyBound()),
                perfClass(sp[0]) });
        t.row({ "NVCache-WB", "Low", "No", "Yes (full array)",
                "0.000J", perfClass(sp[1]) });
        cache::NvsramParams full_p;
        full_p.backup_full = true;
        cache::NvsramCacheWB nvsram_full(sram, full_p, nvm, &meter);
        cache::NvsramPracticalCache nvsram_prac(
            sram, cache::nvCacheParams(),
            cache::NvsramPracticalParams{}, nvm, &meter);
        t.row({ "NVSRAM(full)", "High",
                energyBufferClass(nvsram_full.checkpointEnergyBound()),
                "Yes (same-size)",
                util::fmtEnergy(nvsram_full.checkpointEnergyBound()),
                perfClass(sp[2]) });
        t.row({ "NVSRAM(ideal)", "High+",
                energyBufferClass(nvsram.checkpointEnergyBound()),
                "Yes (same-size)",
                util::fmtEnergy(nvsram.checkpointEnergyBound()),
                perfClass(sp[3]) });
        t.row({ "NVSRAM(practical)", "Medium",
                energyBufferClass(nvsram_prac.checkpointEnergyBound()),
                "Yes (half ways)",
                util::fmtEnergy(nvsram_prac.checkpointEnergyBound()),
                perfClass(sp[4]) });
        t.row({ "ReplayCache", "None",
                energyBufferClass(replay.checkpointEnergyBound()), "No",
                util::fmtEnergy(replay.checkpointEnergyBound()),
                perfClass(sp[5]) });
        t.row({ "WL-Cache", "Low",
                energyBufferClass(wl.checkpointEnergyBound()), "No",
                util::fmtEnergy(wl.checkpointEnergyBound()),
                perfClass(sp[6]) });
        t.print(std::cout);
        std::cout << "\n(ckpt bound: worst-case JIT checkpoint energy "
                     "the platform must reserve.)\n";
    };
    return f;
}

// --- Table 2 and §6.2 -----------------------------------------------

/**
 * Table 2: the active simulation configuration, for every design
 * preset, so a reader can compare the reproduction's parameters
 * against the paper's.
 */
Figure
table2()
{
    Figure f;
    f.render = [](const Results &) {
        using nvp::DesignKind;
        using nvp::SystemConfig;
        std::cout << "=== Table 2: simulation configuration ===\n";

        const SystemConfig wl = SystemConfig::forDesign(DesignKind::WL);
        std::cout << "Processor: 1.0 GHz, 1 core, in-order\n";
        std::cout << "L1 I/D cache: "
                  << util::fmtBytes(wl.dcache.size_bytes) << ", "
                  << wl.dcache.assoc << "-way, "
                  << wl.dcache.line_bytes << "B lines\n";
        std::cout << "Cache latencies (SRAM hit/write): "
                  << wl.dcache.hit_latency << "/"
                  << wl.dcache.write_hit_latency << " cycles; NV cache: "
                  << cache::nvCacheParams().hit_latency << "/"
                  << cache::nvCacheParams().write_hit_latency
                  << " cycles\n";
        std::cout << "NVM (ReRAM-class): tRCD/tCL/tBURST/tWR = "
                  << wl.nvm.t_rcd << "/" << wl.nvm.t_cl << "/"
                  << wl.nvm.t_burst << "/" << wl.nvm.t_wr << " ns, "
                  << wl.nvm.banks << " banks\n";
        std::cout << "Energy buffer: "
                  << util::fmtDouble(wl.platform.capacitance_f * 1e6, 2)
                  << " uF (default)\n";
        std::cout << "DirtyQueue: " << wl.wl.dq_size
                  << " slots, maxline " << wl.wl.maxline
                  << ", waterline " << wl.wl.waterline() << ", DQ-"
                  << cache::replPolicyName(wl.wl.dq_repl) << "\n\n";

        util::TextTable t;
        t.header({ "design", "Vbackup", "Von", "Vmin", "Vmax" });
        for (const auto d :
             { DesignKind::NVCacheWB, DesignKind::NvsramWB,
               DesignKind::VCacheWT, DesignKind::Replay }) {
            const auto cfg = SystemConfig::forDesign(d);
            t.row({ nvp::designKindName(d),
                    util::fmtDouble(cfg.platform.vbackup, 2),
                    util::fmtDouble(cfg.platform.von, 2),
                    util::fmtDouble(cfg.platform.vmin, 2),
                    util::fmtDouble(cfg.platform.vmax, 2) });
        }
        {
            const auto &p = wl.platform;
            const auto vb = [&](unsigned ml) {
                return p.wl_vbackup_base +
                    p.wl_vbackup_step * (ml - p.wl_threshold_anchor);
            };
            const auto von = [&](unsigned ml) {
                return std::min(p.vmax,
                                p.wl_von_base +
                                    p.wl_von_step *
                                        (ml - p.wl_threshold_anchor));
            };
            t.row({ "WL-Cache (maxline 2..6)",
                    util::fmtDouble(vb(2), 2) + "~" +
                        util::fmtDouble(vb(6), 2),
                    util::fmtDouble(von(2), 2) + "~" +
                        util::fmtDouble(von(6), 2),
                    util::fmtDouble(p.vmin, 2),
                    util::fmtDouble(p.vmax, 2) });
        }
        t.print(std::cout);
        std::cout << "\n(Paper Table 2: NV 2.9/3.3, NVSRAM 3.1/3.5, "
                     "WL 2.95~3.1/3.3~3.5, Vmin/max 2.8/3.5.)\n";
    };
    return f;
}

/**
 * §6.2 hardware cost with CACTI-lite at 90 nm: the DirtyQueue (plus
 * threshold registers and watchdog) must cost at most 0.005 mm^2 of
 * area and 0.0008 nJ per access, with ~0.1 mW leakage — roughly 9%
 * of an NV cache's leakage.
 */
Figure
hardwareCost()
{
    Figure f;
    f.render = [](const Results &) {
        using hwcost::StructureCost;
        hwcost::CactiLite model;
        std::cout << "=== Section 6.2: hardware cost (CACTI-lite, "
                     "90 nm) ===\n";

        const auto dq = model.dirtyQueue(8);
        const auto dq16 = model.dirtyQueue(16);
        const auto sram = model.cacheArray(8192, 64, 2);
        // ReRAM cells barely leak; NV cache leakage is mostly
        // periphery.
        const auto nv = model.cacheArray(8192, 64, 2, 0.2);
        const auto wb_buf = model.ramArray(16, 64 * 8 + 32, true);

        util::TextTable t;
        t.header({ "structure", "area(mm^2)", "access(nJ)",
                   "leakage(mW)" });
        auto row = [&](const char *name, const StructureCost &c) {
            t.row({ name, util::fmtDouble(c.area_mm2, 5),
                    util::fmtDouble(c.dynamic_access_nj, 5),
                    util::fmtDouble(c.leakage_mw, 3) });
        };
        row("DirtyQueue(8) + thresholds + watchdog", dq);
        row("DirtyQueue(16) + thresholds + watchdog", dq16);
        row("8KB SRAM cache (reference)", sram);
        row("8KB NV cache (periphery leakage)", nv);
        row("16-entry CAM write-back buffer (§3.3 alt.)", wb_buf);
        t.print(std::cout);

        std::cout << "\nDirtyQueue leakage / NV-cache leakage: "
                  << util::fmtDouble(
                         100.0 * dq.leakage_mw / nv.leakage_mw, 1)
                  << "% (paper: ~9%)\n";
        std::cout << "Paper budget check: area <= 0.005 mm^2: "
                  << (dq.area_mm2 <= 0.005 ? "PASS" : "FAIL")
                  << ", access <= 0.0008 nJ: "
                  << (dq.dynamic_access_nj <= 0.0008 ? "PASS" : "FAIL")
                  << ", leakage ~0.1 mW: "
                  << (dq.leakage_mw < 0.16 ? "PASS" : "FAIL") << "\n";
        std::cout << "\nThe CAM-backed write-back buffer (the paper's "
                     "§3.3 alternative design)\ncosts "
                  << util::fmtDouble(wb_buf.area_mm2 / dq.area_mm2, 1)
                  << "x the DirtyQueue area and "
                  << util::fmtDouble(wb_buf.dynamic_access_nj /
                                         dq.dynamic_access_nj,
                                     1)
                  << "x its access energy.\n";
    };
    return f;
}

// --- Figures 4-7 ----------------------------------------------------

/**
 * Figures 4/5/6: every cache design over all 23 applications in one
 * energy environment, normalized to NVSRAM(ideal), printed as the
 * per-app speedup series of the paper's bar charts.
 * @param no_failure Infinite power (Figure 4); @p power is ignored.
 */
Figure
speedupFigure(std::string title, std::string slug,
              energy::TraceKind power, bool no_failure)
{
    static constexpr nvp::DesignKind kDesigns[] = {
        nvp::DesignKind::NVCacheWB,
        nvp::DesignKind::VCacheWT,
        nvp::DesignKind::Replay,
        nvp::DesignKind::WL,
    };

    Figure f;
    for (const auto &app : appNames()) {
        nvp::ExperimentSpec base;
        base.design = nvp::DesignKind::NvsramWB;
        base.workload = app;
        base.power = power;
        base.no_failure = no_failure;
        f.specs.push_back(base);

        for (const auto d : kDesigns) {
            nvp::ExperimentSpec s = base;
            s.design = d;
            f.specs.push_back(s);
        }
    }

    f.render = [title, slug](const Results &results) {
        SpeedupTable table(title);
        table.seriesOrder({ "NVCache-WB", "VCache-WT", "ReplayCache",
                            "WL-Cache" });
        std::size_t i = 0;
        for (const auto &app : appNames()) {
            const auto &baseline = results[i++];
            for (const auto d : kDesigns) {
                table.set(nvp::designKindName(d), app,
                          nvp::speedupVs(results[i++], baseline));
            }
        }
        table.print();
        table.maybeWriteCsv(slug);
    };
    return f;
}

/**
 * Figure 7: normalized NVM write-traffic increase of WL-Cache
 * compared to NVSRAM(ideal) under Power Trace 1. WL-Cache trades a
 * small amount of extra write traffic (waterline cleanings that later
 * get re-dirtied, plus JIT checkpoints to main NVM) for its much
 * smaller energy reservation.
 */
Figure
fig7()
{
    nvp::ExperimentSpec wl;
    wl.power = energy::TraceKind::RfHome;
    wl.design = nvp::DesignKind::WL;

    Figure f;
    addVsNvsram(f.specs, wl);
    f.render = [](const Results &results) {
        SpeedupTable table(
            "Figure 7: normalized NVM write traffic increase vs "
            "NVSRAM(ideal), Power Trace 1");
        table.seriesOrder({ "WL/NVSRAM-writes", "WL/NVSRAM-bytes" });

        std::size_t i = 0;
        for (const auto &app : appNames()) {
            const auto &rb = results[i++];
            const auto &rw = results[i++];

            const double writes = rb.nvm_writes
                ? static_cast<double>(rw.nvm_writes) /
                    static_cast<double>(rb.nvm_writes)
                : 0.0;
            const double bytes = rb.nvm_bytes_written
                ? static_cast<double>(rw.nvm_bytes_written) /
                    static_cast<double>(rb.nvm_bytes_written)
                : 0.0;
            table.set("WL/NVSRAM-writes", app, writes);
            table.set("WL/NVSRAM-bytes", app, bytes);
        }
        table.print();
        table.maybeWriteCsv("fig7");
    };
    return f;
}

// --- Figures 8a and 8b ----------------------------------------------

/**
 * Figure 8(a): WL-Cache speedup with DirtyQueue-FIFO vs
 * DirtyQueue-LRU replacement, normalized to NVSRAM(ideal), for no
 * power failure and Power Traces 1 and 2. The paper finds DQ-FIFO
 * slightly ahead under failures because DQ-LRU pays per-store search
 * energy.
 */
Figure
fig8a()
{
    static constexpr cache::ReplPolicy kPolicies[] = {
        cache::ReplPolicy::FIFO, cache::ReplPolicy::LRU
    };

    Figure f;
    for (const auto &c : kConditions) {
        for (const auto dq_repl : kPolicies) {
            nvp::ExperimentSpec wl;
            wl.power = c.power;
            wl.no_failure = c.no_failure;
            wl.design = nvp::DesignKind::WL;
            wl.tweak = [dq_repl](nvp::SystemConfig &cfg) {
                cfg.wl.dq_repl = dq_repl;
            };
            addVsNvsram(f.specs, wl);
        }
    }

    f.render = [](const Results &results) {
        std::cout << "=== Figure 8a: WL-Cache DirtyQueue replacement "
                     "(gmean speedup vs NVSRAM ideal) ===\n";
        util::TextTable t;
        t.header({ "condition", "DQ-FIFO", "DQ-LRU" });
        std::size_t i = 0;
        for (const auto &c : kConditions) {
            std::vector<double> row;
            for (std::size_t p = 0; p < std::size(kPolicies); ++p)
                row.push_back(gmeanVsNvsram(results, i));
            t.rowDoubles(c.name, row);
        }
        t.print(std::cout);
    };
    return f;
}

/**
 * Figure 8(b): WL-Cache speedup with direct-mapped, 2-way, and 4-way
 * set-associative caches, normalized to the default NVSRAM(ideal),
 * for no failure and Power Traces 1 and 2. The paper picks 2-way as
 * the sweet spot (4-way pays extra access power).
 */
Figure
fig8b()
{
    static constexpr unsigned kAssocs[] = { 1, 2, 4 };

    Figure f;
    for (const auto &c : kConditions) {
        for (const unsigned assoc : kAssocs) {
            nvp::ExperimentSpec wl;
            wl.power = c.power;
            wl.no_failure = c.no_failure;
            wl.design = nvp::DesignKind::WL;
            wl.tweak = [assoc](nvp::SystemConfig &cfg) {
                cfg.dcache.assoc = assoc;
                cfg.icache.assoc = assoc;
                // Higher associativity compares more tags per access;
                // the data-array share of the access energy is fixed.
                const double scale = 0.85 + 0.075 * assoc;
                cfg.dcache.access_energy_read *= scale;
                cfg.dcache.access_energy_write *= scale;
                cfg.icache.access_energy_read *= scale;
            };
            addVsNvsram(f.specs, wl);
        }
    }

    f.render = [](const Results &results) {
        std::cout << "=== Figure 8b: WL-Cache set associativity "
                     "(gmean speedup vs NVSRAM ideal) ===\n";
        util::TextTable t;
        t.header({ "condition", "D-Map", "2-Way", "4-Way" });
        std::size_t i = 0;
        for (const auto &c : kConditions) {
            std::vector<double> row;
            for (std::size_t a = 0; a < std::size(kAssocs); ++a)
                row.push_back(gmeanVsNvsram(results, i));
            t.rowDoubles(c.name, row);
        }
        t.print(std::cout);
    };
    return f;
}

// --- Figures 9, 10a and 10b: declarative sweeps ---------------------

/**
 * Figure 9: per-application sensitivity of WL-Cache to the maxline
 * threshold (2/4/6/8) under both FIFO and LRU *cache* replacement,
 * normalized to NVSRAM(ideal), Power Trace 1. Static thresholds
 * (adaptive management off), DQ-FIFO, as in the paper's sweep. Two
 * declarative axis expansions: the baseline over workloads, the WL
 * grid over (workload x replacement x maxline).
 */
Figure
fig9()
{
    const std::vector<std::string> policies = { "FIFO", "LRU" };
    const std::vector<double> maxlines = { 2, 4, 6, 8 };

    explore::SweepSpec baseline;
    baseline.name = "fig9-baseline";
    baseline.base = { { "power", explore::strValue("trace1") },
                      { "design", explore::strValue("nvsram") } };
    explore::Axis app_axis{ "workload", {} };
    for (const auto &app : appNames())
        app_axis.values.push_back(explore::strValue(app));
    baseline.axes = { app_axis };

    explore::SweepSpec wl;
    wl.name = "fig9-wl-grid";
    wl.base = { { "power", explore::strValue("trace1") },
                { "design", explore::strValue("wl") },
                { "adaptive.enabled", explore::boolValue(false) } };
    explore::Axis pol_axis{ "dcache.repl", {} };
    for (const auto &pol : policies)
        pol_axis.values.push_back(explore::strValue(pol));
    explore::Axis ml_axis{ "wl.maxline", {} };
    for (const double ml : maxlines)
        ml_axis.values.push_back(explore::numValue(ml));
    wl.axes = { app_axis, pol_axis, ml_axis };

    Figure f;
    f.specs = sweepSpecs(baseline);
    for (auto &s : sweepSpecs(wl))
        f.specs.push_back(std::move(s));

    f.render = [policies, maxlines](const Results &results) {
        SpeedupTable table(
            "Figure 9: WL-Cache maxline sweep x cache replacement "
            "(speedup vs NVSRAM ideal), Power Trace 1");
        const auto apps = appNames();

        std::vector<std::string> series;
        for (const auto &pol : policies)
            for (const double ml : maxlines)
                series.push_back(pol + "@" +
                                 explore::numValue(ml).display());
        table.seriesOrder(series);

        // The baselines come first, one per app; then the WL grid in
        // expansion order: app-major, then policy, then maxline.
        std::size_t i = apps.size();
        for (std::size_t a = 0; a < apps.size(); ++a) {
            for (const auto &pol : policies) {
                for (const double ml : maxlines) {
                    const std::string name =
                        pol + "@" + explore::numValue(ml).display();
                    table.set(name, apps[a],
                              nvp::speedupVs(results[i++],
                                             results[a]));
                }
            }
        }
        table.print();
        table.maybeWriteCsv("fig9");
    };
    return f;
}

/**
 * Figure 10(a): speedup of each design relative to NVSRAM(ideal) *of
 * the same cache size*, sweeping the L1 D/I size from 128 B to 4 KB
 * under Power Trace 1. The paper's observation: the WL-vs-NVSRAM gap
 * narrows as the cache shrinks (less state to back up) and widens as
 * it grows. One declarative sweep; the I-cache size rides the D-cache
 * axis as a derived constraint.
 */
Figure
fig10a()
{
    const std::vector<double> sizes = { 128, 256, 512, 1024, 2048,
                                        4096 };
    // NVSRAM first: each design's baseline shares its cache size.
    const std::vector<std::string> designs = { "nvsram", "wt",
                                               "replay", "wl" };

    explore::SweepSpec sweep;
    sweep.name = "fig10a-cache-size";
    sweep.base = { { "power", explore::strValue("trace1") } };
    explore::Axis size_axis{ "dcache.size_bytes", {} };
    for (const double bytes : sizes)
        size_axis.values.push_back(explore::numValue(bytes));
    explore::Axis design_axis{ "design", {} };
    for (const auto &d : designs)
        design_axis.values.push_back(explore::strValue(d));
    explore::Axis app_axis{ "workload", {} };
    for (const auto &app : appNames())
        app_axis.values.push_back(explore::strValue(app));
    sweep.axes = { size_axis, design_axis, app_axis };
    sweep.derived = { { "icache.size_bytes", "dcache.size_bytes",
                        1.0, 0.0 } };

    Figure f;
    f.specs = sweepSpecs(sweep);
    f.render = [sizes, designs](const Results &results) {
        std::cout << "=== Figure 10a: cache size sweep "
                     "(gmean speedup vs same-size NVSRAM ideal), "
                     "Power Trace 1 ===\n";
        const std::size_t n_apps = appNames().size();

        // Expansion order: size-major, then design, then app.
        const auto at = [&](std::size_t s, std::size_t d,
                            std::size_t a) -> const nvp::RunResult & {
            return results[(s * designs.size() + d) * n_apps + a];
        };

        util::TextTable t;
        t.header({ "size", "VCache-WT", "ReplayCache", "WL-Cache" });
        for (std::size_t s = 0; s < sizes.size(); ++s) {
            std::vector<double> row;
            for (std::size_t d = 1; d < designs.size(); ++d) {
                std::vector<double> speedups;
                for (std::size_t a = 0; a < n_apps; ++a)
                    speedups.push_back(
                        nvp::speedupVs(at(s, d, a), at(s, 0, a)));
                row.push_back(util::geoMean(speedups));
            }
            t.rowDoubles(explore::numValue(sizes[s]).display() + "B",
                         row);
        }
        t.print(std::cout);
    };
    return f;
}

/**
 * Figure 10(b): absolute execution time of each design as the
 * capacitor grows from 100 nF to 1 mF, under Power Trace 1. All
 * schemes perform best around 1 uF; larger capacitors pay ever longer
 * (re)charging times, and for the smallest capacitor the fixed
 * checkpoint reservations squeeze the usable energy. The whole grid
 * is one declarative sweep: capacitance x design x app.
 */
Figure
fig10b()
{
    const std::vector<double> sizes = { 100e-9, 344e-9, 1e-6, 10e-6,
                                        100e-6, 500e-6, 1e-3 };
    const std::vector<std::string> labels = { "100nF", "344nF", "1uF",
                                              "10uF",  "100uF",
                                              "500uF", "1mF" };
    const std::vector<std::string> designs = { "wt", "replay",
                                               "nvsram", "wl" };

    explore::SweepSpec sweep;
    sweep.name = "fig10b-capacitor";
    // Undersized capacitors thrash through six-digit outage counts;
    // bound the sweep's cost and extrapolate from progress below.
    sweep.base = { { "power", explore::strValue("trace1") },
                   { "max_outages", explore::numValue(30'000) } };
    explore::Axis cap_axis{ "platform.capacitance_f", {} };
    for (const double farads : sizes)
        cap_axis.values.push_back(explore::numValue(farads));
    explore::Axis design_axis{ "design", {} };
    for (const auto &d : designs)
        design_axis.values.push_back(explore::strValue(d));
    explore::Axis app_axis{ "workload", {} };
    for (const auto &app : appNames())
        app_axis.values.push_back(explore::strValue(app));
    sweep.axes = { cap_axis, design_axis, app_axis };

    Figure f;
    f.specs = sweepSpecs(sweep);
    f.render = [labels, designs](const Results &results) {
        std::cout << "=== Figure 10b: capacitor size sweep "
                     "(gmean execution time), Power Trace 1 ===\n";
        const auto apps = appNames();

        // Expansion order: capacitance-major, then design, then app.
        const auto timeAt = [&](std::size_t c, std::size_t d,
                                std::size_t a) {
            const auto &r =
                results[(c * designs.size() + d) * apps.size() + a];
            double t = r.total_seconds;
            if (!r.completed) {
                const auto &trace =
                    workloads::getTrace(apps[a], benchScale());
                const double progress =
                    static_cast<double>(r.instructions) /
                    static_cast<double>(trace.totalInstructions());
                t = progress > 1e-6 ? t / progress : 1.0e6;
            }
            return t;
        };

        util::TextTable t;
        t.header({ "capacitor", "VCache-WT", "ReplayCache", "NVSRAM-WB",
                   "WL-Cache" });
        for (std::size_t c = 0; c < labels.size(); ++c) {
            std::vector<std::string> row{ labels[c] };
            for (std::size_t d = 0; d < designs.size(); ++d) {
                std::vector<double> times;
                for (std::size_t a = 0; a < apps.size(); ++a)
                    times.push_back(timeAt(c, d, a));
                row.push_back(util::fmtSeconds(util::geoMean(times)));
            }
            t.row(row);
        }
        t.print(std::cout);
    };
    return f;
}

// --- Figures 11 and 12 ----------------------------------------------

/**
 * Figures 11/12: WL-Cache with adaptive maxline management vs the
 * best per-application static maxline, for both FIFO and LRU cache
 * replacement, normalized to NVSRAM(ideal), in one environment.
 */
Figure
adaptiveFigure(std::string title, std::string slug,
               energy::TraceKind power)
{
    static constexpr cache::ReplPolicy kPolicies[] = {
        cache::ReplPolicy::LRU, cache::ReplPolicy::FIFO
    };
    static constexpr unsigned kMaxlines[] = { 2u, 4u, 6u, 8u };

    const auto wlSpec = [power](const std::string &app,
                                cache::ReplPolicy cache_repl,
                                bool adaptive, unsigned maxline) {
        nvp::ExperimentSpec s;
        s.workload = app;
        s.power = power;
        s.design = nvp::DesignKind::WL;
        s.tweak = [cache_repl, adaptive,
                   maxline](nvp::SystemConfig &cfg) {
            cfg.dcache.repl = cache_repl;
            cfg.adaptive.enabled = adaptive;
            cfg.wl.maxline = maxline;
        };
        return s;
    };

    // Per app: baseline, the static maxline sweep, and the adaptive
    // run for every policy.
    Figure f;
    for (const auto &app : appNames()) {
        nvp::ExperimentSpec nvsram;
        nvsram.workload = app;
        nvsram.power = power;
        nvsram.design = nvp::DesignKind::NvsramWB;
        f.specs.push_back(nvsram);

        for (const auto pol : kPolicies) {
            for (const unsigned ml : kMaxlines)
                f.specs.push_back(wlSpec(app, pol, false, ml));
            f.specs.push_back(wlSpec(app, pol, true, 6));
        }
    }

    f.render = [title, slug](const Results &results) {
        SpeedupTable table(title);
        table.seriesOrder({ "LRU(Best)", "LRU(Adap)", "FIFO(Best)",
                            "FIFO(Adap)" });
        std::size_t i = 0;
        for (const auto &app : appNames()) {
            const auto &rb = results[i++];

            for (const auto pol : kPolicies) {
                // Static-best: the best-performing fixed maxline for
                // this application (paper §6.6 picks it from the
                // Fig. 9 sweep).
                double best = 0.0;
                for (std::size_t m = 0; m < std::size(kMaxlines); ++m)
                    best = std::max(best,
                                    nvp::speedupVs(results[i++], rb));
                // Adaptive, starting from the default maxline 6.
                const auto &ra = results[i++];

                const std::string prefix =
                    pol == cache::ReplPolicy::LRU ? "LRU" : "FIFO";
                table.set(prefix + "(Best)", app, best);
                table.set(prefix + "(Adap)", app,
                          nvp::speedupVs(ra, rb));
            }
        }
        table.print();
        table.maybeWriteCsv(slug);
    };
    return f;
}

// --- Figures 13a and 13b --------------------------------------------

/**
 * Figure 13(a): design comparison across all five energy environments
 * (RF traces 1-3, solar, thermal), including the dynamically adapting
 * WL-Cache(dyn) variant, plus the per-trace outage counts the paper
 * quotes (33/45/121/12/9 for their traces).
 */
Figure
fig13a()
{
    struct Env
    {
        const char *name;
        energy::TraceKind kind;
    };
    static constexpr Env kEnvs[] = {
        { "tr.1(RF)", energy::TraceKind::RfHome },
        { "tr.2(RF)", energy::TraceKind::RfOffice },
        { "tr.3(RF)", energy::TraceKind::RfMementos },
        { "solar", energy::TraceKind::Solar },
        { "thermal", energy::TraceKind::Thermal },
    };

    // Per environment: WT, Replay, WL, then WL(dyn).
    Figure f;
    for (const auto &e : kEnvs) {
        for (const auto d : { nvp::DesignKind::VCacheWT,
                              nvp::DesignKind::Replay,
                              nvp::DesignKind::WL }) {
            nvp::ExperimentSpec s;
            s.power = e.kind;
            s.design = d;
            addVsNvsram(f.specs, s);
        }
        nvp::ExperimentSpec dyn;
        dyn.power = e.kind;
        dyn.design = nvp::DesignKind::WL;
        dyn.tweak = [](nvp::SystemConfig &cfg) {
            cfg.wl_dynamic = true;
        };
        addVsNvsram(f.specs, dyn);
    }

    f.render = [](const Results &results) {
        std::cout << "=== Figure 13a: speedup vs NVSRAM(ideal) across "
                     "power traces ===\n";
        util::TextTable t;
        t.header({ "trace", "VCache-WT", "ReplayCache", "WL-Cache",
                   "WL-Cache(dyn)", "WL-outages" });
        std::size_t i = 0;
        for (const auto &e : kEnvs) {
            const double wt = gmeanVsNvsram(results, i);
            const double rp = gmeanVsNvsram(results, i);
            double wl_outages = 0.0;
            const double wl = gmeanVsNvsram(results, i, &wl_outages);
            const double dyn = gmeanVsNvsram(results, i);
            t.rowDoubles(e.name, { wt, rp, wl, dyn, wl_outages });
        }
        t.print(std::cout);
        std::cout << "\n(WL-outages: mean power failures per "
                     "application for WL-Cache; the paper's traces "
                     "show 33/45/121/12/9.)\n";
    };
    return f;
}

/**
 * Figure 13(b): energy-consumption breakdown (cache read/write,
 * memory read/write, compute, plus checkpoint/restore and leakage)
 * of NVCache-WB, VCache-WT, NVSRAM-WB, and WL-Cache, normalized to
 * NVSRAM(ideal)'s total, under Power Trace 1.
 */
Figure
fig13b()
{
    using energy::EnergyCategory;
    constexpr std::size_t kCategories =
        energy::EnergyMeter::kNumCategories;
    static constexpr nvp::DesignKind kDesigns[] = {
        nvp::DesignKind::NVCacheWB,
        nvp::DesignKind::VCacheWT,
        nvp::DesignKind::NvsramWB,
        nvp::DesignKind::WL,
    };

    // The NVSRAM(ideal) baseline block, then one block per design.
    Figure f;
    for (const auto d : { nvp::DesignKind::NvsramWB, kDesigns[0],
                          kDesigns[1], kDesigns[2], kDesigns[3] }) {
        nvp::ExperimentSpec s;
        s.power = energy::TraceKind::RfHome;
        s.design = d;
        for (auto &spec : perApp(s))
            f.specs.push_back(std::move(spec));
    }

    f.render = [](const Results &results) {
        std::cout << "=== Figure 13b: energy breakdown normalized to "
                     "NVSRAM(ideal) total [%], Power Trace 1 ===\n";

        // Mean per-category energy across all apps of the next block,
        // joules.
        std::size_t i = 0;
        const auto meanBreakdown = [&] {
            const std::size_t n = appNames().size();
            std::array<double, kCategories> sums{};
            for (std::size_t a = 0; a < n; ++a, ++i)
                for (std::size_t c = 0; c < kCategories; ++c)
                    sums[c] += results[i].meter.get(
                        static_cast<EnergyCategory>(c));
            for (auto &v : sums)
                v /= n;
            return sums;
        };

        const auto baseline = meanBreakdown();
        double base_total = 0.0;
        for (const double v : baseline)
            base_total += v;

        util::TextTable t;
        std::vector<std::string> header{ "category" };
        for (const auto d : kDesigns)
            header.push_back(nvp::designKindName(d));
        t.header(header);

        std::vector<std::array<double, kCategories>> all;
        for (std::size_t d = 0; d < std::size(kDesigns); ++d)
            all.push_back(meanBreakdown());

        for (std::size_t c = 0; c < kCategories; ++c) {
            std::vector<double> row;
            for (const auto &b : all)
                row.push_back(100.0 * b[c] / base_total);
            t.rowDoubles(energy::energyCategoryName(
                             static_cast<EnergyCategory>(c)),
                         row, 1);
        }
        std::vector<double> totals;
        for (const auto &b : all) {
            double sum = 0.0;
            for (const double v : b)
                sum += v;
            totals.push_back(100.0 * sum / base_total);
        }
        t.rowDoubles("TOTAL", totals, 1);
        t.print(std::cout);
    };
    return f;
}

// --- §6.6, ablations and seeds --------------------------------------

/**
 * §6.6 adaptation statistics for WL-Cache under Power Traces 1 and 2:
 * number of maxline reconfigurations, the observed maxline range,
 * energy-source prediction accuracy, dirty lines and write-backs per
 * power-on period, and the pipeline stall share of execution time.
 * (Paper: ~11-12 reconfigurations, maxline range 2..6, >98%
 * prediction accuracy, 6/3 and 6/2 dirty-lines/write-backs, stalls
 * <1%.)
 */
Figure
sec66()
{
    static constexpr energy::TraceKind kTraces[] = {
        energy::TraceKind::RfHome, energy::TraceKind::RfOffice
    };

    Figure f;
    for (const auto tk : kTraces) {
        nvp::ExperimentSpec s;
        s.power = tk;
        s.design = nvp::DesignKind::WL;
        for (auto &spec : perApp(s))
            f.specs.push_back(std::move(spec));
    }

    f.render = [](const Results &results) {
        std::cout << "=== Section 6.6: WL-Cache adaptive management "
                     "statistics ===\n";
        util::TextTable t;
        t.header({ "trace", "reconfigs", "maxline-min", "maxline-max",
                   "pred-acc%", "dirty@ckpt", "wb/period", "stall%",
                   "outages" });

        const std::size_t n = appNames().size();
        std::size_t i = 0;
        for (const auto tk : kTraces) {
            std::vector<double> reconfigs, accs, dirty, wbs, stalls,
                outages;
            unsigned ml_min = 99, ml_max = 0;
            for (std::size_t a = 0; a < n; ++a) {
                const auto &r = results[i++];
                reconfigs.push_back(r.reconfigurations);
                accs.push_back(100.0 * r.prediction_accuracy);
                dirty.push_back(r.avg_dirty_at_ckpt);
                wbs.push_back(r.writebacks_per_on_period);
                outages.push_back(static_cast<double>(r.outages));
                stalls.push_back(
                    r.on_cycles
                        ? 100.0 *
                            static_cast<double>(r.store_stall_cycles) /
                            static_cast<double>(r.on_cycles)
                        : 0.0);
                ml_min = std::min(ml_min, r.maxline_min_seen);
                ml_max = std::max(ml_max, r.maxline_max_seen);
            }
            t.row({ energy::traceKindName(tk),
                    util::fmtDouble(util::mean(reconfigs), 1),
                    std::to_string(ml_min), std::to_string(ml_max),
                    util::fmtDouble(util::mean(accs), 1),
                    util::fmtDouble(util::mean(dirty), 1),
                    util::fmtDouble(util::mean(wbs), 1),
                    util::fmtDouble(util::mean(stalls), 2),
                    util::fmtDouble(util::mean(outages), 1) });
        }
        t.print(std::cout);
    };
    return f;
}

/**
 * Design-choice ablations beyond the paper's own sweeps (DESIGN.md
 * §7), all gmean speedups vs NVSRAM(ideal) under Power Trace 1:
 *   1. waterline gap (maxline - waterline): the paper fixes it at 1;
 *      a larger gap cleans earlier and more aggressively.
 *   2. lazy (paper §5.4) vs eager DirtyQueue cleanup on evictions:
 *      the CAM search the paper avoids, costed per eviction.
 *   3. the §3.3 alternative: WT + CAM write-back buffer.
 *   4. ReplayCache region length: the rollback-granularity /
 *      drain-frequency trade-off of the baseline model.
 */
Figure
ablations()
{
    static constexpr unsigned kGaps[] = { 1, 2, 3, 5 };
    static constexpr unsigned kRegions[] = { 8, 16, 32, 64 };

    // One addVsNvsram() block per table row, in print order.
    Figure f;
    const auto add = [&f](nvp::DesignKind design, Tweak tweak) {
        nvp::ExperimentSpec s;
        s.power = energy::TraceKind::RfHome;
        s.design = design;
        s.tweak = std::move(tweak);
        addVsNvsram(f.specs, s);
    };
    for (const unsigned gap : kGaps)
        add(nvp::DesignKind::WL, [gap](nvp::SystemConfig &c) {
            c.wl.waterline_gap = gap;
            c.adaptive.enabled = false;
        });
    add(nvp::DesignKind::WL, nullptr);
    add(nvp::DesignKind::WL, [](nvp::SystemConfig &c) {
        c.wl.eager_evict_cleanup = true;
    });
    add(nvp::DesignKind::WL, nullptr);
    add(nvp::DesignKind::WtBuffered, nullptr);
    add(nvp::DesignKind::VCacheWT, nullptr);
    for (const unsigned events : kRegions)
        add(nvp::DesignKind::Replay, [events](nvp::SystemConfig &c) {
            c.replay.region_events = events;
        });

    f.render = [](const Results &results) {
        std::size_t i = 0;
        const auto next = [&] { return gmeanVsNvsram(results, i); };
        std::cout << "=== Ablations (gmean speedup vs NVSRAM ideal, "
                     "Power Trace 1) ===\n\n";
        {
            std::cout << "-- waterline gap (maxline 6, DQ 8, static) "
                         "--\n";
            util::TextTable t;
            t.header({ "maxline - waterline", "speedup" });
            for (const unsigned gap : kGaps)
                t.rowDoubles("gap " + std::to_string(gap), { next() });
            t.print(std::cout);
            std::cout << '\n';
        }
        {
            std::cout << "-- DirtyQueue cleanup on dirty evictions --\n";
            util::TextTable t;
            t.header({ "policy", "speedup" });
            t.rowDoubles("lazy stale entries (paper §5.4)", { next() });
            t.rowDoubles("eager CAM cleanup", { next() });
            t.print(std::cout);
            std::cout << '\n';
        }
        {
            std::cout << "-- §3.3 alternative: WT + CAM write-back "
                         "buffer vs WL-Cache --\n";
            util::TextTable t;
            t.header({ "design", "speedup" });
            t.rowDoubles("WL-Cache (DirtyQueue)", { next() });
            t.rowDoubles("WT + 16-entry CAM buffer", { next() });
            t.rowDoubles("plain VCache-WT", { next() });
            t.print(std::cout);
            std::cout << '\n';
        }
        {
            std::cout << "-- ReplayCache region length (events) --\n";
            util::TextTable t;
            t.header({ "region", "speedup" });
            for (const unsigned events : kRegions)
                t.rowDoubles(std::to_string(events), { next() });
            t.print(std::cout);
        }
    };
    return f;
}

/**
 * Statistical robustness check (beyond the paper): the headline
 * gmean speedups of Figure 5 re-measured across several independent
 * power-trace seeds and workload-input seeds. If the conclusions
 * depended on one lucky waveform, this table would show it.
 */
Figure
seeds()
{
    struct SeedPair
    {
        std::uint64_t power;
        std::uint64_t workload;
    };
    static constexpr SeedPair kSeeds[] = {
        { 7, 42 }, { 101, 42 }, { 2023, 42 }, { 7, 1001 }, { 31, 555 },
    };

    // Per seed pair: WT, Replay, then WL.
    Figure f;
    for (const auto &sp : kSeeds) {
        for (const auto d : { nvp::DesignKind::VCacheWT,
                              nvp::DesignKind::Replay,
                              nvp::DesignKind::WL }) {
            nvp::ExperimentSpec s;
            s.power = energy::TraceKind::RfHome;
            s.power_seed = sp.power;
            s.workload_seed = sp.workload;
            s.design = d;
            addVsNvsram(f.specs, s);
        }
    }

    f.render = [](const Results &results) {
        std::cout << "=== Seed robustness: Figure-5 gmeans across "
                     "independent seeds (Power Trace 1) ===\n";
        util::TextTable t;
        t.header({ "seeds (power/input)", "VCache-WT", "ReplayCache",
                   "WL-Cache" });
        std::vector<double> wt, rp, wl;
        std::size_t i = 0;
        for (const auto &sp : kSeeds) {
            const double a = gmeanVsNvsram(results, i);
            const double b = gmeanVsNvsram(results, i);
            const double c = gmeanVsNvsram(results, i);
            wt.push_back(a);
            rp.push_back(b);
            wl.push_back(c);
            t.rowDoubles(std::to_string(sp.power) + "/" +
                             std::to_string(sp.workload),
                         { a, b, c });
        }
        auto spread = [](const std::vector<double> &v) {
            double lo = v[0], hi = v[0];
            for (const double x : v) {
                lo = std::min(lo, x);
                hi = std::max(hi, x);
            }
            return std::pair<double, double>(lo, hi);
        };
        const auto [wt_lo, wt_hi] = spread(wt);
        const auto [rp_lo, rp_hi] = spread(rp);
        const auto [wl_lo, wl_hi] = spread(wl);
        t.row({ "min..max",
                util::fmtDouble(wt_lo, 3) + ".." +
                    util::fmtDouble(wt_hi, 3),
                util::fmtDouble(rp_lo, 3) + ".." +
                    util::fmtDouble(rp_hi, 3),
                util::fmtDouble(wl_lo, 3) + ".." +
                    util::fmtDouble(wl_hi, 3) });
        t.print(std::cout);
        std::cout << "\nWL-Cache stays above NVSRAM(ideal), and above "
                     "ReplayCache, for every seed: "
                  << (wl_lo > 1.0 && wl_lo > rp_hi ? "yes"
                                                   : "see table")
                  << "\n";
    };
    return f;
}

// --- The table ------------------------------------------------------

struct Row
{
    const char *name;  //!< --only name.
    Figure (*make)();
};

const Row kFigures[] = {
    { "table1", table1 },
    { "table2", table2 },
    { "hwcost", hardwareCost },
    { "fig4",
      [] {
          return speedupFigure(
              "Figure 4: speedup vs NVSRAM(ideal), no power failure",
              "fig4", energy::TraceKind::Constant,
              /*no_failure=*/true);
      } },
    { "fig5",
      [] {
          return speedupFigure(
              "Figure 5: speedup vs NVSRAM(ideal), Power Trace 1",
              "fig5", energy::TraceKind::RfHome, /*no_failure=*/false);
      } },
    { "fig6",
      [] {
          return speedupFigure(
              "Figure 6: speedup vs NVSRAM(ideal), Power Trace 2",
              "fig6", energy::TraceKind::RfOffice,
              /*no_failure=*/false);
      } },
    { "fig7", fig7 },
    { "fig8a", fig8a },
    { "fig8b", fig8b },
    { "fig9", fig9 },
    { "fig10a", fig10a },
    { "fig10b", fig10b },
    { "fig11",
      [] {
          return adaptiveFigure(
              "Figure 11: WL-Cache adaptive vs static-best maxline "
              "(speedup vs NVSRAM ideal), Power Trace 1",
              "fig11", energy::TraceKind::RfHome);
      } },
    { "fig12",
      [] {
          return adaptiveFigure(
              "Figure 12: WL-Cache adaptive vs static-best maxline "
              "(speedup vs NVSRAM ideal), Power Trace 2",
              "fig12", energy::TraceKind::RfOffice);
      } },
    { "fig13a", fig13a },
    { "fig13b", fig13b },
    { "sec66", sec66 },
    { "ablations", ablations },
    { "seeds", seeds },
};

/** The rows named in @p only (all when empty), in table order. */
std::vector<const Row *>
selectRows(const std::vector<std::string> &only)
{
    std::string valid;
    for (const auto &row : kFigures)
        valid += std::string(valid.empty() ? "" : ", ") + row.name;
    for (const auto &name : only) {
        const auto known = [&](const Row &row) {
            return name == row.name;
        };
        if (std::none_of(std::begin(kFigures), std::end(kFigures),
                         known))
            fatal("unknown figure '%s' (valid: %s)", name.c_str(),
                  valid.c_str());
    }
    std::vector<const Row *> rows;
    for (const auto &row : kFigures)
        if (only.empty() ||
            std::find(only.begin(), only.end(), row.name) != only.end())
            rows.push_back(&row);
    return rows;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    util::ArgParser args("bench_paper",
                         "Reproduce the paper's tables and figures.");
    args.listOption("only",
                    "figures to print, comma-separated (default: all)");
    if (!args.parse(argc, argv))
        return args.helpRequested() ? 0 : 1;
    if (!args.positional().empty())
        fatal("unexpected argument '%s'",
              args.positional().front().c_str());
    const auto rows = selectRows(args.getList("only"));
    const unsigned scale = benchScale();

    // One job per distinct spec key; slots[f][k] is the job serving
    // figure f's k-th spec.
    std::vector<Figure> figures;
    std::vector<std::vector<std::size_t>> slots;
    std::unordered_map<std::string, std::size_t> job_of_key;
    runner::JobSet jobs;
    for (const Row *row : rows) {
        Figure &fig = figures.emplace_back(row->make());
        auto &slot = slots.emplace_back();
        for (auto &spec : fig.specs) {
            spec.scale = scale;
            const auto [it, fresh] =
                job_of_key.emplace(runner::specKey(spec), jobs.size());
            if (fresh)
                jobs.add(spec);
            slot.push_back(it->second);
        }
    }

    runner::RunnerConfig cfg;
    if (const char *dir = std::getenv("WLCACHE_BENCH_CACHE_DIR"))
        cfg.cache_dir = dir;
    if (const char *p = std::getenv("WLCACHE_BENCH_PROGRESS"))
        cfg.progress = p[0] != '\0' && std::string(p) != "0";
    if (const char *m = std::getenv("WLCACHE_BENCH_MANIFEST"))
        cfg.manifest_path = m;
    const Results all = runner::Runner(cfg).runAll(jobs);

    for (std::size_t f = 0; f < figures.size(); ++f) {
        Results results;
        results.reserve(slots[f].size());
        for (const std::size_t j : slots[f])
            results.push_back(all[j]);
        figures[f].render(results);
    }
    return 0;
}
