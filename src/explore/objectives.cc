#include "explore/objectives.hh"

#include <algorithm>
#include <cmath>

#include "hwcost/cacti_lite.hh"
#include "sim/logging.hh"
#include "sim/types.hh"
#include "workloads/workloads.hh"

namespace wlcache {
namespace explore {

namespace {

/**
 * Execution time with the fig-10b convention for runs that did not
 * finish: extrapolate by instruction progress so a design that
 * thrashes still lands on a comparable (and suitably terrible)
 * number instead of vanishing from the trade-off space.
 */
double
adjustedTimeS(const nvp::RunResult &r, const nvp::ExperimentSpec &spec)
{
    if (r.completed)
        return r.total_seconds;
    const auto &trace = workloads::getTrace(spec.workload, spec.scale,
                                            spec.workload_seed);
    const double progress = static_cast<double>(r.instructions) /
                            static_cast<double>(
                                trace.totalInstructions());
    return progress > 1.0e-6 ? r.total_seconds / progress : 1.0e6;
}

/** 1 when the node misses the sweep's cycle deadline, else 0. */
double
missesDeadline(const nvp::RunResult &r, const SweepSpec &sweep)
{
    const Cycle budget = static_cast<Cycle>(sweep.deadline_cycles);
    const bool met = r.completed &&
                     (budget == 0 ||
                      r.total_seconds <= cyclesToSeconds(budget));
    return met ? 0.0 : 1.0;
}

/** Reduce one objective's per-node values (see ObjectiveDef). */
double
reduceValues(const ObjectiveDef &def, std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    double v = values.front();
    switch (def.reduce) {
      case ObjectiveDef::Reduce::Sum:
      case ObjectiveDef::Reduce::Mean:
        // Start from the first value, not 0.0: a one-node point
        // reduces to its run's own value, -0.0 included.
        for (std::size_t i = 1; i < values.size(); ++i)
            v += values[i];
        if (def.reduce == ObjectiveDef::Reduce::Mean)
            v /= static_cast<double>(values.size());
        break;
      case ObjectiveDef::Reduce::Max:
        for (const double x : values)
            v = std::max(v, x);
        break;
      case ObjectiveDef::Reduce::Percentile:
        v = percentileNearestRank(std::move(values), def.pct);
        break;
    }
    return def.negate ? -v : v;
}

} // anonymous namespace

double
percentileNearestRank(std::vector<double> values, double pct)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    if (pct <= 0.0)
        return values.front();
    if (pct >= 100.0)
        return values.back();
    // 1-based nearest rank: ceil(pct/100 * N), clamped to [1, N] so
    // floating-point edge cases can never index out of range.
    const double n = static_cast<double>(values.size());
    auto rank =
        static_cast<std::size_t>(std::ceil(pct / 100.0 * n));
    if (rank < 1)
        rank = 1;
    if (rank > values.size())
        rank = values.size();
    return values[rank - 1];
}

double
nodeProgressRate(const nvp::RunResult &r)
{
    if (r.total_seconds <= 0.0)
        return 0.0;
    return static_cast<double>(r.instructions) / r.total_seconds;
}

double
checkpointReserveJ(const nvp::SystemConfig &cfg)
{
    const auto &p = cfg.platform;
    const double vbackup = nvp::isWlFamily(cfg.design)
        ? nvp::wlThresholds(p, cfg.wl.maxline).vbackup
        : p.vbackup;
    if (vbackup < p.vmin)
        return 0.0;
    return 0.5 * p.capacitance_f *
           (vbackup * vbackup - p.vmin * p.vmin);
}

double
hardwareAreaMm2(const nvp::SystemConfig &cfg)
{
    const hwcost::CactiLite model;
    double area = 0.0;
    if (cfg.design != nvp::DesignKind::NoCache) {
        area += model
                    .cacheArray(cfg.dcache.size_bytes,
                                cfg.dcache.line_bytes,
                                cfg.dcache.assoc)
                    .area_mm2;
        area += model
                    .cacheArray(cfg.icache.size_bytes,
                                cfg.icache.line_bytes,
                                cfg.icache.assoc)
                    .area_mm2;
    }
    if (nvp::isWlFamily(cfg.design))
        area += model.dirtyQueue(cfg.wl.dq_size).area_mm2;
    return area;
}

const std::vector<ObjectiveDef> &
allObjectives()
{
    using N = NodeResult;
    using S = SweepSpec;
    using R = ObjectiveDef::Reduce;
    // Per-run values first, then the fleet rows. On a fleet, the
    // per-run rows report the average node (or the worst one, for
    // time, wear and latency), the fleet rows fleet-wide totals and
    // tails.
    static const std::vector<ObjectiveDef> defs = {
        { "time",
          "execution time in seconds (DNF runs extrapolated by "
          "instruction progress; fleet: the slowest node)",
          [](const N &n, const S &) {
              return adjustedTimeS(n.result, n.spec);
          },
          R::Max, 0.0, false },
        { "energy", "total consumed energy in joules (fleet: mean)",
          [](const N &n, const S &) { return n.result.meter.total(); },
          R::Mean, 0.0, false },
        { "nvm_writes", "NVM write operations (fleet: mean)",
          [](const N &n, const S &) {
              return static_cast<double>(n.result.nvm_writes);
          },
          R::Mean, 0.0, false },
        { "nvm_bytes", "bytes written to NVM (fleet: mean)",
          [](const N &n, const S &) {
              return static_cast<double>(n.result.nvm_bytes_written);
          },
          R::Mean, 0.0, false },
        { "outages", "power failures endured (fleet: mean)",
          [](const N &n, const S &) {
              return static_cast<double>(n.result.outages);
          },
          R::Mean, 0.0, false },
        { "ckpt_reserve",
          "JIT-checkpoint energy reserve in joules "
          "(capacitor energy set aside between Vbackup and Vmin)",
          [](const N &n, const S &) {
              return checkpointReserveJ(nvp::resolveConfig(n.spec));
          },
          R::Max, 0.0, false },
        { "hw_area",
          "first-order silicon area in mm^2 (CACTI-lite: caches plus "
          "the WL DirtyQueue)",
          [](const N &n, const S &) {
              return hardwareAreaMm2(nvp::resolveConfig(n.spec));
          },
          R::Max, 0.0, false },
        { "nvm_lifetime",
          "negated min-line write headroom (endurance budget minus "
          "the most-worn line's count; maximizing, so negated here; "
          "requires nvm.track_wear; fleet: the least headroom)",
          [](const N &n, const S &) {
              return static_cast<double>(n.result.nvm_lifetime_headroom);
          },
          R::Percentile, 0.0, true },
        { "nvm_wear_max",
          "highest per-line NVM write count "
          "(requires nvm.track_wear; fleet: the worst node)",
          [](const N &n, const S &) {
              return static_cast<double>(n.result.nvm_wear_max);
          },
          R::Max, 0.0, false },
        { "nvm_write_p99_latency",
          "99th-percentile NVM write latency in cycles (log2 "
          "histogram upper bound; fleet: the worst node)",
          [](const N &n, const S &) {
              return n.result.nvm_write_p99_latency;
          },
          R::Max, 0.0, false },
        // "pXX fleet forward progress": the rate met (or exceeded) by
        // XX% of the fleet, i.e. the nearest-rank (100-XX)th
        // percentile of the per-node rates, negated so minimizing
        // raises the fleet's tail.
        { "fleet_p50_progress",
          "forward-progress rate met by half the fleet "
          "(median, negated to maximize)",
          [](const N &n, const S &) {
              return nodeProgressRate(n.result);
          },
          R::Percentile, 50.0, true },
        { "fleet_p90_progress",
          "forward-progress rate met by 90% of the fleet "
          "(negated to maximize)",
          [](const N &n, const S &) {
              return nodeProgressRate(n.result);
          },
          R::Percentile, 10.0, true },
        { "fleet_p99_progress",
          "forward-progress rate met by 99% of the fleet "
          "(negated to maximize)",
          [](const N &n, const S &) {
              return nodeProgressRate(n.result);
          },
          R::Percentile, 1.0, true },
        { "fleet_mean_progress",
          "mean per-node forward-progress rate (negated to maximize)",
          [](const N &n, const S &) {
              return nodeProgressRate(n.result);
          },
          R::Mean, 0.0, true },
        { "fleet_wear_total",
          "fleet-total NVM line writes (endurance budget consumed "
          "across every node)",
          [](const N &n, const S &) {
              return static_cast<double>(n.result.nvm_writes);
          },
          R::Sum, 0.0, false },
        { "fleet_wear_max",
          "worst single-line write count anywhere in the fleet "
          "(needs nvm.track_wear)",
          [](const N &n, const S &) {
              return static_cast<double>(n.result.nvm_wear_max);
          },
          R::Max, 0.0, false },
        { "fleet_energy_total",
          "fleet-total consumed energy in joules",
          [](const N &n, const S &) { return n.result.meter.total(); },
          R::Sum, 0.0, false },
        { "fleet_deadline_miss",
          "fraction of nodes missing the cycle deadline "
          "(deadline_cycles; 0 counts bare completion)",
          [](const N &n, const S &s) {
              return missesDeadline(n.result, s);
          },
          R::Mean, 0.0, false },
    };
    return defs;
}

const ObjectiveDef *
findObjective(const std::string &name)
{
    for (const auto &d : allObjectives())
        if (name == d.name)
            return &d;
    return nullptr;
}

std::string
objectiveNameList()
{
    std::string list;
    for (const auto &d : allObjectives()) {
        if (!list.empty())
            list += ", ";
        list += d.name;
    }
    return list;
}

std::vector<double>
evalObjectives(const std::vector<std::string> &names,
               const std::vector<NodeResult> &nodes,
               const SweepSpec &sweep)
{
    std::vector<double> out;
    out.reserve(names.size());
    for (const auto &name : names) {
        const ObjectiveDef *def = findObjective(name);
        wlc_assert(def != nullptr, "unknown objective '%s'",
                   name.c_str());
        std::vector<double> values;
        values.reserve(nodes.size());
        for (const NodeResult &n : nodes)
            values.push_back(def->run(n, sweep));
        const double v = reduceValues(*def, std::move(values));
        // A non-finite value must never reach a report or the
        // Pareto ordering.
        out.push_back(std::isfinite(v) ? v : 0.0);
    }
    return out;
}

} // namespace explore
} // namespace wlcache
