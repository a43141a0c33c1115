#include "fleet/fleet.hh"

#include <algorithm>
#include <cmath>

#include "explore/pareto.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace wlcache {
namespace fleet {

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

namespace {

std::vector<double>
progressRates(const std::vector<NodeResult> &nodes)
{
    std::vector<double> rates;
    rates.reserve(nodes.size());
    for (const NodeResult &n : nodes)
        rates.push_back(nodeProgressRate(n.result));
    return rates;
}

/**
 * "pXX fleet forward progress": the rate met (or exceeded) by XX% of
 * the fleet — the nearest-rank (100-XX)th percentile of the per-node
 * progress rates, negated so minimizing raises the fleet's tail.
 */
double
tailProgress(const std::vector<NodeResult> &nodes, double xx)
{
    return -percentileNearestRank(progressRates(nodes), 100.0 - xx);
}

bool
meetsDeadline(const nvp::RunResult &r, const FleetSpec &spec)
{
    if (!r.completed)
        return false;
    if (spec.deadline_cycles == 0)
        return true;
    return r.total_seconds <=
           cyclesToSeconds(static_cast<Cycle>(spec.deadline_cycles));
}

} // anonymous namespace

const std::vector<FleetObjectiveDef> &
allFleetObjectives()
{
    using N = std::vector<NodeResult>;
    using S = FleetSpec;
    static const std::vector<FleetObjectiveDef> defs = {
        { "fleet_p50_progress",
          "forward-progress rate met by half the fleet "
          "(median, negated to maximize)",
          [](const N &nodes, const S &) {
              return tailProgress(nodes, 50.0);
          } },
        { "fleet_p90_progress",
          "forward-progress rate met by 90% of the fleet "
          "(negated to maximize)",
          [](const N &nodes, const S &) {
              return tailProgress(nodes, 90.0);
          } },
        { "fleet_p99_progress",
          "forward-progress rate met by 99% of the fleet "
          "(negated to maximize)",
          [](const N &nodes, const S &) {
              return tailProgress(nodes, 99.0);
          } },
        { "fleet_mean_progress",
          "mean per-node forward-progress rate (negated to maximize)",
          [](const N &nodes, const S &) {
              if (nodes.empty())
                  return 0.0;
              double sum = 0.0;
              for (const NodeResult &n : nodes)
                  sum += nodeProgressRate(n.result);
              return -sum / static_cast<double>(nodes.size());
          } },
        { "fleet_wear_total",
          "fleet-total NVM line writes (endurance budget consumed "
          "across every node)",
          [](const N &nodes, const S &) {
              double sum = 0.0;
              for (const NodeResult &n : nodes)
                  sum += static_cast<double>(n.result.nvm_writes);
              return sum;
          } },
        { "fleet_wear_max",
          "worst single-line write count anywhere in the fleet "
          "(needs nvm.track_wear)",
          [](const N &nodes, const S &) {
              std::uint64_t worst = 0;
              for (const NodeResult &n : nodes)
                  worst = std::max(worst, n.result.nvm_wear_max);
              return static_cast<double>(worst);
          } },
        { "fleet_energy_total",
          "fleet-total consumed energy in joules",
          [](const N &nodes, const S &) {
              double sum = 0.0;
              for (const NodeResult &n : nodes)
                  sum += n.result.meter.total();
              return sum;
          } },
        { "fleet_deadline_miss",
          "fraction of nodes missing the cycle deadline "
          "(deadline_cycles; 0 counts bare completion)",
          [](const N &nodes, const S &spec) {
              if (nodes.empty())
                  return 0.0;
              std::size_t missed = 0;
              for (const NodeResult &n : nodes)
                  if (!meetsDeadline(n.result, spec))
                      ++missed;
              return static_cast<double>(missed) /
                     static_cast<double>(nodes.size());
          } },
    };
    return defs;
}

const FleetObjectiveDef *
findFleetObjective(const std::string &name)
{
    for (const auto &d : allFleetObjectives())
        if (name == d.name)
            return &d;
    return nullptr;
}

std::string
fleetObjectiveNameList()
{
    std::string list;
    for (const auto &d : allFleetObjectives()) {
        if (!list.empty())
            list += ", ";
        list += d.name;
    }
    return list;
}

void
aggregatePoint(FleetPointOutcome &out, const FleetSpec &spec,
               const std::vector<std::string> &objective_names)
{
    // Reduction order must not depend on delivery order: node id is
    // the one stable sort key a sharded worker fleet cannot permute.
    std::sort(out.nodes.begin(), out.nodes.end(),
              [](const NodeResult &a, const NodeResult &b) {
                  return a.node < b.node;
              });

    out.total_instructions = 0;
    out.total_nvm_writes = 0;
    out.total_outages = 0;
    out.total_harvested_j = 0.0;
    out.completed_nodes = 0;
    for (const NodeResult &n : out.nodes) {
        out.total_instructions += n.result.instructions;
        out.total_nvm_writes += n.result.nvm_writes;
        out.total_outages += n.result.outages;
        for (const auto &iv : n.result.intervals)
            out.total_harvested_j += iv.harvested_j;
        if (n.result.completed)
            ++out.completed_nodes;
    }

    out.objectives.clear();
    out.objectives.reserve(objective_names.size());
    for (const std::string &name : objective_names) {
        const FleetObjectiveDef *def = findFleetObjective(name);
        wlc_assert(def != nullptr, "unknown fleet objective '%s'",
                   name.c_str());
        const double v = def->eval(out.nodes, spec);
        // PR-5 clamp discipline: a non-finite aggregate must never
        // reach a report or run JSON.
        out.objectives.push_back(std::isfinite(v) ? v : 0.0);
    }
}

bool
runFleet(const FleetConfig &cfg, FleetReport &out, std::string *err)
{
    auto fail = [&](const std::string &what) {
        if (err)
            *err = what;
        return false;
    };

    const FleetSpec &spec = cfg.spec;
    const std::vector<std::string> objectives =
        !spec.objectives.empty()
            ? spec.objectives
            : std::vector<std::string>{ "fleet_p99_progress",
                                        "fleet_wear_total" };
    for (const auto &name : objectives)
        if (!findFleetObjective(name))
            return fail("unknown fleet objective '" + name +
                        "' (valid: " + fleetObjectiveNameList() +
                        ")");
    if (spec.nodes == 0)
        return fail("fleet needs at least one node");

    std::vector<explore::DesignPoint> points;
    if (!explore::expandPoints(spec.sweep, points, err))
        return false;
    if (points.empty())
        return fail("sweep expands to zero points");

    const std::vector<std::string> pattern = spec.workloadPattern();

    // One flat batch: points x nodes, node fastest. Every job is an
    // ordinary single-node experiment, so the content-addressed cache
    // treats fleet work like any other.
    runner::JobSet set;
    for (const auto &p : points) {
        const std::string pid = p.id.empty() ? "base" : p.id;
        for (unsigned n = 0; n < spec.nodes; ++n) {
            nvp::ExperimentSpec s = p.spec;
            s.power_node = n;
            s.power_jitter = spec.jitter;
            if (!pattern.empty())
                s.workload = pattern[n % pattern.size()];
            set.add(std::move(s),
                    pid + "#n" + std::to_string(n));
        }
    }

    runner::RunnerConfig rc;
    rc.jobs = cfg.jobs;
    rc.cache_dir = cfg.cache_dir;
    rc.progress = cfg.progress;
    rc.progress_out = cfg.progress_out;
    runner::Runner runner(rc);
    const std::vector<nvp::RunResult> results = runner.runAll(set);
    const runner::BatchStats &stats = runner.stats();

    FleetReport report;
    report.name = spec.name;
    report.nodes = spec.nodes;
    report.jitter = spec.jitter;
    report.objective_names = objectives;
    report.total_runs = stats.total;
    report.cache_hits = stats.cache_hits;
    report.executed = stats.executed;

    std::vector<std::vector<double>> objs;
    std::vector<std::string> ids;
    std::size_t job = 0;
    for (const auto &p : points) {
        FleetPointOutcome o;
        o.point = p;
        o.nodes.reserve(spec.nodes);
        for (unsigned n = 0; n < spec.nodes; ++n, ++job) {
            NodeResult nr;
            nr.node = n;
            nr.workload = set[job].spec.workload;
            nr.run_key = set[job].key;
            nr.result = results[job];
            o.nodes.push_back(std::move(nr));
        }
        aggregatePoint(o, spec, objectives);
        objs.push_back(o.objectives);
        ids.push_back(o.point.id);
        report.outcomes.push_back(std::move(o));
    }

    report.frontier = explore::paretoFrontier(objs, ids);
    for (const std::size_t idx : report.frontier)
        report.outcomes[idx].on_frontier = true;

    out = std::move(report);
    return true;
}

} // namespace fleet
} // namespace wlcache
