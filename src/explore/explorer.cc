#include "explore/explorer.hh"

#include <algorithm>

#include "explore/pareto.hh"
#include "runner/runner.hh"

namespace wlcache {
namespace explore {

void
aggregatePoint(PointOutcome &out, const SweepSpec &sweep,
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
    out.completed_nodes = 0;
    for (const NodeResult &n : out.nodes) {
        out.total_instructions += n.result.instructions;
        out.total_nvm_writes += n.result.nvm_writes;
        out.total_outages += n.result.outages;
        if (n.result.completed)
            ++out.completed_nodes;
    }
    out.objectives = evalObjectives(objective_names, out.nodes, sweep);
}

bool
runExploration(const ExploreConfig &cfg, ExploreReport &out,
               std::string *err)
{
    auto fail = [&](const std::string &what) {
        if (err)
            *err = what;
        return false;
    };

    const SweepSpec &sweep = cfg.sweep;
    // Resolve objectives: config overrides sweep, default otherwise.
    std::vector<std::string> objectives =
        !cfg.objectives.empty() ? cfg.objectives
        : !sweep.objectives.empty() ? sweep.objectives
        : sweep.nodes
            ? std::vector<std::string>{ "fleet_p99_progress",
                                        "fleet_wear_total" }
            : std::vector<std::string>{ "time", "nvm_writes" };
    for (const auto &name : objectives)
        if (!findObjective(name))
            return fail("unknown objective '" + name + "' (valid: " +
                        objectiveNameList() + ")");

    std::vector<DesignPoint> points;
    if (!expandPoints(sweep, points, err))
        return false;
    if (points.empty())
        return fail("sweep expands to zero points");

    // One flat batch: points x nodes, node fastest. A plain sweep
    // submits each point's spec untouched; a fleet node is the same
    // single-node experiment with its node identity and mix workload,
    // so the content-addressed cache treats fleet work like any other.
    const unsigned nodes = std::max(sweep.nodes, 1u);
    const std::vector<std::string> pattern = sweep.workloadPattern();
    runner::JobSet set;
    for (const DesignPoint &p : points) {
        if (!sweep.nodes) {
            set.add(p.spec, p.id + "@x" + std::to_string(p.spec.scale));
            continue;
        }
        const std::string pid = p.id.empty() ? "base" : p.id;
        for (unsigned n = 0; n < nodes; ++n) {
            nvp::ExperimentSpec s = p.spec;
            s.power_node = n;
            s.power_jitter = sweep.jitter;
            if (!pattern.empty())
                s.workload = pattern[n % pattern.size()];
            set.add(std::move(s), pid + "#n" + std::to_string(n));
        }
    }
    runner::RunnerConfig rc;
    rc.jobs = cfg.jobs;
    rc.cache_dir = cfg.cache_dir;
    rc.progress = cfg.progress;
    rc.progress_out = cfg.progress_out;
    runner::Runner runner(rc);
    std::vector<nvp::RunResult> results = runner.runAll(set);

    ExploreReport report;
    report.name = sweep.name;
    report.nodes = sweep.nodes;
    report.jitter = sweep.jitter;
    report.objective_names = objectives;
    report.total_runs = runner.stats().total;
    report.cache_hits = runner.stats().cache_hits;
    report.executed = runner.stats().executed;

    std::vector<std::vector<double>> objs;
    std::vector<std::string> ids;
    std::size_t job = 0;
    for (DesignPoint &p : points) {
        PointOutcome o;
        o.point = std::move(p);
        o.nodes.reserve(nodes);
        for (unsigned n = 0; n < nodes; ++n, ++job) {
            NodeResult nr;
            nr.node = n;
            nr.spec = set[job].spec;
            nr.run_key = set[job].key;
            nr.result = std::move(results[job]);
            o.nodes.push_back(std::move(nr));
        }
        aggregatePoint(o, sweep, objectives);
        objs.push_back(o.objectives);
        ids.push_back(o.point.id);
        report.outcomes.push_back(std::move(o));
    }

    report.frontier = paretoFrontier(objs, ids);
    for (const std::size_t i : report.frontier)
        report.outcomes[i].on_frontier = true;

    out = std::move(report);
    return true;
}

} // namespace explore
} // namespace wlcache
