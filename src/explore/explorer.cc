#include "explore/explorer.hh"

#include "explore/objectives.hh"
#include "explore/pareto.hh"
#include "runner/runner.hh"

namespace wlcache {
namespace explore {

bool
runExploration(const ExploreConfig &cfg, ExploreReport &out,
               std::string *err)
{
    auto fail = [&](const std::string &what) {
        if (err)
            *err = what;
        return false;
    };

    // Resolve objectives: config overrides sweep, default otherwise.
    std::vector<std::string> objectives =
        !cfg.objectives.empty() ? cfg.objectives
        : !cfg.sweep.objectives.empty()
            ? cfg.sweep.objectives
            : std::vector<std::string>{ "time", "nvm_writes" };
    for (const auto &name : objectives)
        if (!findObjective(name))
            return fail("unknown objective '" + name + "' (valid: " +
                        objectiveNameList() + ")");

    std::vector<DesignPoint> points;
    if (!expandPoints(cfg.sweep, points, err))
        return false;
    if (points.empty())
        return fail("sweep expands to zero points");

    runner::JobSet set;
    for (const DesignPoint &p : points)
        set.add(p.spec, p.id + "@x" + std::to_string(p.spec.scale));
    runner::RunnerConfig rc;
    rc.jobs = cfg.jobs;
    rc.cache_dir = cfg.cache_dir;
    rc.progress = cfg.progress;
    rc.progress_out = cfg.progress_out;
    runner::Runner runner(rc);
    std::vector<nvp::RunResult> results = runner.runAll(set);

    ExploreReport report;
    report.name = cfg.sweep.name;
    report.objective_names = objectives;
    report.cache_hits = runner.stats().cache_hits;
    report.executed = runner.stats().executed;

    std::vector<std::vector<double>> objs;
    std::vector<std::string> ids;
    for (std::size_t i = 0; i < points.size(); ++i) {
        PointOutcome o;
        o.point = std::move(points[i]);
        o.result = std::move(results[i]);
        o.objectives = evalObjectives(objectives, o.result,
                                      nvp::resolveConfig(o.point.spec),
                                      o.point.spec);
        o.run_key = set[i].key;
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
