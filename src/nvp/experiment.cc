#include "nvp/experiment.hh"

#include "sim/logging.hh"

namespace wlcache {
namespace nvp {

SystemConfig
resolveConfig(const ExperimentSpec &spec)
{
    SystemConfig cfg = SystemConfig::forDesign(spec.design);
    if (spec.tweak)
        spec.tweak(cfg);
    return cfg;
}

RunResult
runExperiment(const ExperimentSpec &spec)
{
    return runExperimentEx(spec, RunOptions{});
}

RunResult
runExperimentEx(const ExperimentSpec &spec, const RunOptions &opts)
{
    const SystemConfig cfg = resolveConfig(spec);

    const workloads::BuiltTrace &trace =
        workloads::getTrace(spec.workload, spec.scale,
                            spec.workload_seed);

    energy::TraceGenConfig tg;
    tg.seed = spec.power_seed;
    const energy::PowerTrace &base = energy::getPowerTrace(
        spec.no_failure ? energy::TraceKind::Constant : spec.power, tg);
    // Fleet runs: same environment envelope, node-local gain. Skipped
    // under no_failure (infinite power has no jitter to model). The
    // plain copy shares the memoized samples and their hash.
    const energy::PowerTrace power =
        spec.power_jitter > 0.0 && !spec.no_failure
            ? energy::deriveNodeTrace(base, spec.power_node,
                                      spec.power_jitter)
            : base;

    SystemSim sim(cfg, trace, power, spec.no_failure);
    return sim.run(opts);
}

double
speedupVs(const RunResult &x, const RunResult &baseline)
{
    wlc_assert(x.total_seconds > 0.0);
    return baseline.total_seconds / x.total_seconds;
}

} // namespace nvp
} // namespace wlcache
