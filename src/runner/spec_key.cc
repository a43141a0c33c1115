#include "runner/spec_key.hh"

#include <sstream>

#include "util/strings.hh"

namespace wlcache {
namespace runner {

std::string
specKeyText(const nvp::ExperimentSpec &spec)
{
    // Resolve the configuration the run would actually use: design
    // preset plus the caller's tweak hook.
    const nvp::SystemConfig cfg = nvp::resolveConfig(spec);

    std::ostringstream os;
    os << "schema=" << kResultSchemaVersion << '\n'
       << "workload=" << spec.workload << '\n'
       << "scale=" << spec.scale << '\n'
       << "workload_seed=" << spec.workload_seed << '\n'
       << "power=" << energy::traceKindName(spec.power) << '\n'
       << "power_seed=" << spec.power_seed << '\n'
       << "power_node=" << spec.power_node << '\n'
       << "power_jitter=" << util::fmtExact(spec.power_jitter) << '\n'
       << "no_failure=" << spec.no_failure << '\n';
    nvp::dumpConfigKey(os, cfg);
    return os.str();
}

std::string
hashKeyText(const std::string &text)
{
    return util::fnv1a128Hex(text.data(), text.size());
}

std::string
specKey(const nvp::ExperimentSpec &spec)
{
    return hashKeyText(specKeyText(spec));
}

std::string
resumeKey(const nvp::ExperimentSpec &spec)
{
    const nvp::SystemConfig cfg = nvp::resolveConfig(spec);
    nvp::SystemConfig keyed = cfg;
    keyed.forced_outage_cycles.clear();
    keyed.inject_checkpoint_skip = false;
    keyed.inject_register_skip = false;
    keyed.max_outages = 0;
    keyed.timeline = nullptr;
    // Both step modes produce bit-identical state, so snapshots
    // resume across modes; neutralize like SystemSim's snapshot key.
    keyed.step_mode = StepMode::SkipAhead;

    std::ostringstream os;
    os << "schema=" << kResultSchemaVersion << '\n'
       << "resume\n"
       << "workload=" << spec.workload << '\n'
       << "scale=" << spec.scale << '\n'
       << "workload_seed=" << spec.workload_seed << '\n'
       << "power=" << energy::traceKindName(spec.power) << '\n'
       << "power_seed=" << spec.power_seed << '\n'
       << "power_node=" << spec.power_node << '\n'
       << "power_jitter=" << util::fmtExact(spec.power_jitter) << '\n'
       << "no_failure=" << spec.no_failure << '\n';
    nvp::dumpConfigKey(os, keyed);
    return hashKeyText(os.str());
}

} // namespace runner
} // namespace wlcache
