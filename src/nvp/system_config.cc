#include "nvp/system_config.hh"

#include <ostream>

#include "sim/logging.hh"
#include "util/strings.hh"

namespace wlcache {
namespace nvp {

const char *
stepModeName(StepMode mode)
{
    switch (mode) {
      case StepMode::Percycle:  return "percycle";
      case StepMode::SkipAhead: return "skip_ahead";
    }
    panic("unknown StepMode %d", static_cast<int>(mode));
}

bool
stepModeFromName(const std::string &name, StepMode &out)
{
    for (const StepMode m : { StepMode::Percycle, StepMode::SkipAhead }) {
        if (name == stepModeName(m)) {
            out = m;
            return true;
        }
    }
    return false;
}

namespace {

// Doubles render exactly, so equal keys mean equal bits.
using util::fmtExact;

void
dumpCacheParams(std::ostream &os, const char *prefix,
                const cache::CacheParams &p)
{
    os << prefix << ".size_bytes=" << p.size_bytes << '\n'
       << prefix << ".assoc=" << p.assoc << '\n'
       << prefix << ".line_bytes=" << p.line_bytes << '\n'
       << prefix << ".repl=" << cache::replPolicyName(p.repl) << '\n'
       << prefix << ".hit_latency=" << p.hit_latency << '\n'
       << prefix << ".write_hit_latency=" << p.write_hit_latency
       << '\n'
       << prefix << ".miss_lookup_latency=" << p.miss_lookup_latency
       << '\n'
       << prefix << ".access_energy_read="
       << fmtExact(p.access_energy_read) << '\n'
       << prefix << ".access_energy_write="
       << fmtExact(p.access_energy_write) << '\n'
       << prefix << ".line_fill_energy=" << fmtExact(p.line_fill_energy)
       << '\n'
       << prefix << ".line_read_energy=" << fmtExact(p.line_read_energy)
       << '\n'
       << prefix << ".leakage_watts=" << fmtExact(p.leakage_watts)
       << '\n'
       << prefix << ".lru_update_energy="
       << fmtExact(p.lru_update_energy) << '\n';
}

} // anonymous namespace

void
dumpConfigKey(std::ostream &os, const SystemConfig &cfg)
{
    os << "design=" << designKindName(cfg.design) << '\n'
       << "step_mode=" << stepModeName(cfg.step_mode) << '\n';
    dumpCacheParams(os, "dcache", cfg.dcache);
    dumpCacheParams(os, "icache", cfg.icache);

    os << "nvsram.backup_full=" << cfg.nvsram.backup_full << '\n'
       << "nvsram.backup_line_energy="
       << fmtExact(cfg.nvsram.backup_line_energy) << '\n'
       << "nvsram.restore_line_energy="
       << fmtExact(cfg.nvsram.restore_line_energy) << '\n'
       << "nvsram.backup_line_latency="
       << cfg.nvsram.backup_line_latency << '\n'
       << "nvsram.restore_line_latency="
       << cfg.nvsram.restore_line_latency << '\n';

    os << "nvsram_practical.migrate_line_energy="
       << fmtExact(cfg.nvsram_practical.migrate_line_energy) << '\n'
       << "nvsram_practical.migrate_line_latency="
       << cfg.nvsram_practical.migrate_line_latency << '\n';

    os << "replay.persist_queue_depth="
       << cfg.replay.persist_queue_depth << '\n'
       << "replay.region_events=" << cfg.replay.region_events << '\n'
       << "replay.commit_marker_addr="
       << cfg.replay.commit_marker_addr << '\n';

    os << "wt_buffer.entries=" << cfg.wt_buffer.entries << '\n'
       << "wt_buffer.cam_search_latency="
       << cfg.wt_buffer.cam_search_latency << '\n'
       << "wt_buffer.cam_search_energy="
       << fmtExact(cfg.wt_buffer.cam_search_energy) << '\n'
       << "wt_buffer.buffer_leakage_watts="
       << fmtExact(cfg.wt_buffer.buffer_leakage_watts) << '\n';

    os << "wl.dq_size=" << cfg.wl.dq_size << '\n'
       << "wl.maxline=" << cfg.wl.maxline << '\n'
       << "wl.waterline_gap=" << cfg.wl.waterline_gap << '\n'
       << "wl.dq_repl=" << cache::replPolicyName(cfg.wl.dq_repl)
       << '\n'
       << "wl.dq_access_energy=" << fmtExact(cfg.wl.dq_access_energy)
       << '\n'
       << "wl.dq_leakage_watts=" << fmtExact(cfg.wl.dq_leakage_watts)
       << '\n'
       << "wl.dq_lru_search_energy="
       << fmtExact(cfg.wl.dq_lru_search_energy) << '\n'
       << "wl.eager_evict_cleanup=" << cfg.wl.eager_evict_cleanup
       << '\n'
       << "wl.dq_cam_search_energy="
       << fmtExact(cfg.wl.dq_cam_search_energy) << '\n';

    os << "adaptive.enabled=" << cfg.adaptive.enabled << '\n'
       << "adaptive.delta=" << fmtExact(cfg.adaptive.delta) << '\n'
       << "adaptive.maxline_min=" << cfg.adaptive.maxline_min << '\n'
       << "adaptive.maxline_max=" << cfg.adaptive.maxline_max << '\n'
       << "adaptive.timer_resolution_s="
       << fmtExact(cfg.adaptive.timer_resolution_s) << '\n'
       << "wl_dynamic=" << cfg.wl_dynamic << '\n';

    os << "nvm.size_bytes=" << cfg.nvm.size_bytes << '\n'
       << "nvm.banks=" << cfg.nvm.banks << '\n'
       << "nvm.t_rcd=" << cfg.nvm.t_rcd << '\n'
       << "nvm.t_cl=" << cfg.nvm.t_cl << '\n'
       << "nvm.t_burst=" << cfg.nvm.t_burst << '\n'
       << "nvm.t_wr=" << cfg.nvm.t_wr << '\n'
       << "nvm.t_wtr=" << cfg.nvm.t_wtr << '\n'
       << "nvm.read_energy_per_byte="
       << fmtExact(cfg.nvm.read_energy_per_byte) << '\n'
       << "nvm.write_energy_per_byte="
       << fmtExact(cfg.nvm.write_energy_per_byte) << '\n'
       << "nvm.activate_energy=" << fmtExact(cfg.nvm.activate_energy)
       << '\n'
       << "nvm.model=" << mem::nvmModelName(cfg.nvm.model) << '\n'
       << "nvm.queue_depth=" << cfg.nvm.queue_depth << '\n'
       << "nvm.row_bytes=" << cfg.nvm.row_bytes << '\n'
       << "nvm.write_verify_retries=" << cfg.nvm.write_verify_retries
       << '\n'
       << "nvm.track_wear=" << cfg.nvm.track_wear << '\n'
       << "nvm.wear_line_bytes=" << cfg.nvm.wear_line_bytes << '\n'
       << "nvm.endurance_writes=" << cfg.nvm.endurance_writes << '\n'
       << "nvm.wear_scheme="
       << mem::nvmWearSchemeName(cfg.nvm.wear_scheme) << '\n'
       << "nvm.rotate_period_writes=" << cfg.nvm.rotate_period_writes
       << '\n'
       << "nvm.hybrid_lines=" << cfg.nvm.hybrid_lines << '\n'
       << "nvm.hybrid_promote_writes=" << cfg.nvm.hybrid_promote_writes
       << '\n'
       << "nvm.hybrid_access_latency=" << cfg.nvm.hybrid_access_latency
       << '\n'
       << "nvm.hybrid_read_energy_per_byte="
       << fmtExact(cfg.nvm.hybrid_read_energy_per_byte) << '\n'
       << "nvm.hybrid_write_energy_per_byte="
       << fmtExact(cfg.nvm.hybrid_write_energy_per_byte) << '\n';

    os << "log.region_lines=" << cfg.log.region_lines << '\n'
       << "log.segment_bytes=" << cfg.log.segment_bytes << '\n'
       << "log.compaction_watermark="
       << fmtExact(cfg.log.compaction_watermark) << '\n';

    os << "core.compute_energy_per_insn="
       << fmtExact(cfg.core.compute_energy_per_insn) << '\n'
       << "core.leakage_watts=" << fmtExact(cfg.core.leakage_watts)
       << '\n';

    const PlatformParams &pf = cfg.platform;
    os << "platform.capacitance_f=" << fmtExact(pf.capacitance_f) << '\n'
       << "platform.vmin=" << fmtExact(pf.vmin) << '\n'
       << "platform.vmax=" << fmtExact(pf.vmax) << '\n'
       << "platform.von=" << fmtExact(pf.von) << '\n'
       << "platform.vbackup=" << fmtExact(pf.vbackup) << '\n'
       << "platform.harvest_efficiency="
       << fmtExact(pf.harvest_efficiency) << '\n'
       << "platform.wl_vbackup_base=" << fmtExact(pf.wl_vbackup_base)
       << '\n'
       << "platform.wl_vbackup_step=" << fmtExact(pf.wl_vbackup_step)
       << '\n'
       << "platform.wl_von_base=" << fmtExact(pf.wl_von_base) << '\n'
       << "platform.wl_von_step=" << fmtExact(pf.wl_von_step) << '\n'
       << "platform.wl_threshold_anchor=" << pf.wl_threshold_anchor
       << '\n'
       << "platform.nvff_energy_per_byte="
       << fmtExact(pf.nvff_energy_per_byte) << '\n'
       << "platform.nvff_restore_energy_per_byte="
       << fmtExact(pf.nvff_restore_energy_per_byte) << '\n'
       << "platform.reboot_latency_cycles="
       << pf.reboot_latency_cycles << '\n';

    os << "validate_consistency=" << cfg.validate_consistency << '\n'
       << "inject_checkpoint_skip=" << cfg.inject_checkpoint_skip
       << '\n'
       << "inject_register_skip=" << cfg.inject_register_skip << '\n'
       << "check_load_values=" << cfg.check_load_values << '\n'
       << "max_outages=" << cfg.max_outages << '\n'
       << "max_interval_rollups=" << cfg.max_interval_rollups << '\n';

    os << "forced_outage_cycles=";
    for (std::size_t i = 0; i < cfg.forced_outage_cycles.size(); ++i)
        os << (i ? "," : "") << cfg.forced_outage_cycles[i];
    os << '\n';
}

} // namespace nvp
} // namespace wlcache
