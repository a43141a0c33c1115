/**
 * @file
 * The NVP whole-system simulator: boots the platform, replays a
 * workload trace through the core and the configured cache design,
 * integrates harvested and consumed energy against the capacitor,
 * fires JIT checkpoints when the stored energy falls to the Vbackup
 * level, recharges through power-off periods, restores at Von, and
 * runs the adaptive WL-Cache runtime at every reboot. Optionally
 * verifies crash consistency at every recovery point and at program
 * completion.
 */

#ifndef WLCACHE_NVP_SYSTEM_HH
#define WLCACHE_NVP_SYSTEM_HH

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <unordered_set>

#include "cache/cache_iface.hh"
#include "cache/icache.hh"
#include "core/adaptive_runtime.hh"
#include "core/wl_cache.hh"
#include "cpu/inorder_core.hh"
#include "energy/capacitor.hh"
#include "energy/energy_meter.hh"
#include "energy/harvester.hh"
#include "mem/nvm_memory.hh"
#include "mem/persist_checker.hh"
#include "nvp/nvff.hh"
#include "nvp/snapshot.hh"
#include "nvp/system_config.hh"
#include "telemetry/rollup.hh"
#include "workloads/workloads.hh"

namespace wlcache {

namespace core { class WlLogCache; }

namespace nvp {

/** Everything a run reports (feeds every figure in the paper). */
struct RunResult
{
    std::string workload;
    DesignKind design = DesignKind::WL;
    bool completed = false;

    // --- Time ---
    std::uint64_t on_cycles = 0;     //!< Cycles while powered.
    double off_seconds = 0.0;        //!< Recharge time.
    double total_seconds = 0.0;      //!< On + off wall-clock.

    // --- Progress ---
    std::uint64_t instructions = 0;
    std::uint64_t trace_events = 0;
    std::uint64_t replayed_events = 0;  //!< Re-executed (ReplayCache).

    // --- Power failures ---
    std::uint64_t outages = 0;
    std::uint64_t reserve_violations = 0;

    // --- Energy (joules, by category) ---
    energy::EnergyMeter meter;

    // --- Memory traffic ---
    std::uint64_t nvm_writes = 0;
    std::uint64_t nvm_bytes_written = 0;
    std::uint64_t nvm_reads = 0;

    // --- NVM device model (mem/device/) ---
    /** Accesses gated by pending bank work. */
    std::uint64_t nvm_bank_conflicts = 0;
    /** Cycles stalled on a full bank queue (back-pressure). */
    std::uint64_t nvm_queue_stall_cycles = 0;
    /** Cycles reads waited out write-to-read turnaround (tWTR). */
    std::uint64_t nvm_turnaround_stall_cycles = 0;
    /** Highest per-line write count (0 unless nvm.track_wear). */
    std::uint64_t nvm_wear_max = 0;
    /** Distinct wear lines written (0 unless nvm.track_wear). */
    std::uint64_t nvm_wear_lines_touched = 0;
    /** Write budget left on the most-worn line (min-line headroom). */
    std::uint64_t nvm_lifetime_headroom = 0;
    /** p99 write latency in cycles from the log2 histogram. */
    double nvm_write_p99_latency = 0.0;
    /** Row-buffer hits (banked model; 0 under the legacy model). */
    std::uint64_t nvm_row_hits = 0;
    /** Row-buffer misses (activations) under the banked model. */
    std::uint64_t nvm_row_misses = 0;

    // --- NVM journal (mem/log/, WL-Log only; all 0 otherwise) ---
    std::uint64_t log_appended_records = 0;
    std::uint64_t log_appended_bytes = 0;
    std::uint64_t log_replays = 0;          //!< Boot replay scans.
    std::uint64_t log_replayed_records = 0;
    std::uint64_t log_replayed_bytes = 0;
    std::uint64_t log_compactions = 0;      //!< Segments reclaimed.
    std::uint64_t log_compacted_lines = 0;
    std::uint64_t log_compacted_bytes = 0;
    /** Lines still journal-resident at end of run. */
    std::uint64_t log_live_lines = 0;

    // --- Cache behaviour ---
    double dcache_load_hit_rate = 0.0;
    double dcache_store_hit_rate = 0.0;
    std::uint64_t store_stall_cycles = 0;

    // --- WL-Cache adaptive statistics (paper §6.6) ---
    unsigned reconfigurations = 0;
    unsigned maxline_min_seen = 0;
    unsigned maxline_max_seen = 0;
    double prediction_accuracy = 1.0;
    double avg_dirty_at_ckpt = 0.0;
    double writebacks_per_on_period = 0.0;
    std::uint64_t dyn_maxline_raises = 0;

    // --- Consistency oracle ---
    std::uint64_t consistency_checks = 0;
    std::uint64_t consistency_violations = 0;
    std::uint64_t load_value_mismatches = 0;
    bool final_state_correct = false;

    // --- Verification campaigns (src/verify/) ---
    /** Forced-outage schedule points that actually fired. */
    std::uint64_t forced_outages = 0;
    /** Registers whose post-boot value differed from the snapshot. */
    std::uint64_t register_restore_mismatches = 0;
    /** Any oracle (NVM diff, load value, register, final image) fired. */
    bool divergence = false;
    bool has_first_divergence = false;
    /** Oracle that saw the first divergence: nvm/load/register/final. */
    std::string first_divergence_kind;
    /** Byte address (or register index for kind=register) of it. */
    std::uint64_t first_divergence_addr = 0;
    std::uint64_t first_divergence_cycle = 0;
    /** Outage count when the first divergence was observed. */
    std::uint64_t first_divergence_outage = 0;
    /**
     * FNV-1a-128 digest of the persistent image region (NVM with the
     * design's persistent overlay applied) at end of run. Two runs
     * ending in the same persistent state produce equal digests, so a
     * campaign can diff faulted runs against the golden run cheaply.
     */
    std::string final_state_digest;

    // --- Telemetry (src/telemetry/) ---
    /**
     * Compact-JSON dump of every component StatGroup (scalars plus
     * distribution buckets), as produced by stats::StatGroup::dumpJson.
     * Always a valid JSON object; "{}" until a run fills it.
     */
    std::string stats_json = "{}";
    /**
     * Per-power-interval rollups, one per completed power-on interval
     * (including the final, gracefully-completed one), capped at
     * SystemConfig::max_interval_rollups.
     */
    std::vector<telemetry::IntervalRollup> intervals;
    /** Intervals not stored because the rollup cap was hit. */
    std::uint64_t intervals_dropped = 0;

    bool operator==(const RunResult &) const = default;
};

/** Optional run-loop controls: snapshot capture and resume. */
struct RunOptions
{
    /**
     * Resume from this snapshot instead of booting cold (null runs
     * cold). The snapshot's compat_key must match this system's.
     */
    const SystemSnapshot *resume = nullptr;

    /**
     * Capture a snapshot at the first event boundary at or past every
     * multiple of this many cycles (0 = never).
     */
    Cycle snapshot_interval = 0;

    /** Receives each interval snapshot (unset discards them). */
    std::function<void(SystemSnapshot &&)> snapshot_sink;
};

/** One simulated system instance bound to a workload and a trace. */
class SystemSim
{
  public:
    /**
     * @param cfg Full system configuration.
     * @param trace Recorded workload execution to replay.
     * @param power Ambient power waveform.
     * @param infinite_power No-failure mode (Figure 4).
     */
    SystemSim(const SystemConfig &cfg,
              const workloads::BuiltTrace &trace,
              const energy::PowerTrace &power,
              bool infinite_power = false);

    ~SystemSim();

    /** Run the workload to completion (or until max_outages). */
    RunResult run();

    /** Run with snapshot/resume controls. */
    RunResult run(const RunOptions &opts);

    /**
     * Capture the complete deterministic run state. Only meaningful
     * at an event-loop boundary (between executed trace events);
     * resuming from the result is observationally identical to cold
     * execution of the same prefix.
     */
    SystemSnapshot takeSnapshot() const;

    /**
     * Restore a state captured by takeSnapshot() on a system built
     * from a resume-compatible configuration and the same trace.
     * Panics on a compat-key or format mismatch.
     */
    void restoreSnapshot(const SystemSnapshot &snap);

    /** Access the data cache (tests). */
    cache::DataCache &dcache() { return *dcache_; }

    /** Access the core (tests: register-file comparison). */
    const cpu::InOrderCore &core() const { return *core_; }

    /** Access the WL cache when the design is WL-family (else null). */
    core::WLCache *wlCache() { return wl_; }

    /** The backing NVM (tests). */
    mem::NvmMemory &nvm() { return *nvm_; }

    /** NVFF register/threshold backup bank (tests). */
    const NvffStore &nvff() const { return *nvff_; }

    /** Dump every component's statistics in gem5 style. */
    void dumpStats(std::ostream &os) const;

  private:
    void buildCaches();
    double reserveNeededJ() const;
    void recomputeThresholds();
    void drawConsumedEnergy();
    void accountPassage(Cycle from, Cycle to);
    void powerFail();
    void bootAndRestore();
    void checkConsistency();
    bool finalCheck();
    void recordDivergence(const char *kind, std::uint64_t addr);
    void computeFinalDigest();
    void attachTimeline();
    void beginInterval();
    void endInterval(double checkpoint_j);
    void collectStatsJson();

    const SystemConfig cfg_;
    const workloads::BuiltTrace &trace_;
    std::string snapshot_key_;

    energy::EnergyMeter meter_;
    std::unique_ptr<mem::NvmMemory> nvm_;
    std::unique_ptr<cache::DataCache> dcache_;
    std::unique_ptr<cache::InstrCache> icache_;
    std::unique_ptr<cpu::InOrderCore> core_;
    core::WLCache *wl_ = nullptr;          //!< Non-owning view.
    core::WlLogCache *wllog_ = nullptr;    //!< Non-owning (WLLog only).
    cache::ReplayCacheModel *replay_ = nullptr;
    std::unique_ptr<core::AdaptiveRuntime> runtime_;
    std::unique_ptr<NvffStore> nvff_;
    energy::Capacitor cap_;
    energy::Harvester harvester_;
    mem::PersistChecker checker_;

    RunResult res_;
    Cycle now_ = 0;
    Cycle boot_cycle_ = 0;
    /** meter_.totalAj() at the last drawConsumedEnergy(). */
    energy::Attojoules last_meter_aj_ = 0;
    double backup_energy_level_ = 0.0;  //!< Stored-energy Vbackup level.
    /** Quantized Vbackup level driving the outage comparator. */
    energy::Attojoules backup_level_aj_ = 0;
    double vbackup_now_ = 0.0;          //!< Active Vbackup threshold.
    double von_now_ = 0.0;              //!< Active restore voltage.
    double leak_watts_ = 0.0;
    /** Quantized per-cycle leakage (both step modes integrate this). */
    energy::Attojoules leak_aj_per_cycle_ = 0;
    bool environment_dead_ = false;
    bool warned_reserve_ = false;

    // Telemetry: interval-rollup baselines captured at each boot.
    telemetry::TimelineBuffer *tl_ = nullptr;  //!< == cfg_.timeline.
    std::uint64_t interval_index_ = 0;
    Cycle interval_start_cycle_ = 0;
    std::uint64_t interval_instret_base_ = 0;
    std::uint64_t interval_nvm_writes_base_ = 0;
    std::uint64_t interval_cleans_base_ = 0;
    double interval_harvest_base_ = 0.0;

    // Forced-outage schedule and register-differential state.
    std::size_t forced_idx_ = 0;       //!< Next forced point to fire.
    std::array<std::uint32_t, cpu::RegisterFile::kNumRegs>
        last_ckpt_regs_{};             //!< Regs at last power failure.
    bool has_ckpt_regs_ = false;

    // ReplayCache region rollback state.
    std::size_t idx_ = 0;
    std::size_t region_start_idx_ = 0;
    std::unique_ptr<cpu::ICacheStream> region_stream_snapshot_;
    std::unordered_set<Addr> region_dirty_bytes_;
};

} // namespace nvp
} // namespace wlcache

#endif // WLCACHE_NVP_SYSTEM_HH
