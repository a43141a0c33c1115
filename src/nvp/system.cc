#include "nvp/system.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "cache/replay_cache.hh"
#include "core/wl_log_cache.hh"
#include "cpu/register_file.hh"
#include "nvp/run_json.hh"
#include "sim/logging.hh"
#include "sim/snapshot.hh"
#include "sim/trace_log.hh"
#include "telemetry/timeline.hh"
#include "util/strings.hh"

#include <ostream>
#include <sstream>

namespace wlcache {
namespace nvp {

SystemSim::SystemSim(const SystemConfig &cfg,
                     const workloads::BuiltTrace &trace,
                     const energy::PowerTrace &power, bool infinite_power)
    : cfg_(cfg), trace_(trace),
      nvm_(std::make_unique<mem::NvmMemory>(cfg.nvm, &meter_)),
      cap_(cfg.platform.capacitance_f, cfg.platform.vmin,
           cfg.platform.vmax),
      harvester_(power, cfg.platform.harvest_efficiency, infinite_power)
{
    // Load the program's initial data image into NVM. The write
    // journal starts empty afterwards: every system built from the
    // same trace shares this baseline, so snapshots only need the
    // pages a run actually mutated.
    if (!trace_.initial_image.empty())
        nvm_->poke(trace_.image_base,
                   static_cast<unsigned>(trace_.initial_image.size()),
                   trace_.initial_image.data());
    nvm_->clearJournal();

    buildCaches();

    cpu::ICacheStreamParams icp;
    icp.code_bytes = trace_.info ? trace_.info->code_kb << 10
                                 : 12u << 10;
    icp.seed = trace_.seed ^
        std::hash<std::string>{}(trace_.name);
    cpu::ICacheStream stream(icp);
    core_ = std::make_unique<cpu::InOrderCore>(cfg_.core, *icache_,
                                               *dcache_, stream,
                                               &meter_);

    if (isWlFamily(cfg_.design)) {
        runtime_ = std::make_unique<core::AdaptiveRuntime>(
            cfg_.adaptive, cfg_.wl.maxline);
        if (cfg_.wl_dynamic) {
            wl_->enableDynamicAdaptation([this](double extra_j) {
                if (harvester_.infinite())
                    return true;
                // Raising maxline by one moves Vbackup up a step
                // (paper §4: dynamic adaptation raises Vbackup when
                // the capacitor can afford another line).
                const unsigned next_ml = wl_->maxline() + 1;
                const double v_next =
                    wlThresholds(cfg_.platform, next_ml).vbackup;
                const double c = cfg_.platform.capacitance_f;
                const double new_level = 0.5 * c * v_next * v_next;
                if (cap_.storedEnergy() > new_level + 4.0 * extra_j) {
                    backup_energy_level_ = new_level;
                    backup_level_aj_ = cap_.energyAjForVoltage(v_next);
                    vbackup_now_ = v_next;
                    return true;
                }
                return false;
            });
        }
    }

    if (cfg_.validate_consistency && !trace_.initial_image.empty())
        checker_.applyInit(trace_.image_base,
                           trace_.initial_image.data(),
                           static_cast<unsigned>(
                               trace_.initial_image.size()));

    // Registers, plus maxline/waterline for the adaptive runtime.
    nvff_ = std::make_unique<NvffStore>(
        cpu::RegisterFile::sizeBytes() +
            (runtime_ ? core::AdaptiveRuntime::kNvffBytes : 0),
        cfg_.platform.nvff_energy_per_byte,
        cfg_.platform.nvff_restore_energy_per_byte, &meter_);

    leak_watts_ = cfg_.core.leakage_watts + dcache_->leakageWatts() +
        icache_->leakageWatts();
    leak_aj_per_cycle_ =
        energy::toAttojoules(leak_watts_ * kSecondsPerCycle);
    tl_ = cfg_.timeline;
    attachTimeline();
    recomputeThresholds();

    // Resume-compatibility key: every configuration knob the captured
    // state depends on. The forced-outage schedule and the injection
    // flags are neutralized deliberately — they only *trigger* extra
    // behaviour at or after a scheduled point, so a golden run's
    // prefix snapshot resumes correctly into a point run. max_outages
    // is likewise prefix-invariant (it only decides when to give up).
    SystemConfig keyed = cfg_;
    keyed.forced_outage_cycles.clear();
    keyed.inject_checkpoint_skip = false;
    keyed.inject_register_skip = false;
    keyed.max_outages = 0;
    keyed.timeline = nullptr;
    // The two step modes are bit-identical by construction (integer
    // attojoule integration), so a snapshot taken under one resumes
    // under the other; the mode is neutralized out of the key.
    keyed.step_mode = StepMode::SkipAhead;
    std::ostringstream ks;
    dumpConfigKey(ks, keyed);
    ks << "trace=" << trace_.name << '\n'
       << "trace_seed=" << trace_.seed << '\n'
       << "trace_events=" << trace_.events.size() << '\n'
       << "infinite_power=" << (harvester_.infinite() ? 1 : 0) << '\n'
       << "power_period=" << power.samplePeriod() << '\n'
       << "power_hash=" << power.contentHash() << '\n'
       << "snapshot_format=" << SystemSnapshot::kFormatVersion << '\n';
    const std::string key_text = ks.str();
    snapshot_key_ = util::fnv1a128Hex(key_text.data(), key_text.size());
}

void
SystemSim::attachTimeline()
{
    nvm_->setTimeline(tl_);
    dcache_->setTimeline(tl_);
    icache_->setTimeline(tl_);
    core_->setTimeline(tl_);
    if (wllog_)
        wllog_->journal().setTimeline(tl_);
}

SystemSim::~SystemSim() = default;

void
SystemSim::buildCaches()
{
    const DesignRow &row = designRow(cfg_.design);
    dcache_ = row.make_dcache(cfg_, *nvm_, &meter_);
    icache_ = std::make_unique<cache::InstrCache>(
        cfg_.icache, row.icache, *nvm_, &meter_,
        cfg_.nvsram.restore_line_energy,
        cfg_.nvsram.restore_line_latency);

    // Typed views for the design-specific run-loop hooks.
    wl_ = dynamic_cast<core::WLCache *>(dcache_.get());
    wllog_ = dynamic_cast<core::WlLogCache *>(dcache_.get());
    replay_ = dynamic_cast<cache::ReplayCacheModel *>(dcache_.get());

    if (wllog_) {
        // The journal region is carved from the top of NVM: the
        // workload image must fit entirely below it.
        const Addr region_start = wllog_->journal().regionStart();
        const std::size_t image_size =
            std::max(trace_.initial_image.size(),
                     trace_.final_image.size());
        if (trace_.image_base + image_size > region_start) {
            fatal("WL-Log journal region [0x%llx..) overlaps the "
                  "workload image [0x%llx, 0x%llx): shrink "
                  "log.region_lines or grow nvm.size_bytes",
                  static_cast<unsigned long long>(region_start),
                  static_cast<unsigned long long>(trace_.image_base),
                  static_cast<unsigned long long>(trace_.image_base +
                                                  image_size));
        }
    }
}

double
SystemSim::reserveNeededJ() const
{
    return dcache_->checkpointEnergyBound() +
        nvff_->capacity() * cfg_.platform.nvff_energy_per_byte;
}

void
SystemSim::recomputeThresholds()
{
    von_now_ = cfg_.platform.von;
    switch (designRow(cfg_.design).thresholds) {
      case ThresholdRule::Static:
        vbackup_now_ = cfg_.platform.vbackup;
        break;
      case ThresholdRule::WorstCaseBackup:
        // NVSRAM sizes its threshold for the worst-case all-dirty
        // backup (paper §2.3.3): at the default 8 KB / 1 uF this
        // lands on Table 2's 3.1 V, and it scales with the array.
        vbackup_now_ = std::min(
            cfg_.platform.vmax,
            std::max(2.85, cap_.voltageForEnergyAbove(
                               cfg_.platform.vmin,
                               1.25 * reserveNeededJ())));
        break;
      case ThresholdRule::WlSchedule: {
        const Thresholds t = wlThresholds(cfg_.platform, wl_->maxline());
        vbackup_now_ = t.vbackup;
        von_now_ = t.von;
        break;
      }
    }
    const double c = cfg_.platform.capacitance_f;
    backup_energy_level_ = 0.5 * c * vbackup_now_ * vbackup_now_;
    backup_level_aj_ = cap_.energyAjForVoltage(vbackup_now_);

    WLC_TIMELINE(tl_, CapThreshold, now_, "system", 0, 0, vbackup_now_);
    WLC_TIMELINE(tl_, CapThreshold, now_, "system", 1, 0, von_now_);

    // Sanity: the reserved slice must cover the worst-case JIT
    // checkpoint. With voltage-divider thresholds this can become
    // infeasible for tiny capacitors (Figure 10b's left edge).
    const double vmin = cfg_.platform.vmin;
    const double reserve =
        backup_energy_level_ - 0.5 * c * vmin * vmin;
    if (reserve < reserveNeededJ() && !warned_reserve_) {
        warned_reserve_ = true;
        warn("%s: checkpoint reserve %.3g J below worst-case need "
             "%.3g J (capacitor too small for these thresholds)",
             designKindName(cfg_.design), reserve, reserveNeededJ());
    }
}

void
SystemSim::drawConsumedEnergy()
{
    const energy::Attojoules total = meter_.totalAj();
    const energy::Attojoules delta = total - last_meter_aj_;
    last_meter_aj_ = total;
    if (harvester_.infinite())
        return;
    cap_.drawAj(delta);
}

void
SystemSim::accountPassage(Cycle from, Cycle to)
{
    if (to <= from)
        return;
    const Cycle span = to - from;
    if (cfg_.step_mode == StepMode::Percycle) {
        // Reference path: one leakage add and one harvester step per
        // cycle. Integer attojoules make the sum exactly the batched
        // form below — the equivalence suite holds the two together.
        for (Cycle i = 0; i < span; ++i) {
            meter_.addAj(energy::EnergyCategory::Leakage,
                         leak_aj_per_cycle_);
            harvester_.advanceCycles(1, cap_);
        }
        return;
    }
    // Skip-ahead: integrate the whole span closed-form.
    meter_.addAj(energy::EnergyCategory::Leakage,
                 energy::scaleAttojoules(leak_aj_per_cycle_, span));
    harvester_.advanceCycles(span, cap_);
}

void
SystemSim::beginInterval()
{
    interval_start_cycle_ = now_;
    interval_instret_base_ = core_->instructionsRetired();
    interval_nvm_writes_base_ = nvm_->numWrites();
    interval_cleans_base_ = dcache_->cleaningsIssued();
    interval_harvest_base_ = harvester_.totalHarvested();
    dcache_->resetDirtyHighWater();
}

void
SystemSim::endInterval(double checkpoint_j)
{
    if (res_.intervals.size() <
        static_cast<std::size_t>(cfg_.max_interval_rollups)) {
        telemetry::IntervalRollup r;
        r.index = interval_index_;
        r.start_cycle = interval_start_cycle_;
        r.end_cycle = now_;
        r.instructions =
            core_->instructionsRetired() - interval_instret_base_;
        r.nvm_writes = nvm_->numWrites() - interval_nvm_writes_base_;
        r.cleans = dcache_->cleaningsIssued() - interval_cleans_base_;
        r.dirty_high_water = dcache_->dirtyHighWater();
        r.checkpoint_j = checkpoint_j;
        r.harvested_j =
            harvester_.totalHarvested() - interval_harvest_base_;
        res_.intervals.push_back(r);
    } else {
        ++res_.intervals_dropped;
    }
    ++interval_index_;
}

void
SystemSim::collectStatsJson()
{
    std::ostringstream ss;
    ss << "{\"dcache\":";
    dcache_->statGroup().dumpJson(ss);
    ss << ",\"icache\":";
    icache_->statGroup().dumpJson(ss);
    ss << ",\"core\":";
    core_->statGroup().dumpJson(ss);
    ss << ",\"nvm\":";
    nvm_->statGroup().dumpJson(ss);
    ss << '}';
    res_.stats_json = ss.str();
}

void
SystemSim::recordDivergence(const char *kind, std::uint64_t addr)
{
    res_.divergence = true;
    if (res_.has_first_divergence)
        return;
    res_.has_first_divergence = true;
    res_.first_divergence_kind = kind;
    res_.first_divergence_addr = addr;
    res_.first_divergence_cycle = now_;
    res_.first_divergence_outage = res_.outages;
}

void
SystemSim::checkConsistency()
{
    ++res_.consistency_checks;
    std::unordered_map<Addr, std::uint8_t> overlay;
    dcache_->collectPersistentOverlay(overlay);
    std::function<bool(Addr)> skip;
    if (replay_)
        // In-flight region: rewritten on re-execution.
        skip = [this](Addr a) {
            return region_dirty_bytes_.count(a) != 0;
        };
    const mem::StateDiff diff = checker_.diffState(*nvm_, overlay, skip);
    if (!diff.consistent()) {
        ++res_.consistency_violations;
        recordDivergence("nvm", diff.mismatches.front().addr);
    }
}

void
SystemSim::powerFail()
{
    ++res_.outages;
    WLC_DPRINTF(trace::kPower, now_, "system",
                "voltage hit Vbackup=%.3fV: outage #%llu",
                vbackup_now_,
                static_cast<unsigned long long>(res_.outages));
    WLC_TIMELINE(tl_, OutageBegin, now_, "system", res_.outages, 0,
                 cap_.voltage());
    const double ckpt_e0 = meter_.total();

    // JIT checkpoint: the design persists its bounded state, then the
    // registers (and, for WL-Cache, the runtime thresholds and the
    // two watchdog values) capture into their NVFFs in parallel.
    Cycle ckpt_done = cfg_.inject_checkpoint_skip
        ? now_ : dcache_->checkpoint(now_);
    const auto regs = core_->regs().snapshot();
    last_ckpt_regs_ = regs;      // what a correct restore must produce
    has_ckpt_regs_ = true;
    if (!cfg_.inject_register_skip)
        ckpt_done += nvff_->checkpoint(
            regs.data(), cpu::RegisterFile::sizeBytes());
    if (runtime_) {
        const std::uint8_t thresholds[2] = {
            static_cast<std::uint8_t>(wl_->maxline()),
            static_cast<std::uint8_t>(wl_->waterline()),
        };
        nvff_->checkpoint(thresholds, 2,
                          cpu::RegisterFile::sizeBytes());
        // (The watchdog history is maintained inside AdaptiveRuntime;
        // its 2 x 2 bytes live in the same bank.)
    }
    // Checkpoint-span leakage stays event-level in BOTH step modes:
    // the harvester clock is deliberately decoupled while the backup
    // runs (pre-existing modeling choice), so there is no per-cycle
    // state here for Percycle to step through.
    if (ckpt_done > now_)
        meter_.addAj(energy::EnergyCategory::Leakage,
                     energy::scaleAttojoules(leak_aj_per_cycle_,
                                             ckpt_done - now_));
    now_ = ckpt_done;
    drawConsumedEnergy();
    if (cap_.voltage() < cfg_.platform.vmin - 1e-6)
        ++res_.reserve_violations;
    endInterval(meter_.total() - ckpt_e0);

    const double t_on = cyclesToSeconds(now_ - boot_cycle_);

    // Volatile state is gone.
    dcache_->powerLoss();
    icache_->powerLoss();

    if (cfg_.validate_consistency)
        checkConsistency();

    // ReplayCache: roll back to the last committed region.
    if (replay_) {
        res_.replayed_events += idx_ - region_start_idx_;
        idx_ = region_start_idx_;
        if (region_stream_snapshot_)
            core_->restoreStream(*region_stream_snapshot_);
        region_dirty_bytes_.clear();
    }

    // The adaptive runtime decides the next interval's thresholds
    // from the NVFF-resident watchdog history before the system
    // sleeps, so the comparator charges toward the right Von (§4).
    if (runtime_) {
        const unsigned before = wl_->maxline();
        const unsigned m = runtime_->onBoot(t_on);
        if (m != before)
            WLC_DPRINTF(trace::kAdapt, now_, "runtime",
                        "T=%.1fus: maxline %u -> %u", t_on * 1e6,
                        before, m);
        WLC_TIMELINE(tl_, AdaptDecision, now_, "runtime", before, m,
                     t_on);
        if (cfg_.adaptive.enabled)
            wl_->setMaxline(m);
        else
            wl_->setMaxline(cfg_.wl.maxline);  // undo dynamic raises
        recomputeThresholds();
    }

    // Power-off: the capacitor keeps whatever the checkpoint did not
    // consume and recharges from there to Von.
    const double off =
        harvester_.chargeUntil(cap_, von_now_, 1.0e4, cfg_.step_mode);
    res_.off_seconds += off;
    WLC_DPRINTF(trace::kPower, now_, "system",
                "recharged to Von=%.3fV in %.1f us", von_now_,
                off * 1e6);
    if (cap_.voltage() < von_now_ * (1.0 - 1e-7)) {
        environment_dead_ = true;  // chargeUntil gave up
        return;
    }
    WLC_TIMELINE(tl_, OutageEnd, now_, "system", res_.outages, 0, off);
    nvm_->resetChannel();

    bootAndRestore();
}

void
SystemSim::bootAndRestore()
{
    const Cycle boot_start = now_;
    now_ += cfg_.platform.reboot_latency_cycles;
    Cycle t = dcache_->powerRestore(now_);
    t = icache_->powerRestore(t);
    std::array<std::uint32_t, cpu::RegisterFile::kNumRegs> regs{};
    t += nvff_->restore(regs.data(), cpu::RegisterFile::sizeBytes());
    core_->regs().restore(regs);
    WLC_TIMELINE(tl_, Restore, t, "nvff",
                 cpu::RegisterFile::sizeBytes(), t - boot_start);

    // Register-file differential: whatever the NVFF bank hands back
    // must equal the snapshot taken at the failure. Only this check
    // can see a lost register checkpoint — the NVM oracle cannot.
    if (has_ckpt_regs_) {
        for (unsigned i = 0; i < cpu::RegisterFile::kNumRegs; ++i) {
            if (regs[i] != last_ckpt_regs_[i]) {
                ++res_.register_restore_mismatches;
                recordDivergence("register", i);
            }
        }
    }
    // Boot/restore-span leakage: event-level in both modes, like the
    // checkpoint span above.
    meter_.addAj(energy::EnergyCategory::Leakage,
                 energy::scaleAttojoules(leak_aj_per_cycle_,
                                         t - boot_start));
    now_ = t;
    drawConsumedEnergy();
    boot_cycle_ = now_;
    beginInterval();
}

bool
SystemSim::finalCheck()
{
    const std::size_t size = trace_.final_image.size();
    std::uint8_t buf[4096];
    std::size_t off = 0;
    while (off < size) {
        const unsigned chunk = static_cast<unsigned>(
            std::min<std::size_t>(sizeof(buf), size - off));
        nvm_->peek(trace_.image_base + off, chunk, buf);
        if (std::memcmp(buf, trace_.final_image.data() + off, chunk) !=
            0) {
            for (unsigned i = 0; i < chunk; ++i) {
                if (buf[i] != trace_.final_image[off + i]) {
                    recordDivergence("final",
                                     trace_.image_base + off + i);
                    break;
                }
            }
            return false;
        }
        off += chunk;
    }
    return true;
}

void
SystemSim::computeFinalDigest()
{
    // Digest the image region as the *persistent* state sees it: raw
    // NVM with the design's surviving overlay (e.g.\ NV cache lines)
    // applied on top. An interrupted run digests whatever state a
    // next boot would observe.
    const std::size_t size = std::max(trace_.initial_image.size(),
                                      trace_.final_image.size());
    if (size == 0 || trace_.image_base + size > nvm_->sizeBytes()) {
        res_.final_state_digest = util::fnv1a128Hex(nullptr, 0);
        return;
    }
    std::vector<std::uint8_t> img =
        nvm_->snapshotRange(trace_.image_base, size);
    std::unordered_map<Addr, std::uint8_t> overlay;
    dcache_->collectPersistentOverlay(overlay);
    for (const auto &[addr, byte] : overlay) {
        if (addr >= trace_.image_base &&
            addr < trace_.image_base + size)
            img[addr - trace_.image_base] = byte;
    }
    res_.final_state_digest = util::fnv1a128Hex(img.data(), img.size());
}

SystemSnapshot
SystemSim::takeSnapshot() const
{
    SnapshotWriter w;
    w.section("SYSH");
    w.u32(SystemSnapshot::kFormatVersion);
    w.u64(now_);
    w.u64(idx_);
    saveRunResult(w, res_);
    meter_.saveState(w);
    cap_.saveState(w);
    harvester_.saveState(w);
    nvm_->saveState(w);
    dcache_->saveState(w);
    icache_->saveState(w);
    core_->saveState(w);
    w.b(runtime_ != nullptr);
    if (runtime_)
        runtime_->saveState(w);
    nvff_->saveState(w);
    checker_.saveState(w);
    w.section("SYS2");
    w.u64(now_);
    w.u64(boot_cycle_);
    w.u64(last_meter_aj_);
    w.f64(backup_energy_level_);
    w.u64(backup_level_aj_);
    w.f64(vbackup_now_);
    w.f64(von_now_);
    w.b(environment_dead_);
    w.b(warned_reserve_);
    w.u64(interval_index_);
    w.u64(interval_start_cycle_);
    w.u64(interval_instret_base_);
    w.u64(interval_nvm_writes_base_);
    w.u64(interval_cleans_base_);
    w.f64(interval_harvest_base_);
    w.u64(forced_idx_);
    for (const std::uint32_t v : last_ckpt_regs_)
        w.u32(v);
    w.b(has_ckpt_regs_);
    w.u64(idx_);
    w.u64(region_start_idx_);
    w.b(region_stream_snapshot_ != nullptr);
    if (region_stream_snapshot_)
        region_stream_snapshot_->saveState(w);
    std::vector<Addr> dirty(region_dirty_bytes_.begin(),
                            region_dirty_bytes_.end());
    std::sort(dirty.begin(), dirty.end());
    w.u64(dirty.size());
    for (const Addr a : dirty)
        w.u64(a);

    SystemSnapshot snap;
    snap.compat_key = snapshot_key_;
    snap.cycle = now_;
    snap.event_index = idx_;
    snap.state = w.take();
    return snap;
}

void
SystemSim::restoreSnapshot(const SystemSnapshot &snap)
{
    wlc_assert(snap.valid(), "cannot restore an empty snapshot");
    wlc_assert(snap.compat_key == snapshot_key_,
               "snapshot resume-compatibility key mismatch "
               "(%s vs this system's %s)",
               snap.compat_key.c_str(), snapshot_key_.c_str());
    SnapshotReader r(snap.state);
    r.section("SYSH");
    const std::uint32_t ver = r.u32();
    wlc_assert(ver == SystemSnapshot::kFormatVersion,
               "unsupported snapshot format version %u", ver);
    const Cycle header_cycle = r.u64();
    const std::uint64_t header_idx = r.u64();
    wlc_assert(header_cycle == snap.cycle &&
                   header_idx == snap.event_index,
               "snapshot header disagrees with its metadata");
    restoreRunResult(r, res_);
    meter_.restoreState(r);
    cap_.restoreState(r);
    harvester_.restoreState(r);
    nvm_->restoreState(r);
    dcache_->restoreState(r);
    icache_->restoreState(r);
    core_->restoreState(r);
    const bool has_rt = r.b();
    wlc_assert(has_rt == (runtime_ != nullptr),
               "snapshot adaptive-runtime presence mismatch");
    if (runtime_)
        runtime_->restoreState(r);
    nvff_->restoreState(r);
    checker_.restoreState(r);
    r.section("SYS2");
    now_ = r.u64();
    boot_cycle_ = r.u64();
    last_meter_aj_ = r.u64();
    backup_energy_level_ = r.f64();
    backup_level_aj_ = r.u64();
    vbackup_now_ = r.f64();
    von_now_ = r.f64();
    environment_dead_ = r.b();
    warned_reserve_ = r.b();
    interval_index_ = r.u64();
    interval_start_cycle_ = r.u64();
    interval_instret_base_ = r.u64();
    interval_nvm_writes_base_ = r.u64();
    interval_cleans_base_ = r.u64();
    interval_harvest_base_ = r.f64();
    forced_idx_ = static_cast<std::size_t>(r.u64());
    for (std::uint32_t &v : last_ckpt_regs_)
        v = r.u32();
    has_ckpt_regs_ = r.b();
    idx_ = static_cast<std::size_t>(r.u64());
    region_start_idx_ = static_cast<std::size_t>(r.u64());
    if (r.b()) {
        if (!region_stream_snapshot_)
            region_stream_snapshot_ =
                std::make_unique<cpu::ICacheStream>(
                    core_->streamSnapshot());
        region_stream_snapshot_->restoreState(r);
    } else {
        region_stream_snapshot_.reset();
    }
    region_dirty_bytes_.clear();
    const std::uint64_t n_dirty = r.u64();
    region_dirty_bytes_.reserve(n_dirty);
    for (std::uint64_t i = 0; i < n_dirty; ++i)
        region_dirty_bytes_.insert(r.u64());
    wlc_assert(r.atEnd(), "trailing bytes after snapshot restore");
}

RunResult
SystemSim::run()
{
    return run(RunOptions{});
}

RunResult
SystemSim::run(const RunOptions &opts)
{
    if (opts.resume) {
        restoreSnapshot(*opts.resume);
        WLC_TIMELINE(tl_, SnapshotResume, now_, "system", idx_,
                     res_.outages);
    } else {
        res_ = RunResult{};
        res_.workload = trace_.name;
        res_.design = cfg_.design;
        res_.trace_events = trace_.events.size();

        // Initial charge-up to the restore voltage.
        if (harvester_.infinite()) {
            cap_.setVoltage(cfg_.platform.vmax);
        } else {
            res_.off_seconds += harvester_.chargeUntil(
                cap_, von_now_, 1.0e4, cfg_.step_mode);
            if (cap_.voltage() < von_now_ * (1.0 - 1e-7)) {
                res_.completed = false;
                return res_;
            }
        }
        boot_cycle_ = now_ = 0;
        idx_ = 0;
        region_start_idx_ = 0;
        forced_idx_ = 0;
        has_ckpt_regs_ = false;
        interval_index_ = 0;
        beginInterval();
        if (replay_)
            region_stream_snapshot_ =
                std::make_unique<cpu::ICacheStream>(
                    core_->streamSnapshot());
    }

    const std::size_t n = trace_.events.size();
    const bool failures_possible = !harvester_.infinite();
    Cycle next_snap = 0;
    if (opts.snapshot_interval)
        next_snap = (now_ / opts.snapshot_interval + 1) *
            opts.snapshot_interval;

    while (idx_ < n) {
        if (opts.snapshot_interval && now_ >= next_snap) {
            SystemSnapshot s = takeSnapshot();
            WLC_TIMELINE(tl_, SnapshotTaken, now_, "system", idx_,
                         s.state.size());
            if (opts.snapshot_sink)
                opts.snapshot_sink(std::move(s));
            next_snap = (now_ / opts.snapshot_interval + 1) *
                opts.snapshot_interval;
        }
        const MemAccess &ev = trace_.events[idx_];
        std::uint64_t load_val = 0;
        const Cycle end = core_->executeEvent(ev, now_, &load_val);

        if (cfg_.check_load_values && ev.op == MemOp::Load && !replay_) {
            // Mask to the access width before comparing.
            const std::uint64_t mask = ev.size >= 8
                ? ~0ull : ((1ull << (8 * ev.size)) - 1);
            if ((load_val & mask) != (ev.value & mask)) {
                ++res_.load_value_mismatches;
                recordDivergence("load", ev.addr);
            }
        }
        if (cfg_.validate_consistency && ev.op == MemOp::Store) {
            checker_.applyStore(ev.addr, ev.size, ev.value);
            if (replay_)
                for (unsigned i = 0; i < ev.size; ++i)
                    region_dirty_bytes_.insert(ev.addr + i);
        }

        accountPassage(now_, end);
        now_ = end;
        drawConsumedEnergy();
        ++idx_;

        // ReplayCache region boundary: drain persists, commit.
        if (replay_ &&
            idx_ - region_start_idx_ >= cfg_.replay.region_events) {
            const Cycle t = replay_->regionBoundary(now_);
            accountPassage(now_, t);
            now_ = t;
            drawConsumedEnergy();
            region_start_idx_ = idx_;
            region_stream_snapshot_ =
                std::make_unique<cpu::ICacheStream>(
                    core_->streamSnapshot());
            region_dirty_bytes_.clear();
        }

        // Power failure: either the capacitor drained to Vbackup or a
        // forced-outage schedule point was reached. Forced points
        // fire exactly once each, at the first event boundary at or
        // after the requested cycle — they work under infinite power
        // too, which is how verification campaigns make the forced
        // point the only outage of a run.
        // The outage comparator works on quantized energies, so both
        // step modes see the threshold crossing at the same event.
        bool want_fail = failures_possible &&
            cap_.storedAj() <= backup_level_aj_;
        if (forced_idx_ < cfg_.forced_outage_cycles.size() &&
            now_ >= cfg_.forced_outage_cycles[forced_idx_]) {
            ++forced_idx_;
            ++res_.forced_outages;
            want_fail = true;
        }
        if (want_fail) {
            powerFail();
            if (res_.outages >= cfg_.max_outages ||
                environment_dead_) {
                res_.completed = false;
                break;
            }
        }
    }

    if (idx_ >= n) {
        // Graceful completion: flush all dirty state.
        const Cycle t = dcache_->drainAndFlush(now_);
        accountPassage(now_, t);
        now_ = t;
        drawConsumedEnergy();
        endInterval(0.0);
        res_.completed = true;
        res_.final_state_correct = finalCheck();
    }
    computeFinalDigest();

    // --- Collect statistics ---
    res_.on_cycles = now_;
    res_.total_seconds = cyclesToSeconds(now_) + res_.off_seconds;
    res_.instructions = core_->instructionsRetired();
    res_.meter = meter_;
    res_.nvm_writes = nvm_->numWrites();
    res_.nvm_reads = nvm_->numReads();
    res_.nvm_bytes_written = nvm_->bytesWritten();
    res_.nvm_bank_conflicts = nvm_->bankConflicts();
    res_.nvm_queue_stall_cycles = nvm_->queueStallCycles();
    res_.nvm_turnaround_stall_cycles =
        nvm_->turnaroundStallCycles();
    res_.nvm_wear_max = nvm_->wearMax();
    res_.nvm_wear_lines_touched = nvm_->wearLinesTouched();
    res_.nvm_lifetime_headroom = nvm_->lifetimeHeadroom();
    res_.nvm_write_p99_latency = nvm_->writeLatencyP99();
    res_.nvm_row_hits = nvm_->rowHits();
    res_.nvm_row_misses = nvm_->rowMisses();
    if (wllog_) {
        const mem::NvmJournalStats &js = wllog_->journal().stats();
        res_.log_appended_records = js.appends;
        res_.log_appended_bytes = js.append_bytes;
        res_.log_replays = js.replays;
        res_.log_replayed_records = js.replay_records;
        res_.log_replayed_bytes = js.replay_bytes;
        res_.log_compactions = js.compactions;
        res_.log_compacted_lines = js.compacted_lines;
        res_.log_compacted_bytes = js.compacted_bytes;
        res_.log_live_lines = wllog_->journal().liveLines();
    }
    collectStatsJson();

    // Derived ratios must stay finite: a dead trace or a zero-outage
    // run can hand back 0/0 or x/0 here, and a NaN/Inf would poison
    // the run's JSON record (and through it the result cache).
    const auto finite_or = [](double v, double fallback) {
        return std::isfinite(v) ? v : fallback;
    };

    const auto &cs = dcache_->stats();
    const double loads = std::max(1.0, cs.loads.value());
    const double stores = std::max(1.0, cs.stores.value());
    res_.dcache_load_hit_rate =
        finite_or(cs.load_hits.value() / loads, 0.0);
    res_.dcache_store_hit_rate =
        finite_or(cs.store_hits.value() / stores, 0.0);
    res_.store_stall_cycles =
        static_cast<std::uint64_t>(cs.stall_cycles.value());

    if (wl_ && runtime_) {
        res_.reconfigurations = runtime_->reconfigurations();
        res_.maxline_min_seen = runtime_->observedMaxlineMin();
        res_.maxline_max_seen = runtime_->observedMaxlineMax();
        res_.prediction_accuracy =
            finite_or(runtime_->predictionAccuracy(), 1.0);
        res_.avg_dirty_at_ckpt =
            finite_or(wl_->wlStats().dirty_at_ckpt.mean(), 0.0);
        res_.dyn_maxline_raises = static_cast<std::uint64_t>(
            wl_->wlStats().dyn_maxline_raises.value());
        if (res_.outages > 0)
            res_.writebacks_per_on_period = finite_or(
                wl_->wlStats().cleanings.value() /
                    static_cast<double>(res_.outages),
                0.0);
    }
    return res_;
}

void
SystemSim::dumpStats(std::ostream &os) const
{
    dcache_->statGroup().dump(os, "system");
    icache_->statGroup().dump(os, "system");
    core_->statGroup().dump(os, "system");
    nvm_->statGroup().dump(os, "system");
}

} // namespace nvp
} // namespace wlcache
