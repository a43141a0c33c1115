/**
 * @file
 * L1 instruction cache model. Instructions are read-only, so the
 * design space collapses to: where fetches are served from (SRAM,
 * NV array, or straight from NVM) and whether the contents survive a
 * power failure (non-volatile array or NVSRAM-style warm restore).
 * Fetches arrive as runs of sequential instructions, so the model
 * performs one tag lookup per line touched rather than per
 * instruction. The hit path is inline; a loop body already resident
 * can also be fetched many times over in closed form
 * (fetchResidentRepeated()).
 */

#ifndef WLCACHE_CACHE_ICACHE_HH
#define WLCACHE_CACHE_ICACHE_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "cache/cache_params.hh"
#include "cache/tag_array.hh"
#include "energy/energy_meter.hh"
#include "mem/nvm_memory.hh"
#include "sim/stats.hh"

namespace wlcache {

class SnapshotWriter;
class SnapshotReader;

namespace telemetry { class TimelineBuffer; }

namespace cache {

/** How the instruction path behaves across power failures. */
enum class ICacheKind
{
    None,        //!< No I-cache: stream lines from NVM (NVP baseline).
    Volatile,    //!< SRAM, cold after every outage.
    NonVolatile, //!< NV array, survives outages, slow/hot.
    WarmRestore, //!< NVSRAM-style: volatile at runtime, warm at boot.
};

/** Instruction fetch engine with an optional tag array behind it. */
class InstrCache
{
  public:
    /**
     * @param params Geometry/latency/energy (ignored for Kind::None).
     * @param kind Power-failure behaviour.
     * @param nvm Backing memory for line fills.
     * @param meter Energy meter (may be null).
     * @param restore_line_energy Per-line warm-restore energy.
     * @param restore_line_latency Per-line warm-restore cycles.
     */
    InstrCache(const CacheParams &params, ICacheKind kind,
               mem::NvmMemory &nvm, energy::EnergyMeter *meter,
               double restore_line_energy = 2.0e-9,
               Cycle restore_line_latency = 2);

    /**
     * Fetch @p count sequential 4-byte instructions starting at
     * @p pc, issued at cycle @p now.
     * @return cycle when the last instruction has been fetched.
     */
    Cycle
    fetchRun(Addr pc, unsigned count, Cycle now)
    {
        wlc_assert(count > 0);
        Cycle t = now;
        forEachChunk(pc, count, [&](Addr line_addr, unsigned n) {
            t = fetchLineChunk(line_addr, n, t);
            return true;
        });
        return t;
    }

    /**
     * True when every line fetchRun(@p pc, @p count, ...) would touch
     * is resident, so every chunk of it would hit. Changes no state.
     * Always false without a tag array (Kind::None).
     */
    bool
    runResident(Addr pc, unsigned count) const
    {
        if (kind_ == ICacheKind::None)
            return false;
        return forEachChunk(pc, count, [this](Addr line_addr, unsigned) {
            return tags_->lookup(line_addr).has_value();
        });
    }

    /**
     * Fetch the resident run (@p pc, @p count) @p reps times back to
     * back, in closed form. Requires runResident(pc, count). A hit
     * only touches (it never installs, so it evicts nothing), hence
     * the cycle, the statistics, the meter and the replacement clock
     * land exactly where @p reps fetchRun() calls would leave them.
     * The per-line recency stamps and MRU hints are left to the
     * caller's next fetchRun() of the same run, which writes exactly
     * the values the skipped fetches would have left behind.
     * @return cycle when the last instruction has been fetched.
     */
    Cycle fetchResidentRepeated(Addr pc, unsigned count,
                                std::uint64_t reps, Cycle now);

    /** Power failure: volatile contents disappear (kind dependent). */
    void powerLoss();

    /** Boot: warm restore when the kind supports it. */
    Cycle powerRestore(Cycle now);

    /** Leakage while powered on, watts. */
    double leakageWatts() const;

    ICacheKind kind() const { return kind_; }
    stats::StatGroup &statGroup() { return stat_group_; }

    /** Attach a telemetry timeline (null detaches); observational. */
    void setTimeline(telemetry::TimelineBuffer *tl) { tl_ = tl; }

    std::uint64_t fetches() const
    {
        return static_cast<std::uint64_t>(stat_fetches_.value());
    }
    std::uint64_t lineMisses() const
    {
        return static_cast<std::uint64_t>(stat_misses_.value());
    }

    /** Serialize tags (when present), warm image, and statistics. */
    void saveState(SnapshotWriter &w) const;

    /** Restore a state saved with saveState(). */
    void restoreState(SnapshotReader &r);

  private:
    struct SavedLine
    {
        Addr addr;
        std::vector<std::uint8_t> data;
    };

    /**
     * Split the run (@p pc, @p count) into per-line chunks and call
     * @p fn(line_addr, insns) on each in order, stopping early when it
     * returns false.
     * @return false when @p fn stopped the walk.
     */
    template <typename Fn>
    bool
    forEachChunk(Addr pc, unsigned count, Fn &&fn) const
    {
        const unsigned line_bytes =
            kind_ == ICacheKind::None ? 64u : params_.line_bytes;
        Addr addr = pc;
        unsigned left = count;
        while (left > 0) {
            const Addr line_addr =
                addr & ~static_cast<Addr>(line_bytes - 1);
            const unsigned off = static_cast<unsigned>(addr - line_addr);
            const unsigned fit = (line_bytes - off) / 4;
            const unsigned n = std::min(left, fit == 0 ? 1u : fit);
            if (!fn(line_addr, n))
                return false;
            addr += static_cast<Addr>(n) * 4;
            left -= n;
        }
        return true;
    }

    /** Fetch one chunk of @p insns instructions inside one line. */
    Cycle
    fetchLineChunk(Addr line_addr, unsigned insns, Cycle now)
    {
        if (kind_ != ICacheKind::None) {
            if (const auto ref = tags_->lookup(line_addr)) {
                stat_fetches_ += insns;
                ++stat_hits_;
                tags_->touch(*ref);
                if (meter_)
                    meter_->addAj(energy::EnergyCategory::CacheRead,
                                  hit_energy_aj_[insns]);
                // Issue rate: hit_latency cycles per instruction
                // (pipelined SRAM fetch sustains 1/cycle; NV arrays
                // sustain one every 2 cycles).
                return now + static_cast<Cycle>(insns) *
                    params_.hit_latency;
            }
        }
        return fetchLineMiss(line_addr, insns, now);
    }

    /** The chunk is not in a tag array: fill it, or stream it. */
    Cycle fetchLineMiss(Addr line_addr, unsigned insns, Cycle now);

    CacheParams params_;
    ICacheKind kind_;
    mem::NvmMemory &nvm_;
    energy::EnergyMeter *meter_;

    /**
     * Per-chunk energy costs quantized once at construction instead
     * of per chunk. hit_energy_aj_[n] is the CacheRead charge of an
     * n-instruction chunk (n <= max(1, line_bytes/4)), hit or miss:
     * toAttojoules(access_energy_read * n) plus, under LRU,
     * toAttojoules(lru_update_energy). Integer addition makes one
     * add of the sum identical to the two adds it replaces.
     */
    std::vector<energy::Attojoules> hit_energy_aj_;
    energy::Attojoules line_fill_aj_ = 0;
    telemetry::TimelineBuffer *tl_ = nullptr;
    std::unique_ptr<TagArray> tags_;
    double restore_line_energy_;
    Cycle restore_line_latency_;
    std::vector<SavedLine> warm_image_;

    stats::StatGroup stat_group_;
    stats::Scalar &stat_fetches_;
    stats::Scalar &stat_hits_;
    stats::Scalar &stat_misses_;
};

} // namespace cache
} // namespace wlcache

#endif // WLCACHE_CACHE_ICACHE_HH
