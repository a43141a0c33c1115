#include "cache/icache.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/snapshot.hh"
#include "telemetry/timeline.hh"

namespace wlcache {
namespace cache {

InstrCache::InstrCache(const CacheParams &params, ICacheKind kind,
                       mem::NvmMemory &nvm, energy::EnergyMeter *meter,
                       double restore_line_energy,
                       Cycle restore_line_latency)
    : params_(params), kind_(kind), nvm_(nvm), meter_(meter),
      restore_line_energy_(restore_line_energy),
      restore_line_latency_(restore_line_latency),
      stat_group_("icache"),
      stat_fetches_(
          stat_group_.addScalar("fetches", "instructions fetched")),
      stat_hits_(stat_group_.addScalar("line_hits", "line-chunk hits")),
      stat_misses_(stat_group_.addScalar("line_misses", "line fills"))
{
    if (kind_ != ICacheKind::None) {
        tags_ = std::make_unique<TagArray>(params_);
        // A line narrower than one instruction still fetches
        // one-instruction chunks (see forEachChunk()).
        const unsigned max_insns = std::max(1u, params_.line_bytes / 4);
        const energy::Attojoules lru_aj =
            params_.repl == ReplPolicy::LRU
                ? energy::toAttojoules(params_.lru_update_energy)
                : 0;
        hit_energy_aj_.reserve(max_insns + 1);
        for (unsigned n = 0; n <= max_insns; ++n)
            hit_energy_aj_.push_back(
                energy::toAttojoules(params_.access_energy_read *
                                     static_cast<double>(n)) +
                lru_aj);
        line_fill_aj_ = energy::toAttojoules(params_.line_fill_energy);
    }
}

Cycle
InstrCache::fetchLineMiss(Addr line_addr, unsigned insns, Cycle now)
{
    stat_fetches_ += insns;

    if (kind_ == ICacheKind::None) {
        // Stream the line from NVM, then issue at one per cycle.
        const auto res =
            nvm_.read(line_addr, params_.line_bytes, now, nullptr);
        return res.ready + insns;
    }

    ++stat_misses_;
    LineRef victim = tags_->victim(line_addr);
    if (tags_->valid(victim))
        tags_->invalidate(victim);
    const auto res = nvm_.read(line_addr, params_.line_bytes,
                               now + params_.miss_lookup_latency,
                               nullptr);
    tags_->install(victim, line_addr, nullptr);
    if (meter_) {
        meter_->addAj(energy::EnergyCategory::CacheWrite, line_fill_aj_);
        meter_->addAj(energy::EnergyCategory::CacheRead,
                      hit_energy_aj_[insns]);
    }
    return res.ready + static_cast<Cycle>(insns) * params_.hit_latency;
}

Cycle
InstrCache::fetchResidentRepeated(Addr pc, unsigned count,
                                  std::uint64_t reps, Cycle now)
{
    wlc_assert(count > 0 && runResident(pc, count));
    std::uint64_t chunks = 0;
    energy::Attojoules aj = 0;
    forEachChunk(pc, count, [&](Addr, unsigned n) {
        ++chunks;
        aj += hit_energy_aj_[n];
        return true;
    });
    stat_fetches_ += reps * count;
    stat_hits_ += reps * chunks;
    tags_->skipTouches(reps * chunks);
    if (meter_)
        meter_->addAj(energy::EnergyCategory::CacheRead, reps * aj);
    return now + reps * count * params_.hit_latency;
}

void
InstrCache::powerLoss()
{
    switch (kind_) {
      case ICacheKind::None:
      case ICacheKind::NonVolatile:
        break;
      case ICacheKind::Volatile:
        tags_->invalidateAll();
        break;
      case ICacheKind::WarmRestore:
        // Snapshot the (clean) image into the NV counterpart; the
        // ideal NVSRAM design pays nothing for clean lines.
        warm_image_.clear();
        tags_->forEachValidLine([this](LineRef ref, Addr laddr, bool) {
            SavedLine sl;
            sl.addr = laddr;
            sl.data.assign(tags_->data(ref),
                           tags_->data(ref) + tags_->lineBytes());
            warm_image_.push_back(std::move(sl));
        });
        tags_->invalidateAll();
        break;
    }
}

Cycle
InstrCache::powerRestore(Cycle now)
{
    if (kind_ != ICacheKind::WarmRestore || warm_image_.empty())
        return now;
    Cycle t = now;
    for (const auto &sl : warm_image_) {
        LineRef victim = tags_->victim(sl.addr);
        if (tags_->valid(victim))
            tags_->invalidate(victim);
        tags_->install(victim, sl.addr, sl.data.data());
        t += restore_line_latency_;
        if (meter_)
            meter_->add(energy::EnergyCategory::Restore,
                        restore_line_energy_);
    }
    WLC_TIMELINE(tl_, Restore, now, "icache", warm_image_.size(),
                 t - now);
    warm_image_.clear();
    return t;
}

double
InstrCache::leakageWatts() const
{
    return kind_ == ICacheKind::None ? 0.0 : params_.leakage_watts;
}

void
InstrCache::saveState(SnapshotWriter &w) const
{
    w.section("IC  ");
    w.b(tags_ != nullptr);
    if (tags_)
        tags_->saveState(w);
    w.u64(warm_image_.size());
    for (const SavedLine &sl : warm_image_) {
        w.u64(sl.addr);
        w.vecU8(sl.data);
    }
    stat_group_.saveState(w);
}

void
InstrCache::restoreState(SnapshotReader &r)
{
    r.section("IC  ");
    const bool has_tags = r.b();
    wlc_assert(has_tags == (tags_ != nullptr),
               "icache snapshot kind mismatch");
    if (tags_)
        tags_->restoreState(r);
    warm_image_.clear();
    const std::uint64_t n = r.u64();
    warm_image_.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        SavedLine sl;
        sl.addr = r.u64();
        sl.data = r.vecU8();
        warm_image_.push_back(std::move(sl));
    }
    stat_group_.restoreState(r);
}

} // namespace cache
} // namespace wlcache
