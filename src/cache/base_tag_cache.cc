#include "cache/base_tag_cache.hh"

#include "sim/logging.hh"
#include "sim/snapshot.hh"
#include "telemetry/timeline.hh"

namespace wlcache {
namespace cache {

BaseTagCache::BaseTagCache(const std::string &name,
                           const CacheParams &params, mem::NvmMemory &nvm,
                           energy::EnergyMeter *meter)
    : DataCache(name), params_(params), tags_(params), nvm_(nvm),
      meter_(meter),
      read_aj_(energy::quantizeCharge(params.access_energy_read)),
      write_aj_(energy::quantizeCharge(params.access_energy_write)),
      fill_aj_(energy::quantizeCharge(params.line_fill_energy)),
      line_read_aj_(energy::quantizeCharge(params.line_read_energy)),
      repl_aj_(params.repl == ReplPolicy::LRU
                   ? energy::quantizeCharge(params.lru_update_energy)
                   : 0)
{
}

std::pair<LineRef, Cycle>
BaseTagCache::fillLine(Addr addr, Cycle now)
{
    const Addr laddr = tags_.lineAddrOf(addr);
    LineRef victim = tags_.victim(addr);
    Cycle t = now;
    if (tags_.valid(victim)) {
        ++stats_.evictions;
        WLC_TIMELINE(tl_, Eviction, now, designName(),
                     tags_.lineAddr(victim),
                     tags_.dirty(victim) ? 1 : 0);
        if (tags_.dirty(victim)) {
            ++stats_.dirty_evictions;
            onDirtyEviction(tags_.lineAddr(victim));
            t = writeBackLine(victim, t);
            tags_.setDirty(victim, false);
        }
        tags_.invalidate(victim);
    }
    // Fetch the newest persisted line image (home NVM, or the
    // journal for log-structured designs).
    std::uint8_t buf[kMaxLineBytes];
    wlc_assert(tags_.lineBytes() <= sizeof(buf));
    t = readLineImage(laddr, buf, tags_.lineBytes(), t);
    tags_.install(victim, laddr, buf);
    chargeLineFill();
    ++stats_.fills;
    return { victim, t };
}

Cycle
BaseTagCache::writeBackLine(LineRef ref, Cycle now)
{
    wlc_assert(tags_.valid(ref));
    chargeLineRead();
    const Cycle ready = persistLine(tags_.lineAddr(ref), tags_.data(ref),
                                    tags_.lineBytes(), now);
    ++stats_.writebacks;
    return ready;
}

void
BaseTagCache::saveState(SnapshotWriter &w) const
{
    DataCache::saveState(w);
    tags_.saveState(w);
}

void
BaseTagCache::restoreState(SnapshotReader &r)
{
    DataCache::restoreState(r);
    tags_.restoreState(r);
}

} // namespace cache
} // namespace wlcache
