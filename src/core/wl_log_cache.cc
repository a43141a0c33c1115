#include "core/wl_log_cache.hh"

#include <cstring>

#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace wlcache {
namespace core {

WlLogCache::WlLogCache(const cache::CacheParams &params,
                       const WlParams &wl, const mem::NvmLogParams &log,
                       mem::NvmMemory &nvm, energy::EnergyMeter *meter)
    : WLCache("wl_log_cache", params, wl, nvm, meter),
      journal_(log, params.line_bytes, nvm)
{
}

Cycle
WlLogCache::persistLine(Addr line_addr, const std::uint8_t *data,
                        unsigned bytes, Cycle now)
{
    wlc_assert(bytes == tags_.lineBytes(),
               "WL-Log persists whole lines only");
    Cycle t = now;
    if (!in_checkpoint_)
        t = journal_.ensureSpace(wlParams().dq_size, t);
    return journal_.append(line_addr, data, t);
}

Cycle
WlLogCache::readLineImage(Addr line_addr, std::uint8_t *out,
                          unsigned bytes, Cycle now)
{
    if (const unsigned *slot = journal_.lookup(line_addr)) {
        wlc_assert(bytes == tags_.lineBytes());
        return journal_.readPayload(*slot, out, now);
    }
    return WLCache::readLineImage(line_addr, out, bytes, now);
}

Cycle
WlLogCache::checkpoint(Cycle now)
{
    // The standing reserve guarantees the flush appends never need
    // compaction, whose home writes the energy bound does not cover.
    in_checkpoint_ = true;
    const Cycle t = WLCache::checkpoint(now);
    in_checkpoint_ = false;
    return t;
}

void
WlLogCache::powerLoss()
{
    WLCache::powerLoss();
    journal_.onPowerLoss();
}

Cycle
WlLogCache::powerRestore(Cycle now)
{
    return journal_.bootReplay(now);
}

Cycle
WlLogCache::drainAndFlush(Cycle now)
{
    const Cycle t = WLCache::drainAndFlush(now);
    return journal_.compactAll(t);
}

double
WlLogCache::lineCheckpointEnergy() const
{
    return nvm_.params().writeEnergy(journal_.slotBytes()) +
        params_.line_read_energy;
}

std::unordered_map<Addr, mem::NvmLogRecord>
WlLogCache::persistentWinners() const
{
    std::unordered_map<Addr, mem::NvmLogRecord> best;
    for (const mem::NvmLogRecord &r : journal_.scan()) {
        const auto it = best.find(r.line_addr);
        if (it == best.end() || r.seqno > it->second.seqno)
            best[r.line_addr] = r;
    }
    return best;
}

bool
WlLogCache::probePersistent(Addr addr, unsigned bytes, void *out) const
{
    const Addr laddr = tags_.lineAddrOf(addr);
    const auto best = persistentWinners();
    const auto it = best.find(laddr);
    if (it == best.end())
        return false;
    std::uint8_t buf[cache::kMaxLineBytes];
    journal_.peekPayload(it->second.slot, buf);
    const unsigned off = tags_.lineOffset(addr);
    wlc_assert(off + bytes <= tags_.lineBytes());
    std::memcpy(out, buf + off, bytes);
    return true;
}

void
WlLogCache::collectPersistentOverlay(
    std::unordered_map<Addr, std::uint8_t> &overlay) const
{
    std::uint8_t buf[cache::kMaxLineBytes];
    for (const auto &[laddr, rec] : persistentWinners()) {
        journal_.peekPayload(rec.slot, buf);
        for (unsigned i = 0; i < tags_.lineBytes(); ++i)
            overlay[laddr + i] = buf[i];
    }
}

void
WlLogCache::saveState(SnapshotWriter &w) const
{
    WLCache::saveState(w);
    journal_.saveState(w);
}

void
WlLogCache::restoreState(SnapshotReader &r)
{
    WLCache::restoreState(r);
    journal_.restoreState(r);
}

} // namespace core
} // namespace wlcache
