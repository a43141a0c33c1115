#include "cpu/icache_stream.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace wlcache {
namespace cpu {

ICacheStream::ICacheStream(const ICacheStreamParams &params)
    : params_(params), rng_(params.seed ^ 0x1c0defeedull)
{
    wlc_assert(params_.body_min_insns >= 1);
    wlc_assert(params_.body_max_insns >= params_.body_min_insns);
    // A far jump draws its start from code_bytes/4 - body_max_insns
    // slots, so the code must hold more whole instructions than the
    // longest body.
    wlc_assert(params_.code_bytes / 4 > params_.body_max_insns,
               "code_bytes (%u) must hold more than body_max_insns (%u) "
               "instructions",
               params_.code_bytes, params_.body_max_insns);
    newRegion();
}

void
ICacheStream::newRegion()
{
    const Addr code_end = params_.code_base + params_.code_bytes;
    Addr start;
    if (rng_.nextBool(params_.call_probability) || body_start_ == 0) {
        // Far jump: a call into another function in the footprint.
        const std::uint64_t slots =
            (params_.code_bytes / 4) - params_.body_max_insns;
        start = params_.code_base + 4 * rng_.nextBelow(slots);
    } else {
        // Fall through past the loop we just finished.
        start = body_start_ + 4 * static_cast<Addr>(body_len_);
        if (start + 4 * params_.body_max_insns >= code_end)
            start = params_.code_base;
    }
    body_start_ = start;
    body_len_ = static_cast<unsigned>(rng_.nextRange(
        params_.body_min_insns, params_.body_max_insns));
    const double iters = rng_.nextExponential(params_.mean_iterations);
    iters_left_ = std::max(1u, static_cast<unsigned>(iters));
    pos_ = 0;
}

void
ICacheStream::saveState(SnapshotWriter &w) const
{
    w.section("STRM");
    rng_.saveState(w);
    w.u64(body_start_);
    w.u32(body_len_);
    w.u32(pos_);
    w.u32(iters_left_);
}

void
ICacheStream::restoreState(SnapshotReader &r)
{
    r.section("STRM");
    rng_.restoreState(r);
    body_start_ = r.u64();
    body_len_ = r.u32();
    pos_ = r.u32();
    iters_left_ = r.u32();
}

} // namespace cpu
} // namespace wlcache
