/**
 * @file
 * Synthetic instruction-address stream. Workload traces record data
 * references plus a compute gap; this generator produces the program
 * counter walk for those gaps using a parametric loop-nest model
 * (sequential bodies, repeated iterations, occasional far calls), so
 * the L1 I-cache sees realistic spatial/temporal locality per
 * application (see DESIGN.md §2 for why this substitution is sound).
 *
 * The stream is deterministic and copyable: a copy is exactly the
 * checkpointed PC state, which is how ReplayCache's region rollback
 * rewinds instruction fetch.
 */

#ifndef WLCACHE_CPU_ICACHE_STREAM_HH
#define WLCACHE_CPU_ICACHE_STREAM_HH

#include <algorithm>
#include <cstdint>

#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace wlcache {

class SnapshotWriter;
class SnapshotReader;

namespace cpu {

/** Loop-model parameters, seeded per application. */
struct ICacheStreamParams
{
    Addr code_base = 0x0040'0000;      //!< Start of the text segment.
    unsigned code_bytes = 12u << 10;   //!< Code footprint.
    unsigned body_min_insns = 4;       //!< Shortest loop body.
    unsigned body_max_insns = 64;      //!< Longest loop body.
    double mean_iterations = 24.0;     //!< Mean loop trip count.
    double call_probability = 0.12;    //!< Far-jump chance per region.
    std::uint64_t seed = 1;
};

/** A contiguous run of sequential instruction fetches. */
struct FetchRun
{
    Addr pc;
    unsigned count;
};

/** Deterministic synthetic PC walk. */
class ICacheStream
{
  public:
    explicit ICacheStream(const ICacheStreamParams &params);

    /**
     * Produce the next run of at most @p max_insns sequential
     * fetches. Always returns at least one instruction.
     */
    FetchRun
    take(unsigned max_insns)
    {
        wlc_assert(max_insns >= 1);
        const unsigned n = std::min(max_insns, body_len_ - pos_);
        const FetchRun run{ body_start_ + 4 * static_cast<Addr>(pos_), n };
        pos_ += n;
        if (pos_ >= body_len_) {
            pos_ = 0;
            if (--iters_left_ == 0)
                newRegion();
        }
        return run;
    }

    /**
     * Whole loop iterations the next @p left fetches would run: 0
     * unless the stream sits at the start of an iteration and @p left
     * holds at least two bodies; otherwise min(iterations left in the
     * region, left / body length).
     */
    unsigned
    wholeIterations(unsigned left) const
    {
        if (pos_ != 0 || left / 2 < body_len_)
            return 0;
        return std::min(iters_left_, left / body_len_);
    }

    /** The current loop body as one run: one whole iteration. */
    FetchRun body() const { return FetchRun{ body_start_, body_len_ }; }

    /**
     * Advance past @p n whole iterations without producing them.
     * Draws nothing from the RNG: @p n must leave at least one
     * iteration in the region, so the region never ends here.
     */
    void
    skipIterations(unsigned n)
    {
        wlc_assert(pos_ == 0 && n < iters_left_);
        iters_left_ -= n;
    }

    const ICacheStreamParams &params() const { return params_; }

    /** Serialize the PC-walk cursor and its RNG. */
    void saveState(SnapshotWriter &w) const;

    /** Restore a state saved with saveState(). */
    void restoreState(SnapshotReader &r);

  private:
    void newRegion();

    ICacheStreamParams params_;
    Rng rng_;
    Addr body_start_ = 0;
    unsigned body_len_ = 0;    //!< Instructions in the current body.
    unsigned pos_ = 0;         //!< Instruction index within the body.
    unsigned iters_left_ = 0;
};

} // namespace cpu
} // namespace wlcache

#endif // WLCACHE_CPU_ICACHE_STREAM_HH
