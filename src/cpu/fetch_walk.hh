/**
 * @file
 * The instruction-fetch walk of one trace event: pull runs from the
 * synthetic PC stream and fetch them through the L1 I-cache.
 *
 * Loop iterations whose body is wholly resident are fetched in closed
 * form. A hit only touches a line, it never installs one, so once
 * every line of the body is resident at the start of an iteration,
 * every chunk of that iteration hits, and by induction so does every
 * later iteration of the region. All but the last of the whole
 * iterations that fit in the event then advance as integer products
 * (cycles, fetch and hit counts, CacheRead energy, the replacement
 * clock, the trip count). The last one runs through the normal walk:
 * it touches the same lines in the same order, so it leaves exactly
 * the per-line stamps the skipped iterations would have, and it draws
 * the next region when it ends this one. The result is identical to
 * fetching every run (tests/fetch_walk_test.cc holds the two
 * together).
 */

#ifndef WLCACHE_CPU_FETCH_WALK_HH
#define WLCACHE_CPU_FETCH_WALK_HH

#include "cache/icache.hh"
#include "cpu/icache_stream.hh"
#include "sim/types.hh"

namespace wlcache {
namespace cpu {

/**
 * Fetch the next @p insns instructions of @p stream through @p icache,
 * starting at cycle @p now.
 * @return cycle when the last instruction has been fetched.
 */
inline Cycle
fetchInstructions(ICacheStream &stream, cache::InstrCache &icache,
                  unsigned insns, Cycle now)
{
    Cycle t = now;
    unsigned left = insns;
    while (left > 0) {
        const unsigned iters = stream.wholeIterations(left);
        if (iters >= 2) {
            const FetchRun body = stream.body();
            if (icache.runResident(body.pc, body.count)) {
                const unsigned skip = iters - 1;
                t = icache.fetchResidentRepeated(body.pc, body.count,
                                                 skip, t);
                stream.skipIterations(skip);
                left -= skip * body.count;
            }
        }
        const FetchRun run = stream.take(left);
        t = icache.fetchRun(run.pc, run.count, t);
        left -= run.count;
    }
    return t;
}

} // namespace cpu
} // namespace wlcache

#endif // WLCACHE_CPU_FETCH_WALK_HH
