/** @file Differential test of the closed-form fetch walk
 *  (cpu::fetchInstructions) against the plain per-run walk: identical
 *  cycles, I-cache state, stream state, energy and fetch counters,
 *  event by event, over random stream and I-cache geometries. */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "cache/icache.hh"
#include "cpu/fetch_walk.hh"
#include "cpu/icache_stream.hh"
#include "energy/energy_meter.hh"
#include "mem/nvm_memory.hh"
#include "sim/snapshot.hh"

using namespace wlcache;
using namespace wlcache::cpu;

namespace {

constexpr cache::ICacheKind kKinds[] = {
    cache::ICacheKind::None, cache::ICacheKind::Volatile,
    cache::ICacheKind::NonVolatile, cache::ICacheKind::WarmRestore,
};

/** One fetch engine: backing NVM, meter, I-cache and PC stream. */
struct Rig
{
    Rig(const cache::CacheParams &cp, cache::ICacheKind kind,
        const ICacheStreamParams &sp)
        : stream(sp)
    {
        mem::NvmParams np;
        np.size_bytes = 8u << 20;
        nvm = std::make_unique<mem::NvmMemory>(np, &meter);
        icache =
            std::make_unique<cache::InstrCache>(cp, kind, *nvm, &meter);
    }

    energy::EnergyMeter meter;
    std::unique_ptr<mem::NvmMemory> nvm;
    std::unique_ptr<cache::InstrCache> icache;
    ICacheStream stream;
};

/** The walk before the closed form: one fetchRun() per stream run. */
Cycle
referenceWalk(ICacheStream &stream, cache::InstrCache &icache,
              unsigned insns, Cycle now)
{
    Cycle t = now;
    unsigned left = insns;
    while (left > 0) {
        const FetchRun run = stream.take(left);
        t = icache.fetchRun(run.pc, run.count, t);
        left -= run.count;
    }
    return t;
}

std::vector<std::uint8_t>
icacheBytes(const cache::InstrCache &ic)
{
    SnapshotWriter w;
    ic.saveState(w);
    return w.take();
}

std::vector<std::uint8_t>
streamBytes(const ICacheStream &s)
{
    SnapshotWriter w;
    s.saveState(w);
    return w.take();
}

std::uint64_t
lineHits(cache::InstrCache &ic)
{
    const auto *s = dynamic_cast<const stats::Scalar *>(
        ic.statGroup().find("line_hits"));
    EXPECT_NE(s, nullptr);
    return s ? s->valueU64() : 0;
}

/** A stream, an I-cache and the event sequence to drive them with. */
struct Case
{
    ICacheStreamParams stream;
    cache::CacheParams cache;
    cache::ICacheKind kind = cache::ICacheKind::Volatile;
    std::uint64_t seed = 1;  //!< Gap and power-loss choices.
    unsigned events = 150;
};

std::string
describe(const Case &c)
{
    return "body " + std::to_string(c.stream.body_min_insns) + "-" +
           std::to_string(c.stream.body_max_insns) + " iters " +
           std::to_string(c.stream.mean_iterations) + " call " +
           std::to_string(c.stream.call_probability) + " code " +
           std::to_string(c.stream.code_bytes) + " | cache " +
           std::to_string(c.cache.size_bytes) + "B/" +
           std::to_string(c.cache.assoc) + "w/" +
           std::to_string(c.cache.line_bytes) + "B " +
           cache::replPolicyName(c.cache.repl) + " hit " +
           std::to_string(c.cache.hit_latency) + " kind " +
           std::to_string(static_cast<int>(c.kind)) + " seed " +
           std::to_string(c.seed);
}

/** Drive both walks through the same events; stop at the first diff. */
void
runCase(const Case &c)
{
    SCOPED_TRACE(describe(c));
    Rig ref(c.cache, c.kind, c.stream);
    Rig fast(c.cache, c.kind, c.stream);
    std::mt19937_64 rng(c.seed);
    Cycle t_ref = 0;
    Cycle t_fast = 0;
    for (unsigned e = 0; e < c.events; ++e) {
        SCOPED_TRACE("event " + std::to_string(e));
        // Event-dense (0-10) or duty-cycled (20k-60k) compute gaps.
        const unsigned gap = rng() % 2 == 0
                                 ? static_cast<unsigned>(rng() % 11)
                                 : 20000 + static_cast<unsigned>(
                                               rng() % 40001);
        t_ref = referenceWalk(ref.stream, *ref.icache, gap + 1, t_ref);
        t_fast = fetchInstructions(fast.stream, *fast.icache, gap + 1,
                                   t_fast);
        if (rng() % 8 == 0) {
            ref.icache->powerLoss();
            fast.icache->powerLoss();
            t_ref = ref.icache->powerRestore(t_ref + 1000);
            t_fast = fast.icache->powerRestore(t_fast + 1000);
        }

        ASSERT_EQ(t_fast, t_ref);
        ASSERT_EQ(streamBytes(fast.stream), streamBytes(ref.stream));
        ASSERT_EQ(icacheBytes(*fast.icache), icacheBytes(*ref.icache));
        for (std::size_t cat = 0;
             cat < energy::EnergyMeter::kNumCategories; ++cat) {
            const auto k = static_cast<energy::EnergyCategory>(cat);
            ASSERT_EQ(fast.meter.getAj(k), ref.meter.getAj(k))
                << energy::energyCategoryName(k);
        }
        ASSERT_EQ(fast.icache->fetches(), ref.icache->fetches());
        ASSERT_EQ(lineHits(*fast.icache), lineHits(*ref.icache));
        ASSERT_EQ(fast.icache->lineMisses(), ref.icache->lineMisses());
    }
}

/** Draw a random case from the ranges the walk must cover. */
Case
randomCase(std::mt19937_64 &rng)
{
    Case c;
    c.stream.seed = rng();
    c.stream.body_min_insns = 1 + static_cast<unsigned>(rng() % 64);
    c.stream.body_max_insns =
        c.stream.body_min_insns +
        static_cast<unsigned>(rng() % (65 - c.stream.body_min_insns));
    c.stream.mean_iterations =
        1.0 + static_cast<double>(rng() % 200);
    c.stream.call_probability =
        static_cast<double>(rng() % 101) / 100.0;
    // 1-16 KB of code, always more than one longest body.
    c.stream.code_bytes = (1u + static_cast<unsigned>(rng() % 16)) << 10;

    const unsigned line_bytes = 16u << (rng() % 5);      // 16-256 B
    const unsigned assoc = 1u << (rng() % 3);            // 1, 2, 4
    unsigned size = 256u << (rng() % 6);                 // 256 B-8 KB
    while (size < line_bytes * assoc)
        size *= 2;
    c.cache.size_bytes = size;
    c.cache.assoc = assoc;
    c.cache.line_bytes = line_bytes;
    c.cache.repl = rng() % 2 == 0 ? cache::ReplPolicy::LRU
                                  : cache::ReplPolicy::FIFO;
    c.cache.hit_latency = 1 + rng() % 3;
    c.kind = kKinds[rng() % 4];
    c.seed = rng();
    return c;
}

} // namespace

TEST(FetchWalk, MatchesPerRunWalkOnRandomGeometries)
{
    std::mt19937_64 rng(0x5eedf00d);
    for (int i = 0; i < 160; ++i)
        ASSERT_NO_FATAL_FAILURE(runCase(randomCase(rng))) << "case " << i;
}

TEST(FetchWalk, MatchesOnEveryKindAndPolicy)
{
    // The paper's 8 KB, 2-way, 64 B L1 under both policies and every
    // power-failure behaviour, with long, hot loops.
    for (const auto kind : kKinds) {
        for (const auto repl :
             { cache::ReplPolicy::LRU, cache::ReplPolicy::FIFO }) {
            Case c;
            c.kind = kind;
            c.cache.repl = repl;
            c.stream.mean_iterations = 200.0;
            c.stream.call_probability = 0.05;
            ASSERT_NO_FATAL_FAILURE(runCase(c));
        }
    }
}

TEST(FetchWalk, MatchesWhenBodiesDoNotFit)
{
    // 256 B direct-mapped: 64-instruction bodies span the whole array
    // and conflict with themselves, so the residency check fails in
    // the middle of regions and the walk must fall back.
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        Case c;
        c.cache.size_bytes = 256;
        c.cache.assoc = 1;
        c.cache.line_bytes = 16;
        c.stream.body_min_insns = 40;
        c.stream.body_max_insns = 64;
        c.stream.mean_iterations = 50.0;
        c.stream.seed = seed;
        c.seed = seed;
        ASSERT_NO_FATAL_FAILURE(runCase(c));
    }
}

TEST(FetchWalk, SkipsOnlyFromTheStartOfAnIteration)
{
    ICacheStreamParams p;
    p.body_min_insns = 10;
    p.body_max_insns = 10;
    p.mean_iterations = 100.0;
    ICacheStream s(p);
    EXPECT_EQ(s.wholeIterations(19), 0u);  // fewer than two bodies
    const unsigned fit = s.wholeIterations(20);
    EXPECT_GE(fit, 1u);  // capped by the region's trip count
    EXPECT_LE(fit, 2u);
    EXPECT_EQ(s.body().count, 10u);
    s.take(3);
    EXPECT_EQ(s.wholeIterations(1000), 0u);  // mid-iteration
}
