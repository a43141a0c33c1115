/** @file Unit tests for the shared TagArray. */

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <vector>

#include "cache/tag_array.hh"

using namespace wlcache;
using namespace wlcache::cache;

namespace {

CacheParams
smallParams(ReplPolicy repl = ReplPolicy::LRU)
{
    CacheParams p;
    p.size_bytes = 512;  // 8 lines
    p.assoc = 2;         // 4 sets
    p.line_bytes = 64;
    p.repl = repl;
    return p;
}

/** Install a line filled with a marker byte. */
LineRef
installMarked(TagArray &t, Addr laddr, std::uint8_t marker)
{
    std::uint8_t img[64];
    std::memset(img, marker, sizeof(img));
    const LineRef v = t.victim(laddr);
    if (t.valid(v))
        t.invalidate(v);
    t.install(v, laddr, img);
    return v;
}

} // namespace

TEST(TagArray, Geometry)
{
    TagArray t(smallParams());
    EXPECT_EQ(t.numSets(), 4u);
    EXPECT_EQ(t.assoc(), 2u);
    EXPECT_EQ(t.numLines(), 8u);
    EXPECT_EQ(t.lineAddrOf(0x1234), 0x1200u);
    EXPECT_EQ(t.lineOffset(0x1234), 0x34u);
}

TEST(TagArray, GeometryValidation)
{
    CacheParams p = smallParams();
    p.assoc = 3;
    EXPECT_DEATH({ TagArray t(p); (void)t; }, "");
}

TEST(TagArray, LookupMissOnEmpty)
{
    TagArray t(smallParams());
    EXPECT_FALSE(t.lookup(0x1000).has_value());
}

TEST(TagArray, InstallThenHit)
{
    TagArray t(smallParams());
    installMarked(t, 0x1000, 0xaa);
    const auto ref = t.lookup(0x1020);
    ASSERT_TRUE(ref.has_value());
    EXPECT_EQ(t.lineAddr(*ref), 0x1000u);
    EXPECT_EQ(t.data(*ref)[0], 0xaa);
}

TEST(TagArray, ProbeCopiesData)
{
    TagArray t(smallParams());
    installMarked(t, 0x1000, 0x5c);
    std::uint32_t out = 0;
    ASSERT_TRUE(t.probe(0x1010, 4, &out));
    EXPECT_EQ(out, 0x5c5c5c5cu);
    EXPECT_FALSE(t.probe(0x2000, 4, &out));
}

TEST(TagArray, VictimPrefersInvalidWay)
{
    TagArray t(smallParams());
    installMarked(t, 0x1000, 1);
    // Same set (4 sets x 64B lines: set = (addr/64) % 4).
    const LineRef v = t.victim(0x1000 + 4 * 64);
    EXPECT_FALSE(t.valid(v));
}

TEST(TagArray, LruVictimEvictsColdest)
{
    TagArray t(smallParams(ReplPolicy::LRU));
    const Addr a = 0x0, b = 0x100;  // same set (set 0), 4 sets
    const auto ra = installMarked(t, a, 1);
    installMarked(t, b, 2);
    t.touch(ra);  // a is now MRU
    const LineRef v = t.victim(0x200);
    EXPECT_EQ(t.lineAddr(v), b);
}

TEST(TagArray, FifoVictimIgnoresTouches)
{
    TagArray t(smallParams(ReplPolicy::FIFO));
    const Addr a = 0x0, b = 0x100;
    const auto ra = installMarked(t, a, 1);
    installMarked(t, b, 2);
    t.touch(ra);
    t.touch(ra);
    const LineRef v = t.victim(0x200);
    EXPECT_EQ(t.lineAddr(v), a);  // oldest install, touches ignored
}

TEST(TagArray, DirtyCountMaintained)
{
    TagArray t(smallParams());
    const auto r1 = installMarked(t, 0x000, 1);
    const auto r2 = installMarked(t, 0x040, 2);
    EXPECT_EQ(t.dirtyCount(), 0u);
    t.setDirty(r1, true);
    t.setDirty(r2, true);
    EXPECT_EQ(t.dirtyCount(), 2u);
    t.setDirty(r1, true);  // idempotent
    EXPECT_EQ(t.dirtyCount(), 2u);
    t.setDirty(r1, false);
    EXPECT_EQ(t.dirtyCount(), 1u);
    t.invalidate(r2);  // invalidating a dirty line clears it
    EXPECT_EQ(t.dirtyCount(), 0u);
}

TEST(TagArray, InvalidateAllClears)
{
    TagArray t(smallParams());
    const auto r = installMarked(t, 0x000, 1);
    t.setDirty(r, true);
    t.invalidateAll();
    EXPECT_EQ(t.dirtyCount(), 0u);
    EXPECT_FALSE(t.lookup(0x000).has_value());
}

TEST(TagArray, InstallOverDirtyLinePanics)
{
    TagArray t(smallParams());
    const auto r = installMarked(t, 0x000, 1);
    t.setDirty(r, true);
    std::uint8_t img[64] = {};
    EXPECT_DEATH(t.install(r, 0x200, img), "dirty");
}

TEST(TagArray, ForEachValidLineVisitsAll)
{
    TagArray t(smallParams());
    installMarked(t, 0x000, 1);
    const auto r2 = installMarked(t, 0x040, 2);
    t.setDirty(r2, true);
    unsigned total = 0, dirty = 0;
    t.forEachValidLine([&](LineRef, Addr, bool d) {
        ++total;
        dirty += d;
    });
    EXPECT_EQ(total, 2u);
    EXPECT_EQ(dirty, 1u);
}

TEST(TagArray, SetMappingSeparatesSets)
{
    TagArray t(smallParams());
    // 0x000 and 0x040 are consecutive lines -> different sets.
    installMarked(t, 0x000, 1);
    installMarked(t, 0x040, 2);
    const auto a = t.lookup(0x000);
    const auto b = t.lookup(0x040);
    ASSERT_TRUE(a && b);
    EXPECT_NE(a->set, b->set);
}

TEST(TagArray, DirectMappedWorks)
{
    CacheParams p = smallParams();
    p.assoc = 1;
    TagArray t(p);
    installMarked(t, 0x000, 1);
    // Conflict: 8 sets now; 0x000 and 0x200 share set 0.
    const LineRef v = t.victim(0x200);
    EXPECT_TRUE(t.valid(v));
    EXPECT_EQ(t.lineAddr(v), 0x000u);
}

TEST(TagArray, LineSizeAboveTheMaximumIsRejected)
{
    CacheParams p = smallParams();
    p.line_bytes = kMaxLineBytes;
    p.size_bytes = 8 * kMaxLineBytes;
    p.validate();  // The largest line is accepted...
    p.line_bytes = 2 * kMaxLineBytes;
    p.size_bytes = 8 * 2 * kMaxLineBytes;
    // ...and one doubling past it is not, with the size in the message.
    EXPECT_DEATH(p.validate(), "at most 256 bytes \\(got 512\\)");
}

TEST(TagArray, ShiftSetIndexMatchesDivision)
{
    // victim() on an empty array returns way 0 of the address's set,
    // so it exposes the set index for every geometry.
    std::mt19937_64 rng(0x5e7);
    std::vector<Addr> addrs = { 0, 1, 0xffffffffull, 1ull << 32,
                                (1ull << 32) + 0x1c0, 1ull << 63,
                                (1ull << 63) | 0x12345678ull,
                                ~0ull, ~0ull - 63 };
    for (unsigned i = 0; i < 24; ++i) {
        const Addr a = rng();
        addrs.push_back(a);
        addrs.push_back(a | (1ull << 63));
        addrs.push_back(a & 0xffffffffull);
    }
    unsigned geometries = 0;
    for (unsigned line = 4; line <= kMaxLineBytes; line *= 2) {
        for (unsigned sets = 1; sets <= 4096; sets *= 2) {
            for (const unsigned assoc : { 1u, 2u, 4u, 8u }) {
                CacheParams p;
                p.line_bytes = line;
                p.assoc = assoc;
                p.size_bytes =
                    static_cast<std::size_t>(line) * sets * assoc;
                const TagArray t(p);
                ASSERT_EQ(t.numSets(), sets);
                for (const Addr a : addrs) {
                    const LineRef v = t.victim(a);
                    ASSERT_EQ(v.set, (a / line) & (sets - 1))
                        << "line=" << line << " sets=" << sets
                        << " assoc=" << assoc << " addr=" << a;
                    ASSERT_EQ(v.way, 0u);
                }
                ++geometries;
            }
        }
    }
    EXPECT_EQ(geometries, 7u * 13u * 4u);
}

namespace {

/**
 * Naive reference for lookup/victim/install/touch: per-set way lists,
 * set index by division, and a global sequence counter, written from
 * the documented policy rather than from the implementation.
 */
class RefTags
{
  public:
    RefTags(unsigned sets, unsigned assoc, unsigned line, ReplPolicy repl)
        : sets_(sets), line_(line), repl_(repl),
          ways_(sets, std::vector<Way>(assoc))
    {}

    unsigned setOf(Addr a) const
    {
        return static_cast<unsigned>((a / line_) % sets_);
    }
    Addr lineOf(Addr a) const { return a - a % line_; }

    /** Way holding @p a, or -1. */
    int lookup(Addr a) const
    {
        const auto &set = ways_[setOf(a)];
        for (std::size_t w = 0; w < set.size(); ++w)
            if (set[w].valid && set[w].addr == lineOf(a))
                return static_cast<int>(w);
        return -1;
    }

    unsigned victim(Addr a) const
    {
        const auto &set = ways_[setOf(a)];
        for (std::size_t w = 0; w < set.size(); ++w)
            if (!set[w].valid)
                return static_cast<unsigned>(w);
        unsigned best = 0;
        for (std::size_t w = 1; w < set.size(); ++w)
            if (age(set[w]) < age(set[best]))
                best = static_cast<unsigned>(w);
        return best;
    }

    void install(Addr a, unsigned way)
    {
        Way &w = ways_[setOf(a)][way];
        w.valid = true;
        w.addr = lineOf(a);
        w.touched = w.installed = ++seq_;
    }

    void touch(Addr a, unsigned way)
    {
        ways_[setOf(a)][way].touched = ++seq_;
    }

    void invalidate(Addr a, unsigned way)
    {
        ways_[setOf(a)][way].valid = false;
    }

  private:
    struct Way
    {
        bool valid = false;
        Addr addr = 0;
        std::uint64_t touched = 0;
        std::uint64_t installed = 0;
    };

    std::uint64_t age(const Way &w) const
    {
        return repl_ == ReplPolicy::LRU ? w.touched : w.installed;
    }

    unsigned sets_;
    unsigned line_;
    ReplPolicy repl_;
    std::vector<std::vector<Way>> ways_;
    std::uint64_t seq_ = 0;
};

} // namespace

TEST(TagArray, AgreesWithNaiveReferenceOnRandomOperations)
{
    struct Geometry { unsigned line, sets, assoc; ReplPolicy repl; };
    const Geometry geoms[] = {
        { 64, 64, 2, ReplPolicy::LRU },   { 64, 64, 2, ReplPolicy::FIFO },
        { 4, 1, 8, ReplPolicy::LRU },     { 256, 4, 4, ReplPolicy::FIFO },
        { 32, 16, 1, ReplPolicy::LRU },   { 16, 8, 8, ReplPolicy::LRU },
    };
    std::mt19937_64 rng(20240611);
    for (const Geometry &g : geoms) {
        SCOPED_TRACE(testing::Message()
                     << "line=" << g.line << " sets=" << g.sets
                     << " assoc=" << g.assoc << " "
                     << replPolicyName(g.repl));
        CacheParams p;
        p.line_bytes = g.line;
        p.assoc = g.assoc;
        p.size_bytes = static_cast<std::size_t>(g.line) * g.sets * g.assoc;
        p.repl = g.repl;
        TagArray t(p);
        RefTags ref(g.sets, g.assoc, g.line, g.repl);

        // A footprint of about twice the capacity, placed both low and
        // above 2^63, so hits, conflicts and evictions all occur.
        const unsigned lines = 2 * g.sets * g.assoc;
        const Addr bases[] = { 0x10000, (1ull << 63) + 0x40000 };
        for (unsigned op = 0; op < 20000; ++op) {
            const Addr a = bases[rng() % 2] +
                (rng() % lines) * g.line + rng() % g.line;
            const auto hit = t.lookup(a);
            const int ref_way = ref.lookup(a);
            ASSERT_EQ(hit.has_value(), ref_way >= 0) << "op " << op;
            if (hit) {
                ASSERT_EQ(hit->way, static_cast<unsigned>(ref_way));
                ASSERT_EQ(hit->set, ref.setOf(a));
                ASSERT_EQ(t.lineAddr(*hit), ref.lineOf(a));
                if (rng() % 8 == 0) {
                    t.invalidate(*hit);
                    ref.invalidate(a, ref_way);
                } else {
                    t.touch(*hit);
                    ref.touch(a, ref_way);
                }
                continue;
            }
            const LineRef v = t.victim(a);
            ASSERT_EQ(v.set, ref.setOf(a)) << "op " << op;
            ASSERT_EQ(v.way, ref.victim(a)) << "op " << op;
            if (t.valid(v))
                t.invalidate(v);
            t.install(v, t.lineAddrOf(a), nullptr);
            ref.install(a, v.way);
        }
    }
}
