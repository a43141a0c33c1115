/** @file Unit tests for mem: NVM timing/functional model and the
 *  persist checker. */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "energy/energy_meter.hh"
#include "mem/nvm_memory.hh"
#include "mem/persist_checker.hh"
#include "sim/snapshot.hh"

using namespace wlcache;
using namespace wlcache::mem;

namespace {

NvmParams
smallParams()
{
    NvmParams p;
    p.size_bytes = 1u << 16;
    return p;
}

} // namespace

TEST(Nvm, FunctionalWriteReadRoundTrip)
{
    NvmMemory nvm(smallParams());
    const std::uint32_t v = 0xdeadbeef;
    nvm.write(0x100, 4, &v, 0);
    std::uint32_t out = 0;
    nvm.read(0x100, 4, 100, &out);
    EXPECT_EQ(out, v);
}

TEST(Nvm, PeekPokeBypassTiming)
{
    NvmMemory nvm(smallParams());
    const std::uint16_t v = 0xabcd;
    nvm.poke(0x40, 2, &v);
    EXPECT_EQ(nvm.peekInt(0x40, 2), 0xabcdu);
    EXPECT_EQ(nvm.numReads(), 0u);
    EXPECT_EQ(nvm.numWrites(), 0u);
}

TEST(Nvm, ReadLatencyMatchesParams)
{
    NvmParams p = smallParams();
    NvmMemory nvm(p);
    const auto r = nvm.read(0x0, 4, 10, nullptr);
    EXPECT_EQ(r.start, 10u);
    EXPECT_EQ(r.ready, 10 + p.readLatency(4));
}

TEST(Nvm, WriteAckIncludesActivation)
{
    NvmParams p = smallParams();
    NvmMemory nvm(p);
    const std::uint32_t v = 1;
    const auto r = nvm.write(0x0, 4, &v, 5);
    EXPECT_EQ(r.ready, 5 + p.t_rcd + p.t_cl + p.t_burst);
}

TEST(Nvm, SameBankWritesSerializeOnRecovery)
{
    NvmParams p = smallParams();
    NvmMemory nvm(p);
    const std::uint32_t v = 1;
    const auto a = nvm.write(0x0, 4, &v, 0);
    // Same 4-byte word -> same bank: must wait out tWR.
    const auto b = nvm.write(0x0, 4, &v, a.ready);
    EXPECT_GE(b.start, a.ready + p.writeRecovery());
}

TEST(Nvm, DifferentBankWritesOverlap)
{
    NvmParams p = smallParams();
    NvmMemory nvm(p);
    const std::uint32_t v = 1;
    const auto a = nvm.write(0x0, 4, &v, 0);
    // Next beat maps to the next bank; only the channel burst gates.
    const auto b = nvm.write(0x8, 4, &v, 0);
    EXPECT_LT(b.start, a.ready);
    EXPECT_GE(b.start, a.start + p.t_burst);
}

TEST(Nvm, ChannelResetClearsBusyState)
{
    NvmParams p = smallParams();
    NvmMemory nvm(p);
    const std::uint32_t v = 1;
    nvm.write(0x0, 4, &v, 0);
    nvm.resetChannel();
    const auto r = nvm.write(0x0, 4, &v, 0);
    EXPECT_EQ(r.start, 0u);
}

TEST(Nvm, LineWriteUpdatesAllBytes)
{
    NvmMemory nvm(smallParams());
    std::uint8_t line[64];
    for (unsigned i = 0; i < 64; ++i)
        line[i] = static_cast<std::uint8_t>(i);
    nvm.writeLine(0x1000, line, 64, 0);
    for (unsigned i = 0; i < 64; ++i)
        EXPECT_EQ(nvm.peekInt(0x1000 + i, 1), i);
}

TEST(Nvm, StatsCountAccesses)
{
    NvmMemory nvm(smallParams());
    const std::uint32_t v = 1;
    const std::uint64_t w = 1;
    nvm.write(0, 4, &v, 0);
    nvm.write(8, 8, &w, 0);
    nvm.read(0, 4, 0, nullptr);
    EXPECT_EQ(nvm.numWrites(), 2u);
    EXPECT_EQ(nvm.numReads(), 1u);
    EXPECT_EQ(nvm.bytesWritten(), 12u);
}

TEST(Nvm, EnergyCharged)
{
    energy::EnergyMeter m;
    NvmParams p = smallParams();
    NvmMemory nvm(p, &m);
    const std::uint32_t v = 1;
    nvm.write(0, 4, &v, 0);
    EXPECT_NEAR(m.get(energy::EnergyCategory::MemWrite),
                p.writeEnergy(4), 1e-18);
    nvm.read(0, 4, 0, nullptr);
    EXPECT_NEAR(m.get(energy::EnergyCategory::MemRead),
                p.readEnergy(4), 1e-18);
}

TEST(Nvm, ResetStatsKeepsContents)
{
    NvmMemory nvm(smallParams());
    const std::uint32_t v = 77;
    nvm.write(0x20, 4, &v, 0);
    nvm.resetStats();
    EXPECT_EQ(nvm.numWrites(), 0u);
    EXPECT_EQ(nvm.peekInt(0x20, 4), 77u);
}

namespace {

/** Every byte of @p nvm outside the written set must read zero. */
void
expectFreshZeros(const NvmMemory &nvm)
{
    const std::size_t size = nvm.sizeBytes();
    EXPECT_EQ(nvm.peekInt(0, 1), 0u);
    EXPECT_EQ(nvm.peekInt(size - 1, 1), 0u);
    // A page nothing has written, read whole.
    const std::vector<std::uint8_t> page =
        nvm.snapshotRange(size / 2, NvmMemory::kJournalPageBytes);
    for (const std::uint8_t b : page)
        ASSERT_EQ(b, 0u);
}

} // namespace

TEST(Nvm, FreshMemoryReadsZero)
{
    // The default (full-size) array, as every system builds it.
    const NvmParams params;
    {
        NvmMemory nvm(params);
        expectFreshZeros(nvm);
        // Dirty the probed bytes, then drop the instance: the next
        // same-size memory may reuse its address range.
        const std::uint8_t ff = 0xff;
        std::vector<std::uint8_t> page(NvmMemory::kJournalPageBytes, 0xa5);
        nvm.poke(0, 1, &ff);
        nvm.poke(static_cast<Addr>(nvm.sizeBytes() - 1), 1, &ff);
        nvm.poke(static_cast<Addr>(nvm.sizeBytes() / 2),
                 static_cast<unsigned>(page.size()), page.data());
    }
    NvmMemory again(params);
    expectFreshZeros(again);
    EXPECT_EQ(again.journalPages(), 0u);
}

TEST(Nvm, JournalAndSnapshotRoundTrip)
{
    const NvmParams p = smallParams();
    const std::uint8_t image[3] = { 1, 2, 3 };
    NvmMemory nvm(p);
    nvm.poke(0x10, 3, image);
    nvm.clearJournal();
    EXPECT_EQ(nvm.journalPages(), 0u);

    const std::uint32_t v = 0x12345678;
    nvm.write(0x2000, 4, &v, 0);     // page 2
    nvm.write(0x2ffe, 4, &v, 10);    // straddles pages 2 and 3
    nvm.write(0xfffc, 4, &v, 20);    // the last page
    EXPECT_EQ(nvm.journalPages(), 3u);

    SnapshotWriter w;
    nvm.saveState(w);

    // Restore onto a fresh memory holding the same initial image.
    NvmMemory restored(p);
    restored.poke(0x10, 3, image);
    restored.clearJournal();
    SnapshotReader r(w.data());
    restored.restoreState(r);
    EXPECT_TRUE(r.atEnd());
    EXPECT_EQ(restored.journalPages(), 3u);
    EXPECT_EQ(restored.snapshotRange(0, p.size_bytes),
              nvm.snapshotRange(0, p.size_bytes));
    EXPECT_EQ(restored.numWrites(), nvm.numWrites());

    SnapshotWriter again;
    restored.saveState(again);
    EXPECT_EQ(again.data(), w.data());
}

TEST(NvmDeathTest, RestoreRejectsOutOfRangeJournalPage)
{
    // One full journal page: the stream ends with its index, its
    // length and its 4096 bytes.
    const NvmParams p = smallParams();
    NvmMemory nvm(p);
    const std::uint32_t v = 7;
    nvm.write(0x3000, 4, &v, 0);
    ASSERT_EQ(nvm.journalPages(), 1u);
    SnapshotWriter w;
    nvm.saveState(w);
    const std::vector<std::uint8_t> saved = w.data();
    const std::size_t index_at =
        saved.size() - NvmMemory::kJournalPageBytes - 16;
    std::uint64_t saved_index = 0;
    std::memcpy(&saved_index, saved.data() + index_at, 8);
    ASSERT_EQ(saved_index, 3u);

    // 2^52 - 1 makes index * 4096 + 4096 wrap to 0; the others are
    // the first index past the end and an absurd one.
    const std::uint64_t pages = p.size_bytes / NvmMemory::kJournalPageBytes;
    for (const std::uint64_t bad :
         { (std::uint64_t{ 1 } << 52) - 1, pages, ~std::uint64_t{ 0 } }) {
        std::vector<std::uint8_t> patched = saved;
        std::memcpy(patched.data() + index_at, &bad, 8);
        NvmMemory target(p);
        SnapshotReader r(patched);
        EXPECT_DEATH(target.restoreState(r),
                     "journal page out of range");
    }
}

TEST(NvmDeathTest, AccessesNearTheAddressLimitAreRejected)
{
    NvmMemory nvm(smallParams());
    std::uint32_t out = 0;
    // addr + bytes wraps to a small value: must still be caught.
    const Addr wrap = ~Addr{ 0 } - 1;
    EXPECT_DEATH(nvm.peek(wrap, 4, &out), "out of range");
    EXPECT_DEATH(nvm.snapshotRange(wrap, 4), "out of range");
    EXPECT_DEATH(nvm.snapshotRange(0, nvm.sizeBytes() + 1),
                 "out of range");
}

TEST(PersistChecker, TracksStores)
{
    PersistChecker c;
    c.applyStore(0x10, 4, 0x04030201);
    EXPECT_TRUE(c.isTracked(0x10));
    EXPECT_TRUE(c.isTracked(0x13));
    EXPECT_FALSE(c.isTracked(0x14));
    EXPECT_EQ(c.expectedByte(0x12), 0x03);
    EXPECT_EQ(c.footprintBytes(), 4u);
}

TEST(PersistChecker, LatestStoreWins)
{
    PersistChecker c;
    c.applyStore(0x10, 4, 0x11111111);
    c.applyStore(0x12, 1, 0xff);
    EXPECT_EQ(c.expectedByte(0x12), 0xff);
    EXPECT_EQ(c.expectedByte(0x11), 0x11);
}

TEST(PersistChecker, CompareDetectsMismatch)
{
    NvmMemory nvm(smallParams());
    PersistChecker c;
    const std::uint32_t v = 0xaabbccdd;
    nvm.poke(0x30, 4, &v);
    c.applyStore(0x30, 4, 0xaabbccdd);
    EXPECT_TRUE(c.compare(nvm).empty());

    c.applyStore(0x30, 1, 0x00);  // NVM still has 0xdd
    const auto ms = c.compare(nvm);
    ASSERT_EQ(ms.size(), 1u);
    EXPECT_EQ(ms[0].addr, 0x30u);
    EXPECT_EQ(ms[0].expected, 0x00);
    EXPECT_EQ(ms[0].actual, 0xdd);
}

TEST(PersistChecker, CompareHonorsLimit)
{
    NvmMemory nvm(smallParams());
    PersistChecker c;
    for (Addr a = 0; a < 64; ++a)
        c.applyStore(a, 1, 0x55);
    EXPECT_EQ(c.compare(nvm, 8).size(), 8u);
}

TEST(PersistChecker, InitAndReset)
{
    PersistChecker c;
    const std::uint8_t img[3] = { 1, 2, 3 };
    c.applyInit(0x80, img, 3);
    EXPECT_EQ(c.expectedByte(0x81), 2);
    c.reset();
    EXPECT_EQ(c.footprintBytes(), 0u);
}

TEST(PersistChecker, DescribeFormats)
{
    EXPECT_EQ(PersistChecker::describe({}), "consistent");
    const auto s =
        PersistChecker::describe({ { 0x10, 0xaa, 0xbb } });
    EXPECT_NE(s.find("0x10"), std::string::npos);
    EXPECT_NE(s.find("aa"), std::string::npos);
}

TEST(PersistChecker, ForEachVisitsAll)
{
    PersistChecker c;
    c.applyStore(0x10, 2, 0xbbaa);
    unsigned count = 0;
    c.forEach([&](Addr, std::uint8_t) { ++count; });
    EXPECT_EQ(count, 2u);
}
