/** @file Unit tests for util: strings, stat_math, table, FileLock. */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <sstream>

#include "util/fs.hh"
#include "util/stat_math.hh"
#include "util/strings.hh"
#include "util/table.hh"

using namespace wlcache::util;

TEST(Strings, PadLeftExtends)
{
    EXPECT_EQ(padLeft("ab", 5), "   ab");
}

TEST(Strings, PadLeftNoTruncate)
{
    EXPECT_EQ(padLeft("abcdef", 3), "abcdef");
}

TEST(Strings, PadRightExtends)
{
    EXPECT_EQ(padRight("ab", 5), "ab   ");
}

TEST(Strings, FmtDoublePrecision)
{
    EXPECT_EQ(fmtDouble(1.23456, 2), "1.23");
    EXPECT_EQ(fmtDouble(1.0, 0), "1");
}

TEST(Strings, FmtBytesExactMultiples)
{
    EXPECT_EQ(fmtBytes(512), "512B");
    EXPECT_EQ(fmtBytes(8192), "8KiB");
    EXPECT_EQ(fmtBytes(2u << 20), "2MiB");
}

TEST(Strings, FmtEnergyPrefixes)
{
    EXPECT_EQ(fmtEnergy(1.5), "1.500J");
    EXPECT_EQ(fmtEnergy(2.2e-6), "2.200uJ");
    EXPECT_EQ(fmtEnergy(5.0e-9), "5.000nJ");
}

TEST(Strings, FmtSecondsPrefixes)
{
    EXPECT_EQ(fmtSeconds(0.25), "250.000ms");
    EXPECT_EQ(fmtSeconds(1.0e-6), "1.000us");
}

TEST(Strings, SplitBasic)
{
    const auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(parts[3], "c");
}

TEST(Strings, StartsWith)
{
    EXPECT_TRUE(startsWith("wlcache", "wl"));
    EXPECT_FALSE(startsWith("wl", "wlcache"));
}

TEST(Strings, ToLower)
{
    EXPECT_EQ(toLower("WL-Cache"), "wl-cache");
}

TEST(Strings, ParseWholeNumberAcceptsOnlyWholeNumbers)
{
    unsigned v = 0;
    EXPECT_TRUE(parseWholeNumber("1", v));
    EXPECT_EQ(v, 1u);
    EXPECT_TRUE(parseWholeNumber("4294967295", v));
    EXPECT_EQ(v, 4294967295u);
    // Rejections leave the output untouched.
    for (const char *bad : { "", "0", "2x", "abc", "+1", "-1", " 1",
                             "1 ", "1.0", "4294967296" }) {
        EXPECT_FALSE(parseWholeNumber(bad, v)) << '"' << bad << '"';
        EXPECT_EQ(v, 4294967295u);
    }
}

TEST(Strings, EnvWholeNumberIsFatalOnMalformedValues)
{
    ::unsetenv("WLCACHE_TEST_WHOLE");
    EXPECT_EQ(envWholeNumber("WLCACHE_TEST_WHOLE", 7), 7u);
    ::setenv("WLCACHE_TEST_WHOLE", "3", 1);
    EXPECT_EQ(envWholeNumber("WLCACHE_TEST_WHOLE", 7), 3u);
    ::setenv("WLCACHE_TEST_WHOLE", "2x", 1);
    EXPECT_DEATH(envWholeNumber("WLCACHE_TEST_WHOLE", 7),
                 "WLCACHE_TEST_WHOLE='2x'");
    ::unsetenv("WLCACHE_TEST_WHOLE");
}

TEST(StatMath, GeoMeanBasics)
{
    EXPECT_DOUBLE_EQ(geoMean({ 4.0, 1.0 }), 2.0);
    EXPECT_DOUBLE_EQ(geoMean({ 2.0, 2.0, 2.0 }), 2.0);
}

TEST(StatMath, GeoMeanEmptyAndNonPositive)
{
    EXPECT_DOUBLE_EQ(geoMean({}), 0.0);
    EXPECT_DOUBLE_EQ(geoMean({ 1.0, 0.0 }), 0.0);
    EXPECT_DOUBLE_EQ(geoMean({ 1.0, -2.0 }), 0.0);
}

TEST(StatMath, Mean)
{
    EXPECT_DOUBLE_EQ(mean({ 1.0, 2.0, 3.0 }), 2.0);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(StatMath, IsPowerOfTwo)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(64));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(24));
}

TEST(StatMath, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(64), 6u);
    EXPECT_EQ(floorLog2(65), 6u);
}

TEST(StatMath, Alignment)
{
    EXPECT_EQ(alignDown(100, 64), 64u);
    EXPECT_EQ(alignUp(100, 64), 128u);
    EXPECT_EQ(alignUp(128, 64), 128u);
}

TEST(TextTable, PrintsHeaderAndRows)
{
    TextTable t;
    t.header({ "name", "value" });
    t.row({ "a", "1" });
    t.rowDoubles("b", { 2.5 }, 1);
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("2.5"), std::string::npos);
    EXPECT_EQ(t.numRows(), 2u);
}

TEST(TextTable, AlignsColumns)
{
    TextTable t;
    t.header({ "x", "yy" });
    t.row({ "longlabel", "1" });
    std::ostringstream os;
    t.print(os);
    // Header line must be padded to the label width.
    const auto first_nl = os.str().find('\n');
    EXPECT_GE(first_nl, std::string("longlabel  yy").size() - 1);
}

namespace {

/** Sentinel path in a fresh, empty directory under the test temp dir. */
std::string
freshLockPath(const char *name)
{
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return (dir / "sentinel.lock").string();
}

} // namespace

TEST(FileLock, TryLockExcludesWhileHeld)
{
    const std::string path = freshLockPath("util_flock");

    FileLock a;
    ASSERT_TRUE(a.lockExclusive(path));
    EXPECT_TRUE(a.held());

    FileLock b;
    EXPECT_FALSE(b.tryLockExclusive(path));
    EXPECT_FALSE(b.held());

    a.unlock();
    EXPECT_TRUE(b.tryLockExclusive(path));
    EXPECT_TRUE(b.held());
}

TEST(FileLock, MoveTransfersOwnership)
{
    const std::string path = freshLockPath("util_flock_move");

    FileLock a;
    ASSERT_TRUE(a.lockExclusive(path));
    FileLock b(std::move(a));
    EXPECT_FALSE(a.held());
    EXPECT_TRUE(b.held());

    FileLock c;
    EXPECT_FALSE(c.tryLockExclusive(path));
    b.unlock();
    EXPECT_TRUE(c.tryLockExclusive(path));
}
