/**
 * @file
 * Unit tests for the minimal JSON reader backing the runner's result
 * cache and manifests: scalar parsing, exact 64-bit number
 * round-trips, structure navigation, and rejection of every malformed
 * input a torn cache entry could produce.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "util/json.hh"

using namespace wlcache::util;

namespace {

JsonValue
parseOk(const std::string &text)
{
    JsonValue v;
    std::string err;
    EXPECT_TRUE(parseJson(text, v, &err)) << text << ": " << err;
    return v;
}

bool
parseFails(const std::string &text)
{
    JsonValue v;
    return !parseJson(text, v);
}

} // namespace

TEST(Json, Scalars)
{
    EXPECT_TRUE(parseOk("null").isNull());
    EXPECT_TRUE(parseOk("true").asBool());
    EXPECT_FALSE(parseOk("false").asBool());
    EXPECT_DOUBLE_EQ(parseOk("0").asDouble(), 0.0);
    EXPECT_DOUBLE_EQ(parseOk("-3.25").asDouble(), -3.25);
    EXPECT_DOUBLE_EQ(parseOk("1.5e3").asDouble(), 1500.0);
    EXPECT_DOUBLE_EQ(parseOk("2E-2").asDouble(), 0.02);
    EXPECT_EQ(parseOk("\"hi\"").asString(), "hi");
    EXPECT_TRUE(parseOk("  42  ").isNumber());
}

TEST(Json, LargeIntegersSurviveExactly)
{
    // Above 2^53: a double round-trip would corrupt these.
    const std::uint64_t big = 18446744073709551615ull; // 2^64 - 1
    EXPECT_EQ(parseOk("18446744073709551615").asU64(), big);
    EXPECT_EQ(parseOk("9007199254740993").asU64(),
              9007199254740993ull); // 2^53 + 1
    EXPECT_EQ(parseOk("0").asU64(), 0u);

    // The u64 boundary also survives a compact rewrite untouched —
    // the number token, not a double, is what gets printed.
    std::ostringstream os;
    writeJsonCompact(os, parseOk("18446744073709551615"));
    EXPECT_EQ(os.str(), "18446744073709551615");
}

TEST(Json, NumberEdgeCases)
{
    // Negative exponents, signed exponents, exponent-only magnitudes.
    EXPECT_DOUBLE_EQ(parseOk("1e-3").asDouble(), 0.001);
    EXPECT_DOUBLE_EQ(parseOk("2.5E-2").asDouble(), 0.025);
    EXPECT_DOUBLE_EQ(parseOk("-1.25e-1").asDouble(), -0.125);
    EXPECT_DOUBLE_EQ(parseOk("5e+2").asDouble(), 500.0);
    EXPECT_DOUBLE_EQ(parseOk("-0").asDouble(), 0.0);

    // Zero may start a number only as the whole integer part.
    EXPECT_DOUBLE_EQ(parseOk("0.125").asDouble(), 0.125);
    EXPECT_DOUBLE_EQ(parseOk("0e0").asDouble(), 0.0);
    EXPECT_DOUBLE_EQ(parseOk("0.0e-2").asDouble(), 0.0);

    // asU64() takes only a non-negative integer below 2^64; anything
    // else (a cache record from outside) reads as empty rather than
    // through an out-of-range cast.
    EXPECT_EQ(parseOk("1e3").asU64(), 1000u);
    EXPECT_EQ(parseOk("-0").asU64(), 0u);
    EXPECT_EQ(parseOk("-1").asU64(), std::nullopt);
    EXPECT_EQ(parseOk("1.5").asU64(), std::nullopt);
    EXPECT_EQ(parseOk("1e30").asU64(), std::nullopt);
    EXPECT_EQ(parseOk("18446744073709551616").asU64(), std::nullopt);
    EXPECT_EQ(parseOk("99999999999999999999999").asU64(), std::nullopt);
    EXPECT_EQ(parseOk("1.8446744073709552e19").asU64(), std::nullopt);
}

TEST(Json, RejectsNonJsonNumberForms)
{
    // RFC 8259: no leading zeros, no bare '.' forms. A lenient
    // strtod-based reader accepts all of these; ours must not.
    EXPECT_TRUE(parseFails("0123"));
    EXPECT_TRUE(parseFails("-01"));
    EXPECT_TRUE(parseFails("00"));
    EXPECT_TRUE(parseFails("01.5"));
    EXPECT_TRUE(parseFails(".5"));
    EXPECT_TRUE(parseFails("-.5"));
    EXPECT_TRUE(parseFails("1."));
    EXPECT_TRUE(parseFails("1.e3"));
    EXPECT_TRUE(parseFails("[1, 02]"));
    EXPECT_TRUE(parseFails("{\"a\": 1.}"));
}

TEST(Json, StringEscapes)
{
    EXPECT_EQ(parseOk(R"("a\nb")").asString(), "a\nb");
    EXPECT_EQ(parseOk(R"("a\tb")").asString(), "a\tb");
    EXPECT_EQ(parseOk(R"("q\"q")").asString(), "q\"q");
    EXPECT_EQ(parseOk(R"("back\\slash")").asString(), "back\\slash");
    EXPECT_EQ(parseOk(R"("sol\/idus")").asString(), "sol/idus");
    EXPECT_EQ(parseOk(R"("A")").asString(), "A");

    // Every control character is escaped on the way out, so a strict
    // parser accepts the text, and reads back as the same bytes.
    std::string all;
    for (int c = 1; c < 0x20; ++c)
        all += static_cast<char>(c);
    all += "\"q\\";
    const std::string escaped = jsonEscape(all);
    for (const char c : escaped)
        EXPECT_GE(static_cast<unsigned char>(c), 0x20u) << escaped;
    EXPECT_EQ(jsonEscape("a\nb\x01"), "a\\nb\\u0001");
    EXPECT_EQ(parseOk('"' + escaped + '"').asString(), all);
    std::ostringstream os;
    writeJsonCompact(os, parseOk('"' + escaped + '"'));
    EXPECT_EQ(os.str(), '"' + escaped + '"');
}

TEST(Json, ArraysAndObjects)
{
    const auto arr = parseOk("[1, \"two\", [3], {\"f\": 4}, null]");
    ASSERT_TRUE(arr.isArray());
    ASSERT_EQ(arr.items().size(), 5u);
    EXPECT_EQ(arr.items()[0].asU64(), 1u);
    EXPECT_EQ(arr.items()[1].asString(), "two");
    EXPECT_EQ(arr.items()[2].items()[0].asU64(), 3u);
    EXPECT_EQ(arr.items()[3].get("f")->asU64(), 4u);
    EXPECT_TRUE(arr.items()[4].isNull());
    EXPECT_TRUE(parseOk("[]").items().empty());
    EXPECT_TRUE(parseOk("{}").members().empty());

    const auto obj = parseOk(R"({"a": 1, "b": {"c": true}})");
    ASSERT_TRUE(obj.isObject());
    EXPECT_EQ(obj.members().size(), 2u);
    EXPECT_EQ(obj.members()[0].first, "a"); // source order kept
    EXPECT_EQ(obj.get("a")->asU64(), 1u);
    EXPECT_TRUE(obj.get("b")->get("c")->asBool());
    EXPECT_EQ(obj.get("missing"), nullptr);
    EXPECT_EQ(obj.get("a")->get("not-an-object"), nullptr);
}

TEST(Json, RejectsMalformedInput)
{
    EXPECT_TRUE(parseFails(""));
    EXPECT_TRUE(parseFails("   "));
    EXPECT_TRUE(parseFails("{"));
    EXPECT_TRUE(parseFails("[1, 2"));
    EXPECT_TRUE(parseFails("{\"a\": }"));
    EXPECT_TRUE(parseFails("{\"a\" 1}"));
    EXPECT_TRUE(parseFails("{a: 1}"));
    EXPECT_TRUE(parseFails("[1,, 2]"));
    EXPECT_TRUE(parseFails("\"unterminated"));
    EXPECT_TRUE(parseFails("\"bad\\escape\""));
    EXPECT_TRUE(parseFails("tru"));
    EXPECT_TRUE(parseFails("nul"));
    EXPECT_TRUE(parseFails("+1"));
    EXPECT_TRUE(parseFails("-"));
    EXPECT_TRUE(parseFails("1e"));
    EXPECT_TRUE(parseFails("1 2"));      // trailing garbage
    EXPECT_TRUE(parseFails("{} extra"));
    EXPECT_TRUE(parseFails("this is not JSON {]"));
}

TEST(Json, DepthLimit)
{
    // 80 nested arrays exceeds the parser's recursion bound; a sane
    // nesting parses fine.
    std::string deep;
    for (int i = 0; i < 80; ++i)
        deep += '[';
    deep += "1";
    for (int i = 0; i < 80; ++i)
        deep += ']';
    EXPECT_TRUE(parseFails(deep));

    std::string ok = "1";
    for (int i = 0; i < 20; ++i)
        ok = "[" + ok + "]";
    EXPECT_TRUE(parseOk(ok).isArray());
}

TEST(Json, CompactWriteRoundTripsByteExactly)
{
    // run_json splices nested documents (the stats tree) verbatim, so
    // parse -> writeJsonCompact of a compact document must reproduce
    // it byte for byte: member order kept, number tokens untouched.
    const std::string doc =
        R"({"a":18446744073709551615,"b":[1,2.50,{"c":"x\"y"}],)"
        R"("z":null,"t":true,"neg":-0.125e2})";
    std::ostringstream os;
    writeJsonCompact(os, parseOk(doc));
    EXPECT_EQ(os.str(), doc);

    // And re-parsing the rewrite agrees too (full fixed point).
    std::ostringstream os2;
    writeJsonCompact(os2, parseOk(os.str()));
    EXPECT_EQ(os2.str(), doc);
}

TEST(Json, ErrorMessageProvided)
{
    JsonValue v;
    std::string err;
    EXPECT_FALSE(parseJson("{\"a\":", v, &err));
    EXPECT_FALSE(err.empty());
}
