/**
 * @file
 * Minimal JSON reader for the tooling side of the simulator (result
 * cache, manifests, regression scripts). Parses the subset of JSON
 * that run_json and the runner emit — objects, arrays, strings,
 * numbers, booleans, null — into an owning tree. Numbers keep their
 * source text so 64-bit counters round-trip exactly; no external
 * dependencies, deliberately small.
 */

#ifndef WLCACHE_UTIL_JSON_HH
#define WLCACHE_UTIL_JSON_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace wlcache {
namespace util {

/** One parsed JSON value (tree node). */
class JsonValue
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    /** Boolean payload (asserts isBool()). */
    bool asBool() const;
    /** Number as double (asserts isNumber()). */
    double asDouble() const;
    /**
     * Number as an unsigned 64-bit integer, parsed from the source
     * token so values above 2^53 survive (asserts isNumber()). Empty
     * unless the value is a non-negative integer below 2^64: "-1",
     * "1.5", "1e30" and "18446744073709551616" are all rejected.
     */
    std::optional<std::uint64_t> asU64() const;
    /** Raw number source token (asserts isNumber()). */
    const std::string &numberToken() const;
    /** String payload (asserts isString()). */
    const std::string &asString() const;

    /** Array elements (asserts isArray()). */
    const std::vector<JsonValue> &items() const;
    /** Object members in source order (asserts isObject()). */
    const std::vector<std::pair<std::string, JsonValue>> &
    members() const;

    /** Member lookup; null when absent or not an object. */
    const JsonValue *get(std::string_view key) const;

    // --- Construction (used by the parser) ---
    static JsonValue makeNull();
    static JsonValue makeBool(bool b);
    static JsonValue makeNumber(std::string token);
    static JsonValue makeString(std::string s);
    static JsonValue makeArray(std::vector<JsonValue> items);
    static JsonValue
    makeObject(std::vector<std::pair<std::string, JsonValue>> members);

  private:
    Kind kind_ = Kind::Null;
    bool bool_ = false;
    /** Number token text, or string payload. */
    std::string scalar_;
    std::vector<JsonValue> items_;
    std::vector<std::pair<std::string, JsonValue>> members_;
};

/**
 * Parse @p text as one JSON document.
 *
 * @param text Full document (trailing whitespace allowed).
 * @param out Receives the root value on success.
 * @param err Optional; receives a one-line diagnostic on failure.
 * @return true on success; false leaves @p out untouched.
 */
bool parseJson(const std::string &text, JsonValue &out,
               std::string *err = nullptr);

/**
 * @p s escaped for a JSON string literal (quotes not included), with
 * every control character escaped so strict parsers accept it.
 */
std::string jsonEscape(std::string_view s);

/**
 * Serialize @p v compactly (no whitespace). Object member order and
 * number source tokens are preserved, so parse -> write round-trips a
 * compactly-written document byte-for-byte — which lets run_json
 * re-embed nested documents (e.g. the stats tree) without loss.
 */
void writeJsonCompact(std::ostream &os, const JsonValue &v);

} // namespace util
} // namespace wlcache

#endif // WLCACHE_UTIL_JSON_HH
