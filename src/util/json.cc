#include "util/json.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ostream>

#include "sim/logging.hh"

namespace wlcache {
namespace util {

bool
JsonValue::asBool() const
{
    wlc_assert(isBool());
    return bool_;
}

double
JsonValue::asDouble() const
{
    wlc_assert(isNumber());
    return std::strtod(scalar_.c_str(), nullptr);
}

std::optional<std::uint64_t>
JsonValue::asU64() const
{
    wlc_assert(isNumber());
    // Plain digit tokens parse exactly (strtoull flags overflow);
    // signed, scientific and fractional tokens go through the double
    // value, which must be integral and inside [0, 2^64).
    if (scalar_.find_first_of("-.eE") == std::string::npos) {
        errno = 0;
        const std::uint64_t v = std::strtoull(scalar_.c_str(), nullptr, 10);
        return errno == ERANGE ? std::nullopt : std::optional(v);
    }
    const double d = asDouble();
    if (!(d >= 0.0 && d < 0x1p64) || d != std::floor(d))
        return std::nullopt;
    return static_cast<std::uint64_t>(d);
}

const std::string &
JsonValue::numberToken() const
{
    wlc_assert(isNumber());
    return scalar_;
}

const std::string &
JsonValue::asString() const
{
    wlc_assert(isString());
    return scalar_;
}

const std::vector<JsonValue> &
JsonValue::items() const
{
    wlc_assert(isArray());
    return items_;
}

const std::vector<std::pair<std::string, JsonValue>> &
JsonValue::members() const
{
    wlc_assert(isObject());
    return members_;
}

const JsonValue *
JsonValue::get(std::string_view key) const
{
    if (!isObject())
        return nullptr;
    for (const auto &[k, v] : members_)
        if (k == key)
            return &v;
    return nullptr;
}

JsonValue
JsonValue::makeNull()
{
    return JsonValue{};
}

JsonValue
JsonValue::makeBool(bool b)
{
    JsonValue v;
    v.kind_ = Kind::Bool;
    v.bool_ = b;
    return v;
}

JsonValue
JsonValue::makeNumber(std::string token)
{
    JsonValue v;
    v.kind_ = Kind::Number;
    v.scalar_ = std::move(token);
    return v;
}

JsonValue
JsonValue::makeString(std::string s)
{
    JsonValue v;
    v.kind_ = Kind::String;
    v.scalar_ = std::move(s);
    return v;
}

JsonValue
JsonValue::makeArray(std::vector<JsonValue> items)
{
    JsonValue v;
    v.kind_ = Kind::Array;
    v.items_ = std::move(items);
    return v;
}

JsonValue
JsonValue::makeObject(
    std::vector<std::pair<std::string, JsonValue>> members)
{
    JsonValue v;
    v.kind_ = Kind::Object;
    v.members_ = std::move(members);
    return v;
}

namespace {

/** Recursive-descent parser over the document text. */
class Parser
{
  public:
    Parser(const std::string &text, std::string *err)
        : text_(text), err_(err)
    {}

    bool
    parseDocument(JsonValue &out)
    {
        skipWs();
        JsonValue v;
        if (!parseValue(v, 0))
            return false;
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing characters after document");
        out = std::move(v);
        return true;
    }

  private:
    static constexpr int kMaxDepth = 64;

    bool
    fail(const std::string &what)
    {
        if (err_)
            *err_ = what + " at offset " + std::to_string(pos_);
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::string(word).size();
        if (text_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    bool
    parseValue(JsonValue &out, int depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        if (pos_ >= text_.size())
            return fail("unexpected end of document");
        const char c = text_[pos_];
        switch (c) {
          case '{': return parseObject(out, depth);
          case '[': return parseArray(out, depth);
          case '"': return parseString(out);
          case 't':
            if (!literal("true"))
                return fail("bad literal");
            out = JsonValue::makeBool(true);
            return true;
          case 'f':
            if (!literal("false"))
                return fail("bad literal");
            out = JsonValue::makeBool(false);
            return true;
          case 'n':
            if (!literal("null"))
                return fail("bad literal");
            out = JsonValue::makeNull();
            return true;
          default:
            return parseNumber(out);
        }
    }

    bool
    parseString(JsonValue &out)
    {
        std::string s;
        if (!parseRawString(s))
            return false;
        out = JsonValue::makeString(std::move(s));
        return true;
    }

    bool
    parseRawString(std::string &s)
    {
        wlc_assert(text_[pos_] == '"');
        ++pos_;
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c != '\\') {
                s += c;
                continue;
            }
            if (pos_ >= text_.size())
                break;
            const char esc = text_[pos_++];
            switch (esc) {
              case '"': s += '"'; break;
              case '\\': s += '\\'; break;
              case '/': s += '/'; break;
              case 'b': s += '\b'; break;
              case 'f': s += '\f'; break;
              case 'n': s += '\n'; break;
              case 'r': s += '\r'; break;
              case 't': s += '\t'; break;
              case 'u': {
                // ASCII-only escapes are enough for our writers.
                if (pos_ + 4 > text_.size())
                    return fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return fail("bad \\u escape");
                }
                if (code > 0x7f)
                    return fail("non-ASCII \\u escape unsupported");
                s += static_cast<char>(code);
                break;
              }
              default:
                return fail("unknown escape");
            }
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(JsonValue &out)
    {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        // Integer part: one digit, or a nonzero digit followed by
        // more — JSON forbids leading zeros ("0123") and a bare
        // fraction (".5").
        const std::size_t int_start = pos_;
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
        if (pos_ == int_start)
            return fail("malformed number");
        if (text_[int_start] == '0' && pos_ - int_start > 1)
            return fail("leading zero in number");
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            bool frac_digits = false;
            while (pos_ < text_.size() &&
                   std::isdigit(
                       static_cast<unsigned char>(text_[pos_]))) {
                ++pos_;
                frac_digits = true;
            }
            // "1." is not a JSON number either.
            if (!frac_digits)
                return fail("malformed fraction");
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            bool exp_digits = false;
            while (pos_ < text_.size() &&
                   std::isdigit(
                       static_cast<unsigned char>(text_[pos_]))) {
                ++pos_;
                exp_digits = true;
            }
            if (!exp_digits)
                return fail("malformed exponent");
        }
        out = JsonValue::makeNumber(text_.substr(start, pos_ - start));
        return true;
    }

    bool
    parseArray(JsonValue &out, int depth)
    {
        ++pos_; // '['
        std::vector<JsonValue> items;
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            out = JsonValue::makeArray(std::move(items));
            return true;
        }
        for (;;) {
            skipWs();
            JsonValue v;
            if (!parseValue(v, depth + 1))
                return false;
            items.push_back(std::move(v));
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated array");
            const char c = text_[pos_++];
            if (c == ']')
                break;
            if (c != ',')
                return fail("expected ',' or ']'");
        }
        out = JsonValue::makeArray(std::move(items));
        return true;
    }

    bool
    parseObject(JsonValue &out, int depth)
    {
        ++pos_; // '{'
        std::vector<std::pair<std::string, JsonValue>> members;
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            out = JsonValue::makeObject(std::move(members));
            return true;
        }
        for (;;) {
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return fail("expected member name");
            std::string key;
            if (!parseRawString(key))
                return false;
            skipWs();
            if (pos_ >= text_.size() || text_[pos_++] != ':')
                return fail("expected ':'");
            skipWs();
            JsonValue v;
            if (!parseValue(v, depth + 1))
                return false;
            members.emplace_back(std::move(key), std::move(v));
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated object");
            const char c = text_[pos_++];
            if (c == '}')
                break;
            if (c != ',')
                return fail("expected ',' or '}'");
        }
        out = JsonValue::makeObject(std::move(members));
        return true;
    }

    const std::string &text_;
    std::string *err_;
    std::size_t pos_ = 0;
};

} // anonymous namespace

bool
parseJson(const std::string &text, JsonValue &out, std::string *err)
{
    Parser p(text, err);
    return p.parseDocument(out);
}

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
writeJsonCompact(std::ostream &os, const JsonValue &v)
{
    switch (v.kind()) {
      case JsonValue::Kind::Null:
        os << "null";
        break;
      case JsonValue::Kind::Bool:
        os << (v.asBool() ? "true" : "false");
        break;
      case JsonValue::Kind::Number:
        // The source token verbatim: integers above 2^53 and exact
        // decimal representations survive the round-trip.
        os << v.numberToken();
        break;
      case JsonValue::Kind::String:
        os << '"' << jsonEscape(v.asString()) << '"';
        break;
      case JsonValue::Kind::Array: {
        os << '[';
        bool first = true;
        for (const JsonValue &item : v.items()) {
            if (!first)
                os << ',';
            first = false;
            writeJsonCompact(os, item);
        }
        os << ']';
        break;
      }
      case JsonValue::Kind::Object: {
        os << '{';
        bool first = true;
        for (const auto &[key, member] : v.members()) {
            if (!first)
                os << ',';
            first = false;
            os << '"' << jsonEscape(key) << "\":";
            writeJsonCompact(os, member);
        }
        os << '}';
        break;
      }
    }
}

} // namespace util
} // namespace wlcache
