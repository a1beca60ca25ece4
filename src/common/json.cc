#include "common/json.hh"

#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/logging.hh"

namespace sipt
{

Json
Json::object()
{
    Json j;
    j.kind_ = Kind::Object;
    return j;
}

Json
Json::array()
{
    Json j;
    j.kind_ = Kind::Array;
    return j;
}

bool
Json::asBool() const
{
    SIPT_ASSERT(kind_ == Kind::Bool, "json: not a bool");
    return bool_;
}

std::uint64_t
Json::asUint() const
{
    SIPT_ASSERT(kind_ == Kind::Uint, "json: not an integer");
    return uint_;
}

double
Json::asDouble() const
{
    if (kind_ == Kind::Uint)
        return static_cast<double>(uint_);
    SIPT_ASSERT(kind_ == Kind::Double, "json: not a number");
    return double_;
}

const std::string &
Json::asString() const
{
    SIPT_ASSERT(kind_ == Kind::String, "json: not a string");
    return str_;
}

std::size_t
Json::size() const
{
    if (kind_ == Kind::Array)
        return arr_.size();
    if (kind_ == Kind::Object)
        return obj_.size();
    return 0;
}

const Json &
Json::at(std::size_t i) const
{
    SIPT_ASSERT(kind_ == Kind::Array && i < arr_.size(),
                "json: bad array index");
    return arr_[i];
}

void
Json::push(Json v)
{
    SIPT_ASSERT(kind_ == Kind::Array, "json: push on non-array");
    arr_.push_back(std::move(v));
}

void
Json::set(const std::string &key, Json v)
{
    SIPT_ASSERT(kind_ == Kind::Object, "json: set on non-object");
    for (auto &member : obj_) {
        if (member.first == key) {
            member.second = std::move(v);
            return;
        }
    }
    obj_.emplace_back(key, std::move(v));
}

const Json *
Json::find(const std::string &key) const
{
    if (kind_ != Kind::Object)
        return nullptr;
    for (const auto &member : obj_) {
        if (member.first == key)
            return &member.second;
    }
    return nullptr;
}

const std::pair<std::string, Json> &
Json::member(std::size_t i) const
{
    SIPT_ASSERT(kind_ == Kind::Object && i < obj_.size(),
                "json: bad member index");
    return obj_[i];
}

const Json &
Json::get(const std::string &key) const
{
    const Json *v = find(key);
    SIPT_ASSERT(v != nullptr, "json: missing key ", key);
    return *v;
}

bool
Json::operator==(const Json &other) const
{
    if (kind_ != other.kind_)
        return false;
    switch (kind_) {
      case Kind::Null:
        return true;
      case Kind::Bool:
        return bool_ == other.bool_;
      case Kind::Uint:
        return uint_ == other.uint_;
      case Kind::Double:
        return double_ == other.double_;
      case Kind::String:
        return str_ == other.str_;
      case Kind::Array:
        return arr_ == other.arr_;
      case Kind::Object:
        return obj_ == other.obj_;
    }
    return false;
}

namespace
{

void
dumpString(std::string &out, const std::string &s)
{
    out += '"';
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
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
    out += '"';
}

/** Scalars only; containers are handled by Json::dump(). */
void
dumpValue(std::string &out, const Json &v)
{
    char buf[40];
    switch (v.kind()) {
      case Json::Kind::Null:
        out += "null";
        break;
      case Json::Kind::Bool:
        out += v.asBool() ? "true" : "false";
        break;
      case Json::Kind::Uint:
        std::snprintf(buf, sizeof(buf), "%" PRIu64, v.asUint());
        out += buf;
        break;
      case Json::Kind::Double:
        // 17 significant digits round-trip any IEEE-754 double.
        std::snprintf(buf, sizeof(buf), "%.17g", v.asDouble());
        // Keep doubles distinguishable from integers on re-parse.
        if (std::string_view(buf).find_first_of(".eEn") ==
            std::string_view::npos) {
            std::snprintf(buf, sizeof(buf), "%.1f", v.asDouble());
        }
        out += buf;
        break;
      case Json::Kind::String:
        dumpString(out, v.asString());
        break;
      case Json::Kind::Array:
      case Json::Kind::Object:
        panic("json: dumpValue on container");
    }
}

} // namespace

std::string
Json::dump() const
{
    if (kind_ == Kind::Object) {
        std::string out = "{";
        for (std::size_t i = 0; i < obj_.size(); ++i) {
            if (i)
                out += ',';
            dumpString(out, obj_[i].first);
            out += ':';
            out += obj_[i].second.dump();
        }
        out += '}';
        return out;
    }
    if (kind_ == Kind::Array) {
        std::string out = "[";
        for (std::size_t i = 0; i < arr_.size(); ++i) {
            if (i)
                out += ',';
            out += arr_[i].dump();
        }
        out += ']';
        return out;
    }
    std::string out;
    dumpValue(out, *this);
    return out;
}

namespace
{

/** Deepest container nesting parse() accepts. The deepest document
 *  the repo writes nests about five levels; the cap keeps a hostile
 *  frame from exhausting the stack through parseValue()'s
 *  recursion. */
constexpr unsigned maxDepth = 64;

/** Value of hex digit @p c, or -1. */
int
hexDigit(char c)
{
    if (c >= '0' && c <= '9')
        return c - '0';
    if (c >= 'a' && c <= 'f')
        return c - 'a' + 10;
    if (c >= 'A' && c <= 'F')
        return c - 'A' + 10;
    return -1;
}

bool
isDigit(char c)
{
    return c >= '0' && c <= '9';
}

/** Append code point @p cp as UTF-8. */
void
appendUtf8(std::string &out, std::uint32_t cp)
{
    if (cp < 0x80) {
        out += static_cast<char>(cp);
    } else if (cp < 0x800) {
        out += static_cast<char>(0xc0 | (cp >> 6));
        out += static_cast<char>(0x80 | (cp & 0x3f));
    } else if (cp < 0x10000) {
        out += static_cast<char>(0xe0 | (cp >> 12));
        out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
        out += static_cast<char>(0x80 | (cp & 0x3f));
    } else {
        out += static_cast<char>(0xf0 | (cp >> 18));
        out += static_cast<char>(0x80 | ((cp >> 12) & 0x3f));
        out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
        out += static_cast<char>(0x80 | (cp & 0x3f));
    }
}

/**
 * Strict RFC 8259 parser: anything outside the grammar — including
 * integers that overflow 64 bits, non-hex \u escapes, raw control
 * characters in strings, duplicate member names and nesting deeper
 * than maxDepth — is a parse failure, never a guess.
 */
struct Parser
{
    std::string_view text;
    std::size_t pos = 0;

    void
    skipWs()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r'))
            ++pos;
    }

    bool
    consume(char c)
    {
        skipWs();
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    bool
    literal(std::string_view lit)
    {
        if (text.substr(pos, lit.size()) == lit) {
            pos += lit.size();
            return true;
        }
        return false;
    }

    /** Four hex digits after a \u; nullopt when any is not hex. */
    std::optional<std::uint32_t>
    parseHex4()
    {
        if (pos + 4 > text.size())
            return std::nullopt;
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i) {
            const int d = hexDigit(text[pos++]);
            if (d < 0)
                return std::nullopt;
            v = (v << 4) | static_cast<std::uint32_t>(d);
        }
        return v;
    }

    std::optional<std::string>
    parseString()
    {
        if (!consume('"'))
            return std::nullopt;
        std::string out;
        while (pos < text.size()) {
            const char c = text[pos++];
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20)
                return std::nullopt;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos >= text.size())
                return std::nullopt;
            switch (text[pos++]) {
              case '"':
                out += '"';
                break;
              case '\\':
                out += '\\';
                break;
              case '/':
                out += '/';
                break;
              case 'b':
                out += '\b';
                break;
              case 'f':
                out += '\f';
                break;
              case 'n':
                out += '\n';
                break;
              case 't':
                out += '\t';
                break;
              case 'r':
                out += '\r';
                break;
              case 'u': {
                auto cp = parseHex4();
                if (!cp || (*cp >= 0xdc00 && *cp <= 0xdfff))
                    return std::nullopt;
                if (*cp >= 0xd800 && *cp <= 0xdbff) {
                    // A high surrogate must pair with a low one.
                    if (!literal("\\u"))
                        return std::nullopt;
                    const auto lo = parseHex4();
                    if (!lo || *lo < 0xdc00 || *lo > 0xdfff)
                        return std::nullopt;
                    cp = 0x10000 + ((*cp - 0xd800) << 10) +
                         (*lo - 0xdc00);
                }
                appendUtf8(out, *cp);
                break;
              }
              default:
                return std::nullopt;
            }
        }
        return std::nullopt;
    }

    /** -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)? — a plain
     *  non-negative integer is a Uint, anything else a Double. */
    std::optional<Json>
    parseNumber()
    {
        const std::size_t start = pos;
        auto digits = [&] {
            const std::size_t from = pos;
            while (pos < text.size() && isDigit(text[pos]))
                ++pos;
            return pos - from;
        };
        const bool negative = literal("-");
        if (pos < text.size() && text[pos] == '0')
            ++pos;
        else if (digits() == 0)
            return std::nullopt;
        bool integral = !negative;
        if (literal(".")) {
            integral = false;
            if (digits() == 0)
                return std::nullopt;
        }
        if (pos < text.size() &&
            (text[pos] == 'e' || text[pos] == 'E')) {
            integral = false;
            ++pos;
            if (!literal("+"))
                (void)literal("-");
            if (digits() == 0)
                return std::nullopt;
        }
        const std::string num(text.substr(start, pos - start));
        errno = 0;
        if (integral) {
            const unsigned long long v =
                std::strtoull(num.c_str(), nullptr, 10);
            if (errno == ERANGE)
                return std::nullopt;
            return Json(static_cast<std::uint64_t>(v));
        }
        const double v = std::strtod(num.c_str(), nullptr);
        if (std::isinf(v))
            return std::nullopt;
        return Json(v);
    }

    std::optional<Json>
    parseValue(unsigned depth)
    {
        skipWs();
        if (pos >= text.size())
            return std::nullopt;
        const char c = text[pos];
        if ((c == '{' || c == '[') && depth >= maxDepth)
            return std::nullopt;
        if (c == '{') {
            ++pos;
            Json obj = Json::object();
            if (consume('}'))
                return obj;
            while (true) {
                skipWs();
                auto key = parseString();
                if (!key || obj.find(*key) || !consume(':'))
                    return std::nullopt;
                auto val = parseValue(depth + 1);
                if (!val)
                    return std::nullopt;
                obj.set(*key, std::move(*val));
                if (consume(','))
                    continue;
                if (consume('}'))
                    return obj;
                return std::nullopt;
            }
        }
        if (c == '[') {
            ++pos;
            Json arr = Json::array();
            if (consume(']'))
                return arr;
            while (true) {
                auto val = parseValue(depth + 1);
                if (!val)
                    return std::nullopt;
                arr.push(std::move(*val));
                if (consume(','))
                    continue;
                if (consume(']'))
                    return arr;
                return std::nullopt;
            }
        }
        if (c == '"') {
            auto s = parseString();
            if (!s)
                return std::nullopt;
            return Json(std::move(*s));
        }
        if (literal("true"))
            return Json(true);
        if (literal("false"))
            return Json(false);
        if (literal("null"))
            return Json();
        return parseNumber();
    }
};

} // namespace

std::optional<Json>
Json::parse(std::string_view text)
{
    Parser p{text};
    auto v = p.parseValue(0);
    if (!v)
        return std::nullopt;
    p.skipWs();
    if (p.pos != text.size())
        return std::nullopt;
    return v;
}

} // namespace sipt
