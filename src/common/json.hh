/**
 * @file
 * A deliberately small JSON value type for the sweep engine's
 * on-disk run cache (and any other tooling that wants structured,
 * human-inspectable files) without an external dependency.
 *
 * Supported: null, bool, unsigned 64-bit integers, doubles,
 * strings, arrays, objects. Objects preserve insertion order so a
 * value always serialises to the same bytes. Doubles round-trip
 * exactly (printed with 17 significant digits).
 *
 * The parser is strict RFC 8259: it reads every run-cache entry,
 * so it rejects what it cannot represent exactly (integer
 * overflow, duplicate member names, nesting deeper than 64)
 * instead of guessing.
 */

#ifndef SIPT_COMMON_JSON_HH
#define SIPT_COMMON_JSON_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sipt
{

class Json
{
  public:
    enum class Kind : std::uint8_t
    {
        Null,
        Bool,
        Uint,
        Double,
        String,
        Array,
        Object,
    };

    Json() = default;
    Json(bool b) : kind_(Kind::Bool), bool_(b) {}
    Json(std::uint64_t u) : kind_(Kind::Uint), uint_(u) {}
    Json(double d) : kind_(Kind::Double), double_(d) {}
    Json(std::string s) : kind_(Kind::String), str_(std::move(s)) {}
    Json(const char *s) : kind_(Kind::String), str_(s) {}

    /** An empty object / array. */
    static Json object();
    static Json array();

    Kind kind() const { return kind_; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isUint() const { return kind_ == Kind::Uint; }
    bool isDouble() const { return kind_ == Kind::Double; }
    /** Uint or Double (what asDouble() accepts). */
    bool isNumber() const
    {
        return kind_ == Kind::Uint || kind_ == Kind::Double;
    }
    bool isString() const { return kind_ == Kind::String; }
    bool isObject() const { return kind_ == Kind::Object; }
    bool isArray() const { return kind_ == Kind::Array; }

    bool asBool() const;
    std::uint64_t asUint() const;
    /** Numeric value; accepts both Uint and Double. */
    double asDouble() const;
    const std::string &asString() const;

    /** Array element count / object member count. */
    std::size_t size() const;

    /** Array element (panics when out of range / not an array). */
    const Json &at(std::size_t i) const;

    /** Append to an array. */
    void push(Json v);

    /** Set (or overwrite) an object member. */
    void set(const std::string &key, Json v);

    /** Object member lookup; nullptr when absent. */
    const Json *find(const std::string &key) const;

    /**
     * Object member by insertion index (panics when out of range /
     * not an object). Together with size() this lets validators —
     * e.g. the run cache's strict result decoder — walk an
     * object's members and reject unknown keys.
     */
    const std::pair<std::string, Json> &
    member(std::size_t i) const;

    /** Object member lookup that panics when absent. */
    const Json &get(const std::string &key) const;

    /** Serialise to a canonical single-line string. */
    std::string dump() const;

    /** Parse @p text; std::nullopt on malformed input, on an
     *  integer beyond 2^64-1 or a number beyond double range, on a
     *  duplicate member name, and on nesting deeper than 64. */
    static std::optional<Json> parse(std::string_view text);

    bool operator==(const Json &other) const;

  private:
    Kind kind_ = Kind::Null;
    bool bool_ = false;
    std::uint64_t uint_ = 0;
    double double_ = 0.0;
    std::string str_;
    std::vector<Json> arr_;
    std::vector<std::pair<std::string, Json>> obj_;
};

} // namespace sipt

#endif // SIPT_COMMON_JSON_HH
