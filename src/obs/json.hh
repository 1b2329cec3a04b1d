/**
 * @file
 * Minimal JSON document model for the observability layer.
 *
 * Run manifests and Chrome trace files are JSON; the tests round-trip
 * them.  This is deliberately tiny: ordered objects (insertion order
 * is preserved so rendering is deterministic), raw-text numbers (what
 * you wrote is what you read back, byte for byte), and a strict
 * recursive-descent parser.  No external dependencies.
 */

#ifndef SPLAB_OBS_JSON_HH
#define SPLAB_OBS_JSON_HH

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "support/types.hh"

namespace splab
{
namespace obs
{

/** One JSON value; objects keep keys in insertion order. */
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
        Object
    };

    JsonValue() : valueKind(Kind::Null) {}

    /// @name Factories
    /// @{
    static JsonValue null() { return JsonValue(); }
    static JsonValue boolean(bool b);
    static JsonValue number(double v);
    static JsonValue number(u64 v);
    static JsonValue number(i64 v);
    /** A number from its exact textual form (kept verbatim). */
    static JsonValue rawNumber(std::string text);
    static JsonValue string(std::string s);
    static JsonValue array();
    static JsonValue object();
    /// @}

    Kind kind() const { return valueKind; }
    bool isNull() const { return valueKind == Kind::Null; }
    bool isArray() const { return valueKind == Kind::Array; }

    bool asBool() const;
    double asDouble() const;
    u64 asU64() const;
    const std::string &asString() const;
    /** Exact number token as written/parsed. */
    const std::string &numberText() const;

    /// @name Arrays
    /// @{
    void push(JsonValue v);
    std::size_t size() const;
    const JsonValue &at(std::size_t i) const;
    /// @}

    /// @name Objects
    /// @{
    /** Insert or overwrite; insertion order is preserved. */
    void set(const std::string &key, JsonValue v);
    /** @return member or nullptr when absent / not an object. */
    const JsonValue *find(const std::string &key) const;
    const std::vector<std::pair<std::string, JsonValue>> &
    members() const
    {
        return obj;
    }
    /// @}

    /**
     * Pretty-print with two-space indentation.  Deterministic: the
     * output depends only on the value (insertion order included).
     */
    std::string render() const;

  private:
    Kind valueKind;
    bool boolVal = false;
    std::string text; ///< number token or string payload
    std::vector<JsonValue> arr;
    std::vector<std::pair<std::string, JsonValue>> obj;

    void renderTo(std::string &out, int depth) const;
};

/** Escape a string for embedding between JSON quotes. */
std::string jsonEscape(const std::string &s);

/**
 * Shortest round-trip decimal rendering of a double (tries %.15g,
 * widens to %.17g when lossy).  Deterministic.
 */
std::string formatDouble(double v);

/** Parse a complete JSON document; nullopt on any syntax error. */
std::optional<JsonValue> parseJson(const std::string &text);

/** FNV-1a 64-bit hash (content hashes in manifests). */
u64 fnv1a64(const void *data, std::size_t len);

} // namespace obs
} // namespace splab

#endif // SPLAB_OBS_JSON_HH
