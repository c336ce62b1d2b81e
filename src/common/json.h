/**
 * @file
 * The one JSON codec: a strict reader into json::Value and a writer
 * that appends to a std::string.
 *
 * Reader.  parse() accepts exactly RFC 8259 JSON and rejects, with the
 * byte offset in the message: duplicate object keys, trailing content,
 * raw control characters inside strings, \u escapes outside ASCII,
 * numbers that round to infinity or to zero from a nonzero literal,
 * nesting deeper than kMaxDepth and documents longer than
 * kMaxDocumentBytes.
 * Numbers are read with std::from_chars, so every double the writer
 * emits reads back bit-exactly.  Raw UTF-8 passes through strings
 * unchanged.
 *
 * Writer.  Numbers are written with std::to_chars in the shortest
 * form that round-trips; ±inf (which JSON numbers cannot carry) are
 * written as the strings "inf" / "-inf", and Value::asDouble() reads
 * those back.  Output is compact unless the writer is built pretty
 * (newlines and two-space indentation).
 *
 * Cursor.  A pull reader for fixed schemas read in member order
 * without building a tree.  parse() is built on the same walker, so
 * the two share one grammar and one depth bound.
 */

#ifndef QZZ_COMMON_JSON_H
#define QZZ_COMMON_JSON_H

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

namespace qzz::json {

/** parse() rejects longer documents before reading them. */
inline constexpr size_t kMaxDocumentBytes = size_t(4) << 20;
/** Arrays and objects nest at most this deep. */
inline constexpr int kMaxDepth = 64;

class Value;
using Array = std::vector<Value>;
/** Object members in document order (keys are unique). */
using Object = std::vector<std::pair<std::string, Value>>;

/** One parsed JSON value: null, bool, number, string, array or object. */
class Value
{
  public:
    Value() = default;
    Value(bool v) : v_(v) {}
    Value(double v) : v_(v) {}
    Value(std::string v) : v_(std::move(v)) {}
    Value(Array v) : v_(std::move(v)) {}
    Value(Object v) : v_(std::move(v)) {}

    /** Typed views; null when the value has another type. */
    const bool *asBool() const { return std::get_if<bool>(&v_); }
    const double *asNumber() const { return std::get_if<double>(&v_); }
    const std::string *asString() const
    {
        return std::get_if<std::string>(&v_);
    }
    const Array *asArray() const { return std::get_if<Array>(&v_); }
    const Object *asObject() const { return std::get_if<Object>(&v_); }

    /** Object member lookup; null when not an object or absent. */
    const Value *find(std::string_view key) const;

    /**
     * The number as an integer in [lo, hi]; nullopt when this is not
     * a number, has a fractional part or lies outside the range.  The
     * range check precedes the conversion, so no input reaches an
     * out-of-range double-to-integer cast.
     */
    std::optional<int64_t>
    asInt(int64_t lo = std::numeric_limits<int64_t>::min(),
          int64_t hi = std::numeric_limits<int64_t>::max()) const;

    /** A number, or one of the strings "inf" / "-inf" the writer
     *  emits for infinities. */
    std::optional<double> asDouble() const;

    bool operator==(const Value &) const = default;

  private:
    std::variant<std::nullptr_t, bool, double, std::string, Array, Object>
        v_;
};

/**
 * Parse one document.  On failure returns nullopt and, when @p error
 * is non-null, stores "<what> at byte offset <n>" (with the innermost
 * object key in the message when the failure is inside a member).
 */
std::optional<Value> parse(std::string_view text,
                           std::string *error = nullptr);

/**
 * Pull reader: walks one document token by token in the order the
 * caller expects, without building a tree, under parse()'s grammar
 * and depth bound.  For fixed schemas whose documents are too large
 * to hold as a Value tree (the program artifact); the caller bounds
 * the document's size.  Each call consumes one token with the
 * separator before it and returns false when the next token is not
 * the one asked for; the cursor then stays failed, except after the
 * clean "no" of tryKey() and more().
 */
class Cursor
{
  public:
    explicit Cursor(std::string_view text);
    ~Cursor();

    bool beginObject();
    /** The next member's key is @p k: consumes it and its ':' and
     *  returns true.  When it is another key or the object ends,
     *  consumes nothing and returns false. */
    bool tryKey(std::string_view k);
    /** tryKey(), failing the cursor when the next key is another. */
    bool key(std::string_view k);
    bool endObject();
    bool beginArray();
    /** True when another element follows (its ',' consumed); false at
     *  the closing ']', which it consumes, or on failure (see ok()). */
    bool more();

    bool boolean(bool &out);
    /** A number that is an integer in [lo, hi] (see Value::asInt()). */
    bool integer(int64_t &out, int64_t lo, int64_t hi);
    /** A number, or "inf" / "-inf" (see Value::asDouble()). */
    bool real(double &out);
    bool string(std::string &out);
    /** Only whitespace is left. */
    bool end();

    /** No call has failed. */
    bool ok() const;

  private:
    struct State;
    std::unique_ptr<State> state_;
};

/** Append @p s to @p out as the body of a JSON string literal. */
void appendEscaped(std::string &out, std::string_view s);

/** appendEscaped() into a new string. */
std::string escape(std::string_view s);

/**
 * Streaming writer appending to one string.  Commas, the key/value
 * colon and (when pretty) newlines with two-space indentation are
 * placed automatically; the caller closes what it opens.
 */
class Writer
{
  public:
    explicit Writer(std::string &out, bool pretty = false)
        : out_(out), pretty_(pretty)
    {
    }

    Writer &beginObject() { return open('{'); }
    Writer &endObject() { return close('}'); }
    Writer &beginArray() { return open('['); }
    Writer &endArray() { return close(']'); }
    Writer &key(std::string_view k);

    Writer &null() { return token("null"); }
    Writer &value(bool v) { return token(v ? "true" : "false"); }
    /** Shortest round-trip digits; ±inf as "inf"/"-inf", NaN as null. */
    Writer &value(double v);
    Writer &value(std::string_view v);
    Writer &value(const char *v) { return value(std::string_view(v)); }
    Writer &value(const std::string &v) { return value(std::string_view(v)); }
    template <typename T>
        requires std::is_integral_v<T> && (!std::is_same_v<T, bool>)
    Writer &
    value(T v)
    {
        char buf[24];
        return token({buf, std::to_chars(buf, buf + sizeof buf, v).ptr});
    }
    /** A whole parsed tree. */
    Writer &value(const Value &v);

    /** key(k) then value(v). */
    template <typename T>
    Writer &
    field(std::string_view k, const T &v)
    {
        key(k);
        return value(v);
    }

    /** Every element of @p range as one array. */
    template <typename Range>
    Writer &
    array(const Range &range)
    {
        beginArray();
        for (const auto &v : range)
            value(v);
        return endArray();
    }

  private:
    Writer &open(char bracket);
    Writer &close(char bracket);
    /** One scalar token, after its separator. */
    Writer &token(std::string_view text);
    void separate();
    void newline();

    std::string &out_;
    bool pretty_;
    int depth_ = 0;
    bool just_opened_ = true;
    bool after_key_ = false;
};

} // namespace qzz::json

#endif // QZZ_COMMON_JSON_H
