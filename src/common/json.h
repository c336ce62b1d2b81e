/**
 * @file
 * The one JSON codec: a strict pull reader (Cursor) and a writer that
 * appends to a std::string.
 *
 * Reader.  Cursor walks one document token by token under exactly the
 * RFC 8259 grammar without building a tree, and rejects, with the byte
 * offset in the message: trailing content, raw control characters
 * inside strings, \u escapes outside ASCII, numbers that round to
 * infinity or to zero from a nonzero literal, nesting deeper than
 * kMaxDepth and, given a bound, longer documents.  Its callers read a
 * fixed schema member by member (the program artifact) or a flat list
 * of members (request lines, calibration documents) and reject
 * duplicate keys themselves.  Numbers are read with std::from_chars,
 * so every double the writer emits reads back bit-exactly.  Raw UTF-8
 * passes through strings unchanged.
 *
 * Writer.  Numbers are written with std::to_chars in the shortest
 * form that round-trips; ±inf (which JSON numbers cannot carry) are
 * written as the strings "inf" / "-inf", and Cursor::real() reads
 * those back.  Output is compact unless the writer is built pretty
 * (newlines and two-space indentation).
 */

#ifndef QZZ_COMMON_JSON_H
#define QZZ_COMMON_JSON_H

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

namespace qzz::json {

/** The request and calibration readers reject longer documents
 *  before reading them. */
inline constexpr size_t kMaxDocumentBytes = size_t(4) << 20;
/** Arrays and objects nest at most this deep. */
inline constexpr int kMaxDepth = 64;

/**
 * The number @p v as an integer in [lo, hi]; nullopt when it has a
 * fractional part or lies outside the range.  The range check
 * precedes the conversion, so no input reaches an out-of-range
 * double-to-integer cast.
 */
std::optional<int64_t>
asInteger(double v, int64_t lo = std::numeric_limits<int64_t>::min(),
          int64_t hi = std::numeric_limits<int64_t>::max());

/**
 * The rest of @p is; nullopt past @p max_bytes, reading at most one
 * byte beyond it.  A stream that can seek (a file) tells its size
 * first, so the buffer is allocated once, exactly.  The caller checks
 * the stream for IO errors.
 */
std::optional<std::string> readBounded(std::istream &is, size_t max_bytes);

/**
 * Pull reader: walks one document token by token in the order the
 * caller expects, without building a tree.  Each call consumes one
 * token with the separator before it and returns false when the next
 * token is not the one asked for; the cursor then stays failed,
 * except after the clean "no" of tryKey() and more().  error()
 * positions the first failure.
 */
class Cursor
{
  public:
    /** What the next value is, by its first byte. */
    enum class Kind { Null, Bool, Number, String, Array, Object };

    /** Past @p max_bytes the cursor starts failed ("document longer
     *  than"), without reading. */
    explicit Cursor(std::string_view text,
                    size_t max_bytes = std::string_view::npos);
    ~Cursor();

    bool beginObject();
    /** The next member's key is @p k: consumes it and its ':' and
     *  returns true.  When it is another key or the object ends,
     *  consumes nothing and returns false. */
    bool tryKey(std::string_view k);
    /** tryKey(), failing the cursor when the next key is another. */
    bool key(std::string_view k);
    /** The next member's key, whatever it is, into @p k with its ':';
     *  false at the closing '}', which it consumes, or on failure. */
    bool member(std::string &k);
    bool endObject();
    bool beginArray();
    /** True when another element follows (its ',' consumed); false at
     *  the closing ']', which it consumes, or on failure (see ok()). */
    bool more();

    /** The kind of the next value; consumes nothing.  A byte that
     *  starts no value reads as Number, whose read then fails. */
    Kind peek();
    bool null();
    bool boolean(bool &out);
    /** A number that is an integer in [lo, hi] (see asInteger()). */
    bool integer(int64_t &out, int64_t lo, int64_t hi);
    /** A number, or one of the strings "inf" / "-inf" the writer
     *  emits for infinities. */
    bool real(double &out);
    bool string(std::string &out);
    /** Only whitespace is left. */
    bool end();

    /** No call has failed. */
    bool ok() const;
    /** Fails the cursor with @p what at the start of the last token
     *  read or peeked (a key, a value or a closing bracket); returns
     *  false. */
    bool fail(std::string what);
    /** "<what> at byte offset <n>" of the first failure, with
     *  " in '<member>'" before the offset when @p member is given. */
    std::string error(std::string_view member = {}) const;

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
