#include "common/json.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <istream>
#include <vector>

namespace qzz::json {

namespace {

/** (escape letter, byte) pairs of the two-character escapes, shared
 *  by the reader and the writer. */
constexpr std::pair<char, char> kShortEscapes[] = {
    {'"', '"'}, {'\\', '\\'}, {'b', '\b'}, {'f', '\f'},
    {'n', '\n'}, {'r', '\r'}, {'t', '\t'}};

/** The pair whose letter (@p by_letter) or byte is @p c, if any. */
const std::pair<char, char> *
shortEscape(bool by_letter, char c)
{
    for (const auto &e : kShortEscapes)
        if ((by_letter ? e.first : e.second) == c)
            return &e;
    return nullptr;
}

bool
isDigit(char c)
{
    return c >= '0' && c <= '9';
}

} // namespace

std::optional<int64_t>
asInteger(double v, int64_t lo, int64_t hi)
{
    // 2^63 is exactly representable, so the half-open test is exact;
    // it runs before the cast, which would be undefined out of range.
    if (v != std::trunc(v) ||
        !(v >= -9223372036854775808.0 && v < 9223372036854775808.0))
        return std::nullopt;
    const auto i = int64_t(v);
    if (i < lo || i > hi)
        return std::nullopt;
    return i;
}

std::optional<std::string>
readBounded(std::istream &is, size_t max_bytes)
{
    std::string text;
    std::streambuf &buf = *is.rdbuf();
    const auto here = buf.pubseekoff(0, std::ios::cur, std::ios::in);
    const auto end = here == -1
                         ? here
                         : buf.pubseekoff(0, std::ios::end, std::ios::in);
    if (end != -1 && buf.pubseekpos(here, std::ios::in) == here)
        text.reserve(std::min(size_t(end - here), max_bytes + 1));
    char chunk[size_t(64) << 10];
    while (text.size() <= max_bytes) {
        is.read(chunk, std::streamsize(std::min(
                           sizeof chunk, max_bytes + 1 - text.size())));
        if (is.gcount() == 0)
            break;
        text.append(chunk, size_t(is.gcount()));
    }
    if (text.size() > max_bytes)
        return std::nullopt;
    return text;
}

// ---------------------------------------------------------------------------
// Cursor
// ---------------------------------------------------------------------------

/**
 * The walker under Cursor: token scanning, the open containers
 * (bounded at kMaxDepth) and the first failure.  The structural calls
 * skip the whitespace before their token and return false once the
 * walk has failed; the scalar lexers start at the current byte.
 */
struct Cursor::State
{
    explicit State(std::string_view text) : text_(text) {}

    bool ok() const { return what_.empty(); }

    /** Records the first failure, at byte @p at. */
    bool
    fail(std::string what, size_t at)
    {
        if (ok()) {
            what_ = std::move(what);
            at_ = at;
        }
        return false;
    }

    /** Records the first failure, at the current position. */
    bool fail(std::string what) { return fail(std::move(what), pos_); }

    char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

    bool
    consume(char c)
    {
        if (peek() != c)
            return false;
        ++pos_;
        return true;
    }

    /** Skips whitespace and marks the next token; false once the walk
     *  has failed. */
    bool
    next()
    {
        while (consume(' ') || consume('\t') || consume('\n') ||
               consume('\r')) {
        }
        token_ = pos_;
        return ok();
    }

    /** Opens a container: @p c is '{' or '['. */
    bool
    open(char c)
    {
        if (!next())
            return false;
        if (peek() != c)
            return fail(std::string("expected '") + c + "'");
        if (frames_.size() == size_t(kMaxDepth))
            return fail("nesting deeper than " + std::to_string(kMaxDepth));
        ++pos_;
        frames_.push_back({c == '{' ? '}' : ']', true});
        return true;
    }

    /** Closes the innermost container with @p c, its closing bracket. */
    bool
    close(char c)
    {
        if (!next())
            return false;
        if (frames_.empty() || frames_.back().close != c || !consume(c))
            return fail(std::string("expected '") + c + "'");
        frames_.pop_back();
        return true;
    }

    /**
     * Steps to the next item of the innermost container, whose closing
     * bracket is @p c: false at @p c, which it consumes, or on failure;
     * otherwise true, past the ',' that separates the item from the
     * one before.
     */
    bool
    item(char c)
    {
        if (!next())
            return false;
        if (frames_.empty() || frames_.back().close != c)
            return fail(c == ']' ? "not in an array" : "not in an object");
        if (consume(c)) {
            frames_.pop_back();
            return false;
        }
        if (!frames_.back().first && !consume(','))
            return fail(std::string("expected ',' or '") + c + "'");
        frames_.back().first = false;
        return next();
    }

    /** The next member's key into @p k, and its ':'; false at the
     *  closing '}' or on failure (see item()). */
    bool
    member(std::string &k)
    {
        if (!item('}'))
            return false;
        k.clear();
        if (peek() != '"')
            return fail("expected a string key");
        const size_t at = pos_;
        if (!string(k) || !next())
            return false;
        token_ = at;
        return consume(':') || fail("expected ':'");
    }

    /** Only whitespace is left. */
    bool
    end()
    {
        return next() && ((frames_.empty() && pos_ == text_.size()) ||
                          fail("trailing content"));
    }

    bool
    literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            return fail("malformed literal");
        pos_ += word.size();
        return true;
    }

    bool
    digits()
    {
        if (!isDigit(peek()))
            return false;
        while (isDigit(peek()))
            ++pos_;
        return true;
    }

    bool
    number(double &out)
    {
        const size_t start = pos_;
        consume('-');
        if (!consume('0') && !digits())
            return fail("expected a value");
        if (consume('.') && !digits())
            return fail("malformed number");
        if (consume('e') || consume('E')) {
            if (!consume('+'))
                consume('-');
            if (!digits())
                return fail("malformed number");
        }
        // The grammar above is a subset of from_chars' own, so the
        // only failure left is a magnitude that rounds to infinity or
        // to zero: refused rather than silently changed.
        const char *end = text_.data() + pos_;
        const auto r = std::from_chars(text_.data() + start, end, out);
        if (r.ec != std::errc() || r.ptr != end)
            return fail("number out of range", start);
        return true;
    }

    /** A string literal; the caller has seen its opening quote. */
    bool
    string(std::string &out)
    {
        ++pos_; // opening quote
        for (;;) {
            const size_t run = pos_;
            while (pos_ < text_.size() && text_[pos_] != '"' &&
                   text_[pos_] != '\\' &&
                   static_cast<unsigned char>(text_[pos_]) >= 0x20)
                ++pos_;
            out.append(text_.substr(run, pos_ - run));
            if (consume('"'))
                return true;
            if (pos_ == text_.size())
                return fail("unterminated string");
            if (!consume('\\'))
                return fail("control character in string");
            if (pos_ == text_.size())
                return fail("unterminated string");
            const char e = text_[pos_++];
            if (e == 'u') {
                // ASCII only: the writer emits \u00XX for control
                // bytes and passes every other byte through raw.
                unsigned code = 0;
                const char *hex = text_.data() + pos_;
                const size_t n = std::min<size_t>(4, text_.size() - pos_);
                const auto r = std::from_chars(hex, hex + n, code, 16);
                pos_ += size_t(r.ptr - hex);
                if (r.ptr != hex + 4)
                    return fail("malformed \\u escape");
                if (code >= 0x80)
                    return fail("non-ASCII \\u escape", pos_ - 6);
                out.push_back(char(code));
            } else if (e == '/') {
                out.push_back(e);
            } else if (const auto *esc = shortEscape(true, e)) {
                out.push_back(esc->second);
            } else {
                return fail("unsupported escape", pos_ - 2);
            }
        }
    }

    struct Frame
    {
        char close;
        /** Nothing read in the container yet. */
        bool first;
    };

    std::string_view text_;
    size_t pos_ = 0;
    /** Where the last token read began. */
    size_t token_ = 0;
    std::vector<Frame> frames_;
    std::string what_;
    size_t at_ = 0;
};

Cursor::Cursor(std::string_view text, size_t max_bytes)
    : state_(std::make_unique<State>(text))
{
    if (text.size() > max_bytes) {
        state_->pos_ = max_bytes;
        state_->fail("document longer than " + std::to_string(max_bytes) +
                     " bytes");
    }
}

Cursor::~Cursor() = default;

bool Cursor::ok() const { return state_->ok(); }
bool Cursor::beginObject() { return state_->open('{'); }
bool Cursor::endObject() { return state_->close('}'); }
bool Cursor::member(std::string &k) { return state_->member(k); }
bool Cursor::beginArray() { return state_->open('['); }
bool Cursor::more() { return state_->item(']'); }
bool Cursor::end() { return state_->end(); }

bool
Cursor::fail(std::string what)
{
    return state_->fail(std::move(what), state_->token_);
}

std::string
Cursor::error(std::string_view member) const
{
    const State &w = *state_;
    std::string out = w.what_;
    if (!member.empty())
        out.append(" in '").append(member).append("'");
    return out + " at byte offset " + std::to_string(w.at_);
}

bool
Cursor::tryKey(std::string_view k)
{
    State &w = *state_;
    if (!w.next() || w.peek() == '}' || w.frames_.empty())
        return false;
    const size_t at = w.pos_;
    const bool first = w.frames_.back().first;
    std::string name;
    if (!w.member(name) || name == k)
        return w.ok();
    w.pos_ = at;
    w.frames_.back().first = first;
    return false;
}

bool
Cursor::key(std::string_view k)
{
    return tryKey(k) || state_->fail("expected key '" + std::string(k) + "'");
}

Cursor::Kind
Cursor::peek()
{
    State &w = *state_;
    w.next();
    switch (w.peek()) {
    case 'n':
        return Kind::Null;
    case 't':
    case 'f':
        return Kind::Bool;
    case '"':
        return Kind::String;
    case '[':
        return Kind::Array;
    case '{':
        return Kind::Object;
    default:
        return Kind::Number;
    }
}

bool
Cursor::null()
{
    return state_->next() && state_->literal("null");
}

bool
Cursor::boolean(bool &out)
{
    State &w = *state_;
    out = w.next() && w.peek() == 't';
    return w.ok() && w.literal(out ? "true" : "false");
}

bool
Cursor::integer(int64_t &out, int64_t lo, int64_t hi)
{
    double v = 0.0;
    if (!state_->next() || !state_->number(v))
        return false;
    const auto i = asInteger(v, lo, hi);
    out = i.value_or(0);
    return i.has_value() || fail("integer out of range");
}

bool
Cursor::real(double &out)
{
    State &w = *state_;
    if (!w.next())
        return false;
    if (w.peek() != '"')
        return w.number(out);
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::string text;
    if (!w.string(text))
        return false;
    if (text != "inf" && text != "-inf")
        return fail("expected a number");
    out = text == "inf" ? kInf : -kInf;
    return true;
}

bool
Cursor::string(std::string &out)
{
    State &w = *state_;
    out.clear();
    if (!w.next())
        return false;
    return w.peek() == '"' ? w.string(out) : w.fail("expected a string");
}

// ---------------------------------------------------------------------------
// Escaping
// ---------------------------------------------------------------------------

void
appendEscaped(std::string &out, std::string_view s)
{
    static const char hex[] = "0123456789abcdef";
    for (size_t i = 0; i < s.size(); ++i) {
        const size_t run = i;
        while (i < s.size() && s[i] != '"' && s[i] != '\\' &&
               static_cast<unsigned char>(s[i]) >= 0x20)
            ++i;
        out.append(s.substr(run, i - run));
        if (i == s.size())
            return;
        // RFC 8259: every control byte is escaped, or the emitted
        // line is not valid JSON.
        if (const auto *esc = shortEscape(false, s[i])) {
            out += '\\';
            out += esc->first;
        } else {
            out += "\\u00";
            out += hex[(s[i] >> 4) & 0xf];
            out += hex[s[i] & 0xf];
        }
    }
}

std::string
escape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    appendEscaped(out, s);
    return out;
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

void
Writer::separate()
{
    if (after_key_) {
        after_key_ = false; // the value follows its key on one line
        return;
    }
    if (!just_opened_)
        out_ += ',';
    if (depth_ > 0)
        newline();
    just_opened_ = false;
}

void
Writer::newline()
{
    if (pretty_) {
        out_ += '\n';
        out_.append(size_t(2 * depth_), ' ');
    }
}

Writer &
Writer::open(char bracket)
{
    separate();
    out_ += bracket;
    ++depth_;
    just_opened_ = true;
    return *this;
}

Writer &
Writer::close(char bracket)
{
    --depth_;
    if (!just_opened_)
        newline();
    out_ += bracket;
    just_opened_ = false;
    return *this;
}

Writer &
Writer::token(std::string_view text)
{
    separate();
    out_ += text;
    return *this;
}

Writer &
Writer::key(std::string_view k)
{
    value(k);
    out_ += pretty_ ? ": " : ":";
    after_key_ = true;
    return *this;
}

Writer &
Writer::value(double v)
{
    if (std::isnan(v))
        return null();
    if (std::isinf(v))
        return value(v > 0.0 ? "inf" : "-inf");
    char buf[32];
    return token({buf, std::to_chars(buf, buf + sizeof buf, v).ptr});
}

Writer &
Writer::value(std::string_view v)
{
    separate();
    out_ += '"';
    appendEscaped(out_, v);
    out_ += '"';
    return *this;
}

} // namespace qzz::json
