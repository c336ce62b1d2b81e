#include "common/json.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <unordered_set>

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

/** The integer @p v in [lo, hi]; nullopt when it has a fractional
 *  part or lies outside the range. */
std::optional<int64_t>
integral(double v, int64_t lo, int64_t hi)
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

/**
 * The one structural walker under parse() and Cursor: token scanning,
 * the open containers (bounded at kMaxDepth) and the first failure.
 * The structural calls skip the whitespace before their token and
 * return false once the walk has failed; the scalar lexers start at
 * the current byte.
 */
struct Walker
{
    explicit Walker(std::string_view text) : text_(text) {}

    bool ok() const { return what_.empty(); }

    std::string
    error() const
    {
        const std::string in =
            context_.empty() ? "" : " in '" + context_ + "'";
        return what_ + in + " at byte offset " + std::to_string(at_);
    }

    /** Records the first failure, at the current position. */
    bool
    fail(std::string what)
    {
        if (ok()) {
            what_ = std::move(what);
            at_ = pos_;
        }
        return false;
    }

    char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

    bool
    consume(char c)
    {
        if (peek() != c)
            return false;
        ++pos_;
        return true;
    }

    /** Skips whitespace; false once the walk has failed. */
    bool
    next()
    {
        while (consume(' ') || consume('\t') || consume('\n') ||
               consume('\r')) {
        }
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
        key_at_ = pos_;
        k.clear();
        if (peek() != '"')
            return fail("expected a string key");
        if (!string(k) || !next())
            return false;
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
        if (r.ec != std::errc() || r.ptr != end) {
            pos_ = start;
            return fail("number out of range");
        }
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
                if (code >= 0x80) {
                    pos_ -= 6;
                    return fail("non-ASCII \\u escape");
                }
                out.push_back(char(code));
            } else if (e == '/') {
                out.push_back(e);
            } else if (const auto *esc = shortEscape(true, e)) {
                out.push_back(esc->second);
            } else {
                pos_ -= 2;
                return fail("unsupported escape");
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
    std::vector<Frame> frames_;
    std::string what_;
    size_t at_ = 0;
    /** Where the last member() key began. */
    size_t key_at_ = 0;
    /** Key of the innermost member whose value failed. */
    std::string context_;
};

/** One value of any kind into @p out, recursively. */
bool
readValue(Walker &w, Value &out)
{
    if (!w.next())
        return false;
    const char c = w.peek();
    if (c == '{') {
        Object members;
        // Duplicate check: a linear scan while the object is narrow,
        // a hash index past that, so wide objects stay linear-time.
        constexpr size_t kLinearScan = 16;
        std::unordered_set<std::string> index;
        std::string key;
        if (!w.open('{'))
            return false;
        while (w.member(key)) {
            bool duplicate = false;
            if (members.size() < kLinearScan) {
                for (const auto &member : members)
                    duplicate = duplicate || member.first == key;
            } else {
                if (index.empty())
                    for (const auto &member : members)
                        index.insert(member.first);
                duplicate = !index.insert(key).second;
            }
            if (duplicate) {
                w.pos_ = w.key_at_;
                return w.fail("duplicate key '" + key + "'");
            }
            Value v;
            if (!readValue(w, v)) {
                if (w.context_.empty())
                    w.context_ = key;
                return false;
            }
            members.emplace_back(std::move(key), std::move(v));
        }
        out = Value(std::move(members));
        return w.ok();
    }
    if (c == '[') {
        Array items;
        if (!w.open('['))
            return false;
        while (w.item(']'))
            if (!readValue(w, items.emplace_back()))
                return false;
        out = Value(std::move(items));
        return w.ok();
    }
    if (c == '"') {
        std::string s;
        if (!w.string(s))
            return false;
        out = Value(std::move(s));
        return true;
    }
    if (c == 't' || c == 'f' || c == 'n') {
        const std::string_view word = c == 't'   ? "true"
                                      : c == 'f' ? "false"
                                                 : "null";
        if (!w.literal(word))
            return false;
        out = c == 'n' ? Value() : Value(c == 't');
        return true;
    }
    double v = 0.0;
    if (!w.number(v))
        return false;
    out = Value(v);
    return true;
}

} // namespace

const Value *
Value::find(std::string_view key) const
{
    if (const Object *members = asObject())
        for (const auto &member : *members)
            if (member.first == key)
                return &member.second;
    return nullptr;
}

std::optional<int64_t>
Value::asInt(int64_t lo, int64_t hi) const
{
    const double *v = asNumber();
    return v != nullptr ? integral(*v, lo, hi) : std::nullopt;
}

std::optional<double>
Value::asDouble() const
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    if (const double *v = asNumber())
        return *v;
    const std::string *s = asString();
    if (s != nullptr && (*s == "inf" || *s == "-inf"))
        return *s == "inf" ? kInf : -kInf;
    return std::nullopt;
}

std::optional<Value>
parse(std::string_view text, std::string *error)
{
    Walker w(text);
    Value out;
    if (text.size() > kMaxDocumentBytes) {
        w.pos_ = kMaxDocumentBytes;
        w.fail("document longer than " + std::to_string(kMaxDocumentBytes) +
               " bytes");
    } else if (readValue(w, out) && w.end()) {
        return out;
    }
    if (error != nullptr)
        *error = w.error();
    return std::nullopt;
}

// ---------------------------------------------------------------------------
// Cursor
// ---------------------------------------------------------------------------

struct Cursor::State : Walker
{
    using Walker::Walker;
};

Cursor::Cursor(std::string_view text) : state_(std::make_unique<State>(text))
{
}

Cursor::~Cursor() = default;

bool Cursor::ok() const { return state_->ok(); }
bool Cursor::beginObject() { return state_->open('{'); }
bool Cursor::endObject() { return state_->close('}'); }
bool Cursor::beginArray() { return state_->open('['); }
bool Cursor::more() { return state_->item(']'); }
bool Cursor::end() { return state_->end(); }

bool
Cursor::tryKey(std::string_view k)
{
    Walker &w = *state_;
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

bool
Cursor::boolean(bool &out)
{
    Walker &w = *state_;
    out = w.next() && w.peek() == 't';
    return w.ok() && w.literal(out ? "true" : "false");
}

bool
Cursor::integer(int64_t &out, int64_t lo, int64_t hi)
{
    double v = 0.0;
    if (!state_->next() || !state_->number(v))
        return false;
    const auto i = integral(v, lo, hi);
    out = i.value_or(0);
    return i.has_value() || state_->fail("integer out of range");
}

bool
Cursor::real(double &out)
{
    Walker &w = *state_;
    if (!w.next())
        return false;
    if (w.peek() != '"')
        return w.number(out);
    std::string text;
    const auto v =
        w.string(text) ? Value(std::move(text)).asDouble() : std::nullopt;
    out = v.value_or(0.0);
    return v.has_value() || w.fail("expected a number");
}

bool
Cursor::string(std::string &out)
{
    Walker &w = *state_;
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

Writer &
Writer::value(const Value &v)
{
    if (const Array *items = v.asArray())
        return array(*items);
    if (const Object *members = v.asObject()) {
        beginObject();
        for (const auto &[k, member] : *members)
            field(k, member);
        return endObject();
    }
    if (const bool *b = v.asBool())
        return value(*b);
    if (const double *d = v.asNumber())
        return value(*d);
    if (const std::string *s = v.asString())
        return value(std::string_view(*s));
    return null();
}

} // namespace qzz::json
