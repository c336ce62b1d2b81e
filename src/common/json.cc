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

/** Recursive-descent reader over one document. */
class Reader
{
  public:
    explicit Reader(std::string_view text) : text_(text) {}

    bool
    document(Value &out)
    {
        if (text_.size() > kMaxDocumentBytes) {
            pos_ = kMaxDocumentBytes;
            return fail("document longer than " +
                        std::to_string(kMaxDocumentBytes) + " bytes");
        }
        skipSpace();
        if (!value(out, 0))
            return false;
        skipSpace();
        return pos_ == text_.size() || fail("trailing content");
    }

    std::string
    error() const
    {
        const std::string in =
            context_.empty() ? "" : " in '" + context_ + "'";
        return what_ + in + " at byte offset " + std::to_string(at_);
    }

  private:
    bool
    fail(std::string what)
    {
        what_ = std::move(what);
        at_ = pos_;
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

    void
    skipSpace()
    {
        while (consume(' ') || consume('\t') || consume('\n') ||
               consume('\r')) {
        }
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
    value(Value &out, int depth)
    {
        const char c = peek();
        if (c == '{' || c == '[') {
            if (depth == kMaxDepth)
                return fail("nesting deeper than " +
                            std::to_string(kMaxDepth));
            return c == '{' ? object(out, depth + 1) : array(out, depth + 1);
        }
        if (c == '"') {
            std::string s;
            if (!string(s))
                return false;
            out = Value(std::move(s));
            return true;
        }
        if (c == 't' || c == 'f' || c == 'n') {
            const std::string_view word = c == 't'   ? "true"
                                          : c == 'f' ? "false"
                                                     : "null";
            if (text_.substr(pos_, word.size()) != word)
                return fail("malformed literal");
            pos_ += word.size();
            out = c == 'n' ? Value() : Value(c == 't');
            return true;
        }
        return number(out);
    }

    bool
    number(Value &out)
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
        double v = 0.0;
        const char *end = text_.data() + pos_;
        const auto r = std::from_chars(text_.data() + start, end, v);
        if (r.ec != std::errc() || r.ptr != end) {
            pos_ = start;
            return fail("number out of range");
        }
        out = Value(v);
        return true;
    }

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

    bool
    array(Value &out, int depth)
    {
        ++pos_; // '['
        Array items;
        skipSpace();
        while (!consume(']')) {
            if (!items.empty() && !consume(','))
                return fail("expected ',' or ']'");
            skipSpace();
            if (!value(items.emplace_back(), depth))
                return false;
            skipSpace();
        }
        out = Value(std::move(items));
        return true;
    }

    bool
    object(Value &out, int depth)
    {
        ++pos_; // '{'
        Object members;
        // Duplicate check: a linear scan while the object is narrow,
        // a hash index past that, so wide objects stay linear-time.
        constexpr size_t kLinearScan = 16;
        std::unordered_set<std::string> index;
        skipSpace();
        while (!consume('}')) {
            if (!members.empty() && !consume(','))
                return fail("expected ',' or '}'");
            skipSpace();
            const size_t key_at = pos_;
            std::string key;
            if (peek() != '"')
                return fail("expected a string key");
            if (!string(key))
                return false;
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
                pos_ = key_at;
                return fail("duplicate key '" + key + "'");
            }
            skipSpace();
            if (!consume(':'))
                return fail("expected ':'");
            skipSpace();
            Value v;
            if (!value(v, depth)) {
                if (context_.empty())
                    context_ = key;
                return false;
            }
            members.emplace_back(std::move(key), std::move(v));
            skipSpace();
        }
        out = Value(std::move(members));
        return true;
    }

    std::string_view text_;
    size_t pos_ = 0;
    std::string what_;
    size_t at_ = 0;
    /** Key of the innermost member whose value failed. */
    std::string context_;
};

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
    // 2^63 is exactly representable, so the half-open test is exact;
    // it runs before the cast, which would be undefined out of range.
    if (v == nullptr || *v != std::trunc(*v) ||
        !(*v >= -9223372036854775808.0 && *v < 9223372036854775808.0))
        return std::nullopt;
    const auto i = int64_t(*v);
    if (i < lo || i > hi)
        return std::nullopt;
    return i;
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
    Reader reader(text);
    Value out;
    if (reader.document(out))
        return out;
    if (error != nullptr)
        *error = reader.error();
    return std::nullopt;
}

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
