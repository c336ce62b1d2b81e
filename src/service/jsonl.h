/**
 * @file
 * JSON-lines request records for the service front-end.
 *
 * The compile_server protocol is one flat JSON object per line with
 * string / number / boolean / null values: no nesting is needed to
 * describe a compilation request, so none is accepted.  The line is
 * walked once with json::Cursor, which rejects an array or object
 * value at its opening bracket, a duplicate key at the key, and a
 * line longer than json::kMaxDocumentBytes before reading it; every
 * error carries a byte offset.
 */

#ifndef QZZ_SERVICE_JSONL_H
#define QZZ_SERVICE_JSONL_H

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/json.h"

namespace qzz::svc {

/** A parsed flat JSON object (members in line order). */
class JsonObject
{
  public:
    /**
     * Parse one JSON-lines record.  On failure returns nullopt and,
     * when @p error is non-null, stores a human-readable description.
     */
    static std::optional<JsonObject> parse(std::string_view line,
                                           std::string *error = nullptr);

    bool has(std::string_view key) const { return find(key) != nullptr; }

    /** Typed accessors; nullopt when absent or differently typed. */
    std::optional<std::string>
    getString(std::string_view key) const
    {
        return get<std::string>(key);
    }
    std::optional<double>
    getNumber(std::string_view key) const
    {
        return get<double>(key);
    }
    std::optional<bool>
    getBool(std::string_view key) const
    {
        return get<bool>(key);
    }
    /** An integral number within int64; nullopt otherwise. */
    std::optional<int64_t>
    getInt(std::string_view key) const
    {
        const std::optional<double> n = getNumber(key);
        return n ? json::asInteger(*n) : std::nullopt;
    }

  private:
    /** null, boolean, number or string. */
    using Scalar = std::variant<std::monostate, bool, double, std::string>;

    const Scalar *find(std::string_view key) const;

    template <typename T>
    std::optional<T>
    get(std::string_view key) const
    {
        const Scalar *v = find(key);
        const T *x = v != nullptr ? std::get_if<T>(v) : nullptr;
        return x != nullptr ? std::optional<T>(*x) : std::nullopt;
    }

    std::vector<std::pair<std::string, Scalar>> members_;
};

/** Escape @p s for embedding in a JSON string literal. */
inline std::string
jsonEscape(std::string_view s)
{
    return json::escape(s);
}

} // namespace qzz::svc

#endif // QZZ_SERVICE_JSONL_H
