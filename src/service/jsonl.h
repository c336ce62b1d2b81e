/**
 * @file
 * JSON-lines request records for the service front-end.
 *
 * The compile_server protocol is one flat JSON object per line with
 * string / number / boolean / null values: no nesting is needed to
 * describe a compilation request, so none is accepted.  Parsing is
 * the strict common/json.h reader plus that one shape check; its
 * errors carry byte offsets.
 */

#ifndef QZZ_SERVICE_JSONL_H
#define QZZ_SERVICE_JSONL_H

#include <optional>
#include <string>
#include <string_view>

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

    bool has(std::string_view key) const { return doc_.find(key) != nullptr; }

    /** Typed accessors; nullopt when absent or differently typed. */
    std::optional<std::string> getString(std::string_view key) const;
    std::optional<double> getNumber(std::string_view key) const;
    std::optional<bool> getBool(std::string_view key) const;
    /** An integral number within int64; nullopt otherwise. */
    std::optional<int64_t> getInt(std::string_view key) const;

    const json::Object &fields() const { return *doc_.asObject(); }

  private:
    /** Always an object of scalars. */
    json::Value doc_ = json::Object{};
};

/** Escape @p s for embedding in a JSON string literal. */
inline std::string
jsonEscape(std::string_view s)
{
    return json::escape(s);
}

} // namespace qzz::svc

#endif // QZZ_SERVICE_JSONL_H
