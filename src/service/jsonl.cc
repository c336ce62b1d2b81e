#include "service/jsonl.h"

namespace qzz::svc {

std::optional<JsonObject>
JsonObject::parse(std::string_view line, std::string *error)
{
    const auto fail = [error](std::string why) -> std::optional<JsonObject> {
        if (error != nullptr)
            *error = std::move(why);
        return std::nullopt;
    };
    std::string why;
    std::optional<json::Value> doc = json::parse(line, &why);
    if (!doc)
        return fail(std::move(why));
    const json::Object *members = doc->asObject();
    if (members == nullptr)
        return fail("expected an object");
    for (const auto &[key, value] : *members)
        if (value.asArray() != nullptr || value.asObject() != nullptr)
            return fail("nested values are not part of the protocol (key '" +
                        key + "')");
    JsonObject obj;
    obj.doc_ = std::move(*doc);
    return obj;
}

std::optional<std::string>
JsonObject::getString(std::string_view key) const
{
    const json::Value *v = doc_.find(key);
    const std::string *s = v ? v->asString() : nullptr;
    return s ? std::optional<std::string>(*s) : std::nullopt;
}

std::optional<double>
JsonObject::getNumber(std::string_view key) const
{
    const json::Value *v = doc_.find(key);
    const double *n = v ? v->asNumber() : nullptr;
    return n ? std::optional<double>(*n) : std::nullopt;
}

std::optional<bool>
JsonObject::getBool(std::string_view key) const
{
    const json::Value *v = doc_.find(key);
    const bool *b = v ? v->asBool() : nullptr;
    return b ? std::optional<bool>(*b) : std::nullopt;
}

std::optional<int64_t>
JsonObject::getInt(std::string_view key) const
{
    const json::Value *v = doc_.find(key);
    return v ? v->asInt() : std::nullopt;
}

} // namespace qzz::svc
