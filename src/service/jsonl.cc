#include "service/jsonl.h"

namespace qzz::svc {

std::optional<JsonObject>
JsonObject::parse(std::string_view line, std::string *error)
{
    using Kind = json::Cursor::Kind;
    json::Cursor c(line, json::kMaxDocumentBytes);
    JsonObject obj;
    std::string key;
    // The member whose value failed to read, named in the error.
    std::string in;
    const auto scalar = [&c](Kind kind, Scalar &v) {
        bool b = false;
        double d = 0.0;
        switch (kind) {
        case Kind::Null:
            return c.null();
        case Kind::Bool:
            if (!c.boolean(b))
                return false;
            v = b;
            return true;
        case Kind::String:
            return c.string(v.emplace<std::string>());
        default:
            if (!c.real(d))
                return false;
            v = d;
            return true;
        }
    };
    // After a failure member() is false and end() reports it.
    c.beginObject();
    while (c.member(key)) {
        if (obj.members_.size() == kMaxMembers) {
            c.fail("too many members (limit " + std::to_string(kMaxMembers) +
                   ")");
            break;
        }
        // At most kMaxMembers members, so a scan is cheap enough.
        bool duplicate = false;
        for (const auto &member : obj.members_)
            duplicate = duplicate || member.first == key;
        if (duplicate) {
            c.fail("duplicate key '" + key + "'");
            break;
        }
        const Kind kind = c.peek();
        if (kind == Kind::Array || kind == Kind::Object) {
            c.fail("nested values are not part of the protocol (key '" + key +
                   "')");
            break;
        }
        Scalar v;
        if (!scalar(kind, v)) {
            in = key;
            break;
        }
        obj.members_.emplace_back(std::move(key), std::move(v));
    }
    if (c.end())
        return obj;
    if (error != nullptr)
        *error = c.error(in);
    return std::nullopt;
}

const JsonObject::Scalar *
JsonObject::find(std::string_view key) const
{
    for (const auto &member : members_)
        if (member.first == key)
            return &member.second;
    return nullptr;
}

} // namespace qzz::svc
