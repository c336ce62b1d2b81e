/**
 * @file
 * JSON-lines request parser tests: the accepted scalar grammar, the
 * rejected constructs (with positions), and typed accessors.
 */

#include <gtest/gtest.h>

#include "service/jsonl.h"

namespace qzz::svc {
namespace {

TEST(JsonlTest, ParsesFlatObjectOfAllScalarTypes)
{
    const auto obj = JsonObject::parse(
        R"({"s":"hello","n":-2.5e3,"i":42,"t":true,"f":false,"z":null})");
    ASSERT_TRUE(obj.has_value());
    EXPECT_EQ(obj->getString("s"), "hello");
    EXPECT_EQ(obj->getNumber("n"), -2500.0);
    EXPECT_EQ(obj->getInt("i"), 42);
    EXPECT_EQ(obj->getBool("t"), true);
    EXPECT_EQ(obj->getBool("f"), false);
    EXPECT_TRUE(obj->has("z"));
    EXPECT_FALSE(obj->getNumber("z").has_value()); // null has no type
    EXPECT_FALSE(obj->has("y"));
}

TEST(JsonlTest, EmptyObjectAndSurroundingWhitespace)
{
    EXPECT_TRUE(JsonObject::parse("  { }  ").has_value());
    EXPECT_TRUE(JsonObject::parse("{}").has_value());
}

TEST(JsonlTest, StringEscapes)
{
    const auto obj =
        JsonObject::parse(R"({"k":"a\"b\\c\nd\te"})");
    ASSERT_TRUE(obj.has_value());
    EXPECT_EQ(obj->getString("k"), "a\"b\\c\nd\te");
}

TEST(JsonlTest, TypedAccessorsRejectWrongTypes)
{
    const auto obj = JsonObject::parse(R"({"s":"x","n":1.5})");
    ASSERT_TRUE(obj.has_value());
    EXPECT_FALSE(obj->getNumber("s").has_value());
    EXPECT_FALSE(obj->getString("n").has_value());
    EXPECT_FALSE(obj->getBool("n").has_value());
    EXPECT_FALSE(obj->getInt("n").has_value()); // not integral
    EXPECT_FALSE(obj->getString("missing").has_value());
}

TEST(JsonlTest, GetIntRejectsOutOfRangeValues)
{
    // Casting an out-of-int64-range double is UB; the accessor must
    // reject it, not invoke it.
    const auto obj = JsonObject::parse(
        R"({"huge":1e300,"neg":-1e300,"edge":9223372036854775808,"ok":42})");
    ASSERT_TRUE(obj.has_value());
    EXPECT_FALSE(obj->getInt("huge").has_value());
    EXPECT_FALSE(obj->getInt("neg").has_value());
    EXPECT_FALSE(obj->getInt("edge").has_value()); // 2^63 itself
    EXPECT_EQ(obj->getInt("ok"), 42);
}

TEST(JsonlTest, RejectsMalformedInputWithPosition)
{
    std::string error;
    EXPECT_FALSE(JsonObject::parse("", &error).has_value());
    EXPECT_FALSE(JsonObject::parse("[1,2]", &error).has_value());
    EXPECT_FALSE(JsonObject::parse(R"({"a":1)", &error).has_value());
    EXPECT_FALSE(
        JsonObject::parse(R"({"a":1} trailing)", &error).has_value());
    EXPECT_FALSE(
        JsonObject::parse(R"({"a":"unterminated)", &error).has_value());
    EXPECT_FALSE(
        JsonObject::parse(R"({"a":tru})", &error).has_value());
    EXPECT_NE(error.find("offset"), std::string::npos);
}

TEST(JsonlTest, RejectsNestingAndDuplicates)
{
    std::string error;
    EXPECT_FALSE(
        JsonObject::parse(R"({"a":{"b":1}})", &error).has_value());
    EXPECT_NE(error.find("nested"), std::string::npos);
    EXPECT_FALSE(JsonObject::parse(R"({"a":[1]})").has_value());
    EXPECT_FALSE(
        JsonObject::parse(R"({"a":1,"a":2})", &error).has_value());
}

TEST(JsonlTest, JsonEscapeRoundTripsThroughParser)
{
    const std::string nasty = "quote\" slash\\ newline\n tab\t";
    const std::string line =
        "{\"k\":\"" + jsonEscape(nasty) + "\"}";
    const auto obj = JsonObject::parse(line);
    ASSERT_TRUE(obj.has_value());
    EXPECT_EQ(obj->getString("k"), nasty);
}

TEST(JsonlTest, ControlCharactersEscapedPerRfc8259)
{
    // \b, \f and bare control bytes must come out as valid JSON
    // escapes, or response lines would be unparseable downstream.
    const std::string nasty = "bell\x07 back\b feed\f end";
    const std::string escaped = jsonEscape(nasty);
    EXPECT_EQ(escaped.find('\x07'), std::string::npos);
    EXPECT_NE(escaped.find("\\u0007"), std::string::npos);
    EXPECT_NE(escaped.find("\\b"), std::string::npos);
    EXPECT_NE(escaped.find("\\f"), std::string::npos);
    const auto obj =
        JsonObject::parse("{\"k\":\"" + escaped + "\"}");
    ASSERT_TRUE(obj.has_value());
    EXPECT_EQ(obj->getString("k"), nasty);
}

TEST(JsonlTest, UnicodeEscapesAsciiOnly)
{
    const auto ok = JsonObject::parse(R"({"k":"\u0041\u000a"})");
    ASSERT_TRUE(ok.has_value());
    EXPECT_EQ(ok->getString("k"), "A\n");
    // Non-ASCII codepoints and truncated escapes are rejected.
    EXPECT_FALSE(JsonObject::parse(R"({"k":"\u00e9"})").has_value());
    EXPECT_FALSE(JsonObject::parse(R"({"k":"\u12"})").has_value());
}

} // namespace
} // namespace qzz::svc
