/**
 * @file
 * JSON codec tests: decode(encode(v)) == v with bit-exact doubles,
 * the depth and size bounds, positioned errors for every rejected
 * construct, the writer's exact layout, and a seeded mutation loop
 * over the documents the service reads (request lines, calibration
 * snapshots, manifest lines).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>

#include "common/json.h"

namespace qzz::json {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::string
encode(const Value &v, bool pretty = false)
{
    std::string out;
    Writer(out, pretty).value(v);
    return out;
}

std::string
encode(double v)
{
    std::string out;
    Writer(out).value(v);
    return out;
}

/** The error parse() reports for @p text ("" when it parses). */
std::string
errorOf(std::string_view text)
{
    std::string error;
    EXPECT_FALSE(parse(text, &error).has_value()) << text;
    return error;
}

// ---------------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------------

TEST(JsonTest, DoublesRoundTripBitExactly)
{
    const double specials[] = {0.0,
                               -0.0,
                               std::numeric_limits<double>::denorm_min(),
                               -std::numeric_limits<double>::denorm_min(),
                               DBL_MIN,
                               DBL_MIN / 3.0, // subnormal
                               DBL_MAX,
                               -DBL_MAX,
                               DBL_EPSILON,
                               0.1,
                               1.0 / 3.0,
                               1e21,
                               123456789012345680.0,
                               kInf,
                               -kInf};
    for (double d : specials) {
        const auto back = parse(encode(d));
        ASSERT_TRUE(back.has_value()) << encode(d);
        ASSERT_TRUE(back->asDouble().has_value()) << encode(d);
        EXPECT_EQ(std::bit_cast<uint64_t>(*back->asDouble()),
                  std::bit_cast<uint64_t>(d))
            << encode(d);
    }
    EXPECT_EQ(encode(kInf), "\"inf\"");
    EXPECT_EQ(encode(-kInf), "\"-inf\"");
    EXPECT_EQ(encode(std::nan("")), "null");
    EXPECT_EQ(encode(0.1), "0.1"); // shortest, not 17 digits
    EXPECT_EQ(encode(-0.0), "-0");

    // Every finite bit pattern, sampled.
    std::mt19937_64 rng(11);
    for (int i = 0; i < 20000; ++i) {
        const double d = std::bit_cast<double>(rng());
        if (!std::isfinite(d))
            continue;
        const auto back = parse(encode(d));
        ASSERT_TRUE(back.has_value()) << encode(d);
        ASSERT_NE(back->asNumber(), nullptr);
        ASSERT_EQ(std::bit_cast<uint64_t>(*back->asNumber()),
                  std::bit_cast<uint64_t>(d))
            << encode(d);
    }
}

/** A random tree of every value kind, strings with arbitrary bytes. */
Value
randomValue(std::mt19937_64 &rng, int depth)
{
    const int kind = int(rng() % (depth >= 4 ? 4 : 6));
    switch (kind) {
    case 0:
        return Value();
    case 1:
        return Value(bool(rng() & 1));
    case 2: {
        double d = std::bit_cast<double>(rng());
        if (!std::isfinite(d))
            d = double(int64_t(rng())) / 7.0;
        return Value(d);
    }
    case 3: {
        std::string s;
        for (size_t n = rng() % 12; n > 0; --n)
            s.push_back(char(rng() & 0xff));
        return Value(std::move(s));
    }
    case 4: {
        Array items;
        for (size_t n = rng() % 5; n > 0; --n)
            items.push_back(randomValue(rng, depth + 1));
        return Value(std::move(items));
    }
    default: {
        Object members;
        for (size_t n = rng() % 5; n > 0; --n) {
            // Unique by the index; the control byte exercises escapes.
            std::string key = std::to_string(members.size());
            key.push_back(char(rng() % 32));
            members.emplace_back(std::move(key), randomValue(rng, depth + 1));
        }
        return Value(std::move(members));
    }
    }
}

TEST(JsonTest, DecodeOfEncodeIsIdentity)
{
    std::mt19937_64 rng(5);
    for (int i = 0; i < 2000; ++i) {
        const Value v = randomValue(rng, 0);
        for (bool pretty : {false, true}) {
            const std::string text = encode(v, pretty);
            std::string error;
            const auto back = parse(text, &error);
            ASSERT_TRUE(back.has_value()) << error << "\n" << text;
            EXPECT_EQ(*back, v) << text;
            EXPECT_EQ(encode(*back, pretty), text);
        }
    }
}

TEST(JsonTest, ObjectsKeepInsertionOrder)
{
    const auto v = parse(R"({"z":1,"a":2,"m":3})");
    ASSERT_TRUE(v.has_value());
    ASSERT_NE(v->asObject(), nullptr);
    EXPECT_EQ(v->asObject()->at(0).first, "z");
    EXPECT_EQ(v->asObject()->at(2).first, "m");
    EXPECT_EQ(encode(*v), R"({"z":1,"a":2,"m":3})");
    ASSERT_NE(v->find("a"), nullptr);
    EXPECT_EQ(v->find("a")->asInt(), 2);
    EXPECT_EQ(v->find("nope"), nullptr);
}

TEST(JsonTest, WideObjectsStillRejectDuplicates)
{
    std::string text = "{";
    for (int i = 0; i < 100; ++i)
        text += "\"k" + std::to_string(i) + "\":" + std::to_string(i) + ",";
    EXPECT_TRUE(parse(text + "\"last\":0}").has_value());
    EXPECT_NE(errorOf(text + "\"k3\":0}").find("duplicate key 'k3'"),
              std::string::npos);
}

// ---------------------------------------------------------------------------
// Bounds and errors
// ---------------------------------------------------------------------------

TEST(JsonTest, DepthIsBounded)
{
    const auto nested = [](int depth) {
        return std::string(size_t(depth), '[') +
               std::string(size_t(depth), ']');
    };
    EXPECT_TRUE(parse(nested(kMaxDepth)).has_value());
    const std::string error = errorOf(nested(kMaxDepth + 1));
    EXPECT_NE(error.find("nesting deeper than 64 at byte offset 64"),
              std::string::npos)
        << error;
    // Far deeper input fails the same way, without deep recursion.
    EXPECT_NE(errorOf(std::string(100000, '[')).find("nesting deeper"),
              std::string::npos);
}

TEST(JsonTest, DocumentSizeIsBounded)
{
    std::string text(kMaxDocumentBytes, ' ');
    text.front() = '"';
    text.back() = '"';
    EXPECT_TRUE(parse(text).has_value());
    text.push_back(' ');
    EXPECT_NE(errorOf(text).find("document longer than"), std::string::npos);
}

TEST(JsonTest, CursorWalksAFixedSchema)
{
    const std::string text =
        R"({"a":1,"b":[true,false],"c":"x","d":["inf",-0.5]} )";
    Cursor c(text);
    int64_t a = 0;
    bool t = false, f = true;
    std::string s;
    double inf = 0.0, half = 0.0;
    ASSERT_TRUE(c.beginObject());
    EXPECT_FALSE(c.tryKey("b")); // the next key is "a": nothing consumed
    ASSERT_TRUE(c.key("a") && c.integer(a, 0, 9));
    ASSERT_TRUE(c.key("b") && c.beginArray());
    ASSERT_TRUE(c.more() && c.boolean(t) && c.more() && c.boolean(f));
    EXPECT_FALSE(c.more()); // the ']'
    ASSERT_TRUE(c.key("c") && c.string(s));
    ASSERT_TRUE(c.key("d") && c.beginArray() && c.more() && c.real(inf) &&
                c.more() && c.real(half));
    EXPECT_FALSE(c.more());
    EXPECT_TRUE(c.endObject() && c.end() && c.ok());
    EXPECT_EQ(a, 1);
    EXPECT_TRUE(t);
    EXPECT_FALSE(f);
    EXPECT_EQ(s, "x");
    EXPECT_EQ(inf, std::numeric_limits<double>::infinity());
    EXPECT_EQ(half, -0.5);
}

TEST(JsonTest, CursorFailsOnAnyOtherToken)
{
    const auto walk = [](std::string_view text) {
        Cursor c(text);
        int64_t v = 0;
        bool walked = c.beginObject() && c.key("n") && c.beginArray();
        while (walked && c.more())
            walked = c.integer(v, 0, 9);
        return walked && c.ok() && c.endObject() && c.end();
    };
    EXPECT_TRUE(walk(R"({"n":[1,2]})"));
    EXPECT_TRUE(walk(R"({"n":[]})"));
    EXPECT_FALSE(walk(R"({"n":[1,,2]})"));       // empty element
    EXPECT_FALSE(walk(R"({"n":[1,2,]})"));       // trailing comma
    EXPECT_FALSE(walk(R"({"n":[1 2]})"));        // missing comma
    EXPECT_FALSE(walk(R"({"n":[10]})"));         // out of range
    EXPECT_FALSE(walk(R"({"n":[1.5]})"));        // not an integer
    EXPECT_FALSE(walk(R"({"m":[1]})"));          // another key
    EXPECT_FALSE(walk(R"({"n":[1],"x":2})"));    // an extra member
    EXPECT_FALSE(walk(R"({"n":[1]} x)"));        // trailing content
    EXPECT_FALSE(walk(R"({"n":[1])"));           // truncated
    EXPECT_FALSE(walk(R"({"n":{}})"));           // an object
    EXPECT_FALSE(walk(R"({"n":[1}})"));          // mismatched bracket
}

TEST(JsonTest, CursorSharesTheDepthBound)
{
    const auto opens = [](int depth) {
        const std::string text(size_t(depth), '[');
        Cursor c(text);
        for (int i = 0; i < depth; ++i)
            if (!c.beginArray())
                return false;
        return true;
    };
    EXPECT_TRUE(opens(kMaxDepth));
    EXPECT_FALSE(opens(kMaxDepth + 1));
}

TEST(JsonTest, ErrorsCarryByteOffsets)
{
    EXPECT_EQ(errorOf(""), "expected a value at byte offset 0");
    EXPECT_EQ(errorOf(R"({"a":1,})"),
              "expected a string key at byte offset 7");
    EXPECT_EQ(errorOf(R"({"a":1 "b":2})"),
              "expected ',' or '}' at byte offset 7");
    EXPECT_EQ(errorOf("[1 2]"), "expected ',' or ']' at byte offset 3");
    EXPECT_EQ(errorOf(R"({"a" 1})"), "expected ':' at byte offset 5");
    EXPECT_EQ(errorOf("[tru]"), "malformed literal at byte offset 1");
    EXPECT_EQ(errorOf(R"({"a":"x)"),
              "unterminated string in 'a' at byte offset 7");
    EXPECT_EQ(errorOf(R"(["\q"])"), "unsupported escape at byte offset 2");
}

TEST(JsonTest, RejectsDuplicateKeys)
{
    EXPECT_EQ(errorOf(R"({"a":1,"a":2})"),
              "duplicate key 'a' at byte offset 7");
    // Nested objects name the member they sit in.
    EXPECT_EQ(errorOf(R"({"o":{"b":1,"b":2}})"),
              "duplicate key 'b' in 'o' at byte offset 12");
}

TEST(JsonTest, RejectsTrailingContent)
{
    EXPECT_EQ(errorOf("{} x"), "trailing content at byte offset 3");
    EXPECT_EQ(errorOf("1 2"), "trailing content at byte offset 2");
    EXPECT_TRUE(parse(" \t\r\n{}\n ").has_value());
}

TEST(JsonTest, RejectsRawControlCharactersAndNonAsciiEscapes)
{
    EXPECT_EQ(errorOf("{\"a\":\"x\ty\"}"),
              "control character in string in 'a' at byte offset 7");
    EXPECT_EQ(errorOf(R"(["\u00e9"])"),
              "non-ASCII \\u escape at byte offset 2");
    EXPECT_EQ(errorOf(R"(["\u12"])"), "malformed \\u escape at byte offset 6");
    const auto ok = parse(R"(["A\u001f\/"])");
    ASSERT_TRUE(ok.has_value());
    EXPECT_EQ(*ok->asArray()->at(0).asString(), "A\x1f/");
    // Raw UTF-8 passes through untouched.
    const auto utf8 = parse("[\"caf\xc3\xa9\"]");
    ASSERT_TRUE(utf8.has_value());
    EXPECT_EQ(*utf8->asArray()->at(0).asString(), "caf\xc3\xa9");
}

TEST(JsonTest, RejectsOutOfRangeAndMalformedNumbers)
{
    EXPECT_EQ(errorOf("[1e999]"), "number out of range at byte offset 1");
    EXPECT_EQ(errorOf("[-1e999]"), "number out of range at byte offset 1");
    EXPECT_EQ(errorOf("[1e-400]"), "number out of range at byte offset 1");
    EXPECT_EQ(errorOf(R"({"deadline_ms":1e999})"),
              "number out of range in 'deadline_ms' at byte offset 15");
    for (const char *bad : {"[01]", "[.5]", "[1.]", "[+1]", "[1e]", "[-]",
                            "[NaN]", "[inf]", "[0x10]"})
        EXPECT_FALSE(parse(bad).has_value()) << bad;
    const auto ok = parse("[0, -0.5, 1E+2, 2e-3, 1.7976931348623157e308]");
    ASSERT_TRUE(ok.has_value());
    EXPECT_EQ(*ok->asArray()->at(2).asNumber(), 100.0);
    EXPECT_EQ(*ok->asArray()->at(4).asNumber(), DBL_MAX);
}

TEST(JsonTest, IntegerAccessorIsRangeChecked)
{
    const auto v = parse(
        R"([42, 1.5, 1e300, -1e300, 9223372036854775807, )"
        R"(-9223372036854775808, "7", 11])");
    ASSERT_TRUE(v.has_value());
    const Array &a = *v->asArray();
    EXPECT_EQ(a[0].asInt(), 42);
    EXPECT_FALSE(a[1].asInt().has_value()); // fractional
    EXPECT_FALSE(a[2].asInt().has_value());
    EXPECT_FALSE(a[3].asInt().has_value());
    EXPECT_FALSE(a[4].asInt().has_value()); // reads as 2^63
    EXPECT_EQ(a[5].asInt(), std::numeric_limits<int64_t>::min());
    EXPECT_FALSE(a[6].asInt().has_value()); // a string
    EXPECT_EQ(a[7].asInt(0, 11), 11);
    EXPECT_FALSE(a[7].asInt(0, 10).has_value());
    EXPECT_FALSE(a[7].asInt(12).has_value());
}

// ---------------------------------------------------------------------------
// Writer layout
// ---------------------------------------------------------------------------

TEST(JsonTest, WriterCompactLayout)
{
    std::string out;
    Writer w(out);
    w.beginObject()
        .field("s", "a\"b")
        .field("i", -3)
        .field("u", std::numeric_limits<uint64_t>::max())
        .field("d", 2.5)
        .field("t", true);
    w.key("a").array(std::vector<int>{1, 2});
    w.key("e").beginArray().endArray();
    w.key("o").beginObject().endObject();
    w.key("n").null();
    w.endObject();
    EXPECT_EQ(out, R"({"s":"a\"b","i":-3,"u":18446744073709551615,)"
                   R"("d":2.5,"t":true,"a":[1,2],"e":[],"o":{},"n":null})");
}

TEST(JsonTest, WriterPrettyLayout)
{
    std::string out;
    Writer w(out, true);
    w.beginObject().field("a", 1);
    w.key("b").array(std::vector<int>{2, 3});
    w.key("c").beginObject().endObject();
    w.endObject();
    EXPECT_EQ(out, "{\n  \"a\": 1,\n  \"b\": [\n    2,\n    3\n  ],\n"
                   "  \"c\": {}\n}");
}

TEST(JsonTest, EscapeOutput)
{
    EXPECT_EQ(escape("q\" s\\ \b\f\n\r\t \x01\x1f \x7f/"),
              "q\\\" s\\\\ \\b\\f\\n\\r\\t \\u0001\\u001f \x7f/");
    std::string out = "x";
    appendEscaped(out, "\n");
    EXPECT_EQ(out, "x\\n");
}

// ---------------------------------------------------------------------------
// Mutation fuzzing
// ---------------------------------------------------------------------------

const char *const kSeedDocuments[] = {
    // A request line.
    R"({"id":"r1","benchmark":"QFT","qubits":8,"seed":3,"sched":"ZZXSched",)"
    R"("pulse":"Pert","topology":"grid","device_seed":7,"deadline_ms":250.5,)"
    R"("use_cache":true,"trace_id":null})",
    // A calibration snapshot.
    R"({"qzzcalib":1,"id":"run\u000a2","epoch":3,"num_qubits":2,)"
    R"("coupling_mean":0.0012566370614359172,"coupling_stddev":)"
    R"(0.00012566370614359173,"t1":[100000,"inf"],"t2":[80000,"inf"],)"
    R"("anharmonicity":[-1.8849555921538759,-1.8849555921538759],)"
    R"("edge_u":[0],"edge_v":[1],"zz":[0.0013]})",
    // Manifest lines.
    R"({"qzz_manifest":1})",
    R"({"fp":"0123456789abcdef0123456789abcdef","bytes":6094,)"
    R"("mtime_ms":1760000000000,"calib_epoch":3})",
};

TEST(JsonTest, MutantsGiveAValueOrAnError)
{
    static const char kAlphabet[] =
        "{}[],:\"\\ \t\n0123456789.eE+-tfnu\x01\xc3";
    std::mt19937_64 rng(2024);
    int parsed = 0, rejected = 0;
    for (const char *seed : kSeedDocuments) {
        ASSERT_TRUE(parse(seed).has_value()) << seed;
        for (int i = 0; i < 3000; ++i) {
            std::string text = seed;
            for (int edits = 1 + int(rng() % 3); edits > 0; --edits) {
                const size_t at = rng() % (text.size() + 1);
                const char c = rng() % 2
                                   ? kAlphabet[rng() % (sizeof kAlphabet - 1)]
                                   : char(rng() & 0xff);
                switch (rng() % 3) {
                case 0: // flip
                    if (at < text.size())
                        text[at] = c;
                    break;
                case 1: // truncate
                    text.resize(at);
                    break;
                default: // insert
                    text.insert(text.begin() + ptrdiff_t(at), c);
                }
            }
            std::string error;
            const auto v = parse(text, &error);
            if (!v) {
                ++rejected;
                EXPECT_NE(error.find(" at byte offset "), std::string::npos)
                    << text;
                continue;
            }
            ++parsed;
            // An accepted mutant is a document like any other.
            const auto again = parse(encode(*v));
            ASSERT_TRUE(again.has_value()) << text;
            EXPECT_EQ(*again, *v) << text;
        }
    }
    EXPECT_GT(parsed, 0);
    EXPECT_GT(rejected, 0);
}

} // namespace
} // namespace qzz::json
