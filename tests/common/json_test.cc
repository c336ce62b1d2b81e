/**
 * @file
 * JSON codec tests, through the readers the service runs: json::Cursor,
 * the request-line reader (svc::JsonObject) and the calibration reader.
 * A small Cursor -> Writer echo stands in for a generic reader of any
 * document.  Covered: decode of encode is the identity with bit-exact
 * doubles, the depth and size bounds, positioned errors for every
 * rejected construct, the writer's exact layout, and a seeded mutation
 * loop over flat lines and calibration snapshots.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "common/json.h"
#include "device/calibration.h"
#include "service/jsonl.h"

namespace qzz::json {
namespace {

using svc::JsonObject;

constexpr double kInf = std::numeric_limits<double>::infinity();

std::string
encode(double v)
{
    std::string out;
    Writer(out).value(v);
    return out;
}

/**
 * Copies the value under @p c to @p w.  When a member's value fails,
 * @p in names the innermost such member (it stays "" otherwise).
 */
bool
echoValue(Cursor &c, Writer &w, std::string &in)
{
    bool b = false;
    double d = 0.0;
    std::string s;
    switch (c.peek()) {
    case Cursor::Kind::Object:
        if (!c.beginObject())
            return false;
        w.beginObject();
        while (c.member(s)) {
            w.key(s);
            if (!echoValue(c, w, in)) {
                if (in.empty())
                    in = s;
                return false;
            }
        }
        w.endObject();
        return c.ok();
    case Cursor::Kind::Array:
        if (!c.beginArray())
            return false;
        w.beginArray();
        while (c.more())
            if (!echoValue(c, w, in))
                return false;
        w.endArray();
        return c.ok();
    case Cursor::Kind::String:
        if (!c.string(s))
            return false;
        w.value(s);
        return true;
    case Cursor::Kind::Bool:
        if (!c.boolean(b))
            return false;
        w.value(b);
        return true;
    case Cursor::Kind::Null:
        if (!c.null())
            return false;
        w.null();
        return true;
    case Cursor::Kind::Number:
        if (!c.real(d))
            return false;
        w.value(d);
        return true;
    }
    return false;
}

/** @p text re-encoded by the writer; nullopt, with the error in
 *  @p error, when the cursor rejects it. */
std::optional<std::string>
echo(std::string_view text, bool pretty = false, std::string *error = nullptr)
{
    Cursor c(text);
    std::string out;
    Writer w(out, pretty);
    std::string in;
    if (echoValue(c, w, in) && c.end())
        return out;
    if (error != nullptr)
        *error = c.error(in);
    return std::nullopt;
}

/** The error the echo reports for @p text. */
std::string
errorOf(std::string_view text)
{
    std::string error;
    EXPECT_FALSE(echo(text, false, &error).has_value()) << text;
    return error;
}

/** The error JsonObject::parse() reports for @p line. */
std::string
lineErrorOf(std::string_view line)
{
    std::string error;
    EXPECT_FALSE(JsonObject::parse(line, &error).has_value()) << line;
    return error;
}

/** The number @p text read with Cursor::real(), bit for bit. */
std::optional<uint64_t>
realBits(std::string_view text)
{
    Cursor c(text);
    double d = 0.0;
    if (!c.real(d) || !c.end())
        return std::nullopt;
    return std::bit_cast<uint64_t>(d);
}

/** The one integer of @p text read with Cursor::integer(). */
std::optional<int64_t>
integerOf(std::string_view text,
          int64_t lo = std::numeric_limits<int64_t>::min(),
          int64_t hi = std::numeric_limits<int64_t>::max())
{
    Cursor c(text);
    int64_t v = 0;
    if (!c.integer(v, lo, hi) || !c.end())
        return std::nullopt;
    return v;
}

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
    // Flat lines of other shapes.
    R"({"qzz_manifest":1})",
    R"({"fp":"0123456789abcdef0123456789abcdef","bytes":6094,)"
    R"("mtime_ms":1760000000000,"calib_epoch":3})",
};

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
    for (double d : specials)
        EXPECT_EQ(realBits(encode(d)), std::bit_cast<uint64_t>(d))
            << encode(d);
    EXPECT_EQ(encode(kInf), "\"inf\"");
    EXPECT_EQ(encode(-kInf), "\"-inf\"");
    EXPECT_EQ(encode(std::nan("")), "null");
    EXPECT_EQ(encode(0.1), "0.1"); // shortest, not 17 digits
    EXPECT_EQ(encode(-0.0), "-0");

    // Every finite bit pattern, sampled, through a request line.
    std::mt19937_64 rng(11);
    for (int i = 0; i < 20000; ++i) {
        const double d = std::bit_cast<double>(rng());
        if (!std::isfinite(d))
            continue;
        const auto obj = JsonObject::parse("{\"d\":" + encode(d) + "}");
        ASSERT_TRUE(obj.has_value()) << encode(d);
        const auto back = obj->getNumber("d");
        ASSERT_TRUE(back.has_value()) << encode(d);
        ASSERT_EQ(std::bit_cast<uint64_t>(*back), std::bit_cast<uint64_t>(d))
            << encode(d);
    }
}

/** Writes a random document of every value kind to @p w, strings
 *  with arbitrary bytes. */
void
writeRandomValue(std::mt19937_64 &rng, int depth, Writer &w)
{
    const int kind = int(rng() % (depth >= 4 ? 4 : 6));
    switch (kind) {
    case 0:
        w.null();
        return;
    case 1:
        w.value(bool(rng() & 1));
        return;
    case 2: {
        double d = std::bit_cast<double>(rng());
        if (!std::isfinite(d))
            d = double(int64_t(rng())) / 7.0;
        w.value(d);
        return;
    }
    case 3: {
        std::string s;
        for (size_t n = rng() % 12; n > 0; --n)
            s.push_back(char(rng() & 0xff));
        w.value(s);
        return;
    }
    case 4:
        w.beginArray();
        for (size_t n = rng() % 5; n > 0; --n)
            writeRandomValue(rng, depth + 1, w);
        w.endArray();
        return;
    default:
        w.beginObject();
        for (size_t n = rng() % 5, i = 0; i < n; ++i) {
            // Unique by the index; the control byte exercises escapes.
            std::string key = std::to_string(i);
            key.push_back(char(rng() % 32));
            w.key(key);
            writeRandomValue(rng, depth + 1, w);
        }
        w.endObject();
    }
}

TEST(JsonTest, DecodeOfEncodeIsIdentity)
{
    std::mt19937_64 rng(5);
    for (int i = 0; i < 2000; ++i) {
        const std::mt19937_64 start = rng;
        for (bool pretty : {false, true}) {
            rng = start;
            std::string text;
            Writer w(text, pretty);
            writeRandomValue(rng, 0, w);
            std::string error;
            const auto back = echo(text, pretty, &error);
            ASSERT_TRUE(back.has_value()) << error << "\n" << text;
            EXPECT_EQ(*back, text);
        }
    }
}

TEST(JsonTest, ObjectsKeepInsertionOrder)
{
    const std::string text = R"({"z":1,"a":2,"m":3})";
    Cursor c(text);
    std::string key;
    std::vector<std::string> keys;
    int64_t v = 0;
    ASSERT_TRUE(c.beginObject());
    while (c.member(key)) {
        keys.push_back(key);
        ASSERT_TRUE(c.integer(v, 1, 3));
    }
    EXPECT_TRUE(c.end());
    EXPECT_EQ(keys, (std::vector<std::string>{"z", "a", "m"}));
    EXPECT_EQ(echo(text), text);
    const auto obj = JsonObject::parse(text);
    ASSERT_TRUE(obj.has_value());
    EXPECT_EQ(obj->getInt("a"), 2);
    EXPECT_FALSE(obj->has("nope"));
}

TEST(JsonTest, WideObjectsStillRejectDuplicates)
{
    // A duplicate is found however far back its first occurrence is.
    std::string text = "{";
    for (int i = 0; i < 100; ++i)
        text += "\"k" + std::to_string(i) + "\":" + std::to_string(i) + ",";
    EXPECT_TRUE(JsonObject::parse(text + "\"last\":0}").has_value());
    EXPECT_EQ(lineErrorOf(text + "\"k3\":0}"),
              "duplicate key 'k3' at byte offset " +
                  std::to_string(text.size()));
    EXPECT_EQ(lineErrorOf(text + "\"k99\":0}"),
              "duplicate key 'k99' at byte offset " +
                  std::to_string(text.size()));
}

TEST(JsonTest, RequestLinesHoldAtMost128Members)
{
    ASSERT_EQ(JsonObject::kMaxMembers, 128u);
    std::string text = "{";
    for (int i = 0; i < 127; ++i)
        text += "\"k" + std::to_string(i) + "\":" + std::to_string(i) + ",";
    const std::optional<JsonObject> full =
        JsonObject::parse(text + "\"k127\":0}");
    ASSERT_TRUE(full.has_value());
    EXPECT_EQ(full->getInt("k127"), 0);
    text += "\"k127\":0,";
    EXPECT_EQ(lineErrorOf(text + "\"k128\":0}"),
              "too many members (limit 128) at byte offset " +
                  std::to_string(text.size()));
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
    EXPECT_TRUE(echo(nested(kMaxDepth)).has_value());
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
    // A request line of exactly the bound is read; one byte more is
    // refused before reading.
    std::string line = "{\"k\":\"";
    line.resize(kMaxDocumentBytes - 2, ' ');
    line += "\"}";
    const auto obj = JsonObject::parse(line);
    ASSERT_TRUE(obj.has_value());
    EXPECT_EQ(obj->getString("k")->size(), kMaxDocumentBytes - 8);
    line.push_back(' ');
    EXPECT_EQ(lineErrorOf(line), "document longer than 4194304 bytes at "
                                 "byte offset 4194304");

    // So is a calibration document padded past it.
    std::string calib = kSeedDocuments[1];
    calib.resize(kMaxDocumentBytes + 1, ' ');
    std::string error;
    EXPECT_FALSE(dev::readCalibrationJson(calib, &error).has_value());
    EXPECT_NE(error.find("document longer than"), std::string::npos);

    Cursor bounded("[1]", 2);
    EXPECT_FALSE(bounded.ok());
    EXPECT_FALSE(bounded.beginArray());
    EXPECT_EQ(bounded.error(), "document longer than 2 bytes at byte offset 2");
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

TEST(JsonTest, CursorReadsAnyMemberByKind)
{
    const std::string text =
        R"({"b":false, "n":null, "s":"x", "d":2.5, "a":[], "o":{}})";
    Cursor c(text);
    std::string key, s;
    bool b = true;
    double d = 0.0;
    ASSERT_TRUE(c.beginObject());
    ASSERT_TRUE(c.member(key) && key == "b");
    EXPECT_EQ(c.peek(), Cursor::Kind::Bool);
    ASSERT_TRUE(c.boolean(b) && c.member(key) && key == "n");
    EXPECT_EQ(c.peek(), Cursor::Kind::Null);
    ASSERT_TRUE(c.null() && c.member(key) && key == "s");
    EXPECT_EQ(c.peek(), Cursor::Kind::String);
    ASSERT_TRUE(c.string(s) && c.member(key) && key == "d");
    EXPECT_EQ(c.peek(), Cursor::Kind::Number);
    ASSERT_TRUE(c.real(d) && c.member(key) && key == "a");
    EXPECT_EQ(c.peek(), Cursor::Kind::Array);
    ASSERT_TRUE(c.beginArray());
    EXPECT_FALSE(c.more());
    ASSERT_TRUE(c.member(key) && key == "o");
    EXPECT_EQ(c.peek(), Cursor::Kind::Object);
    ASSERT_TRUE(c.beginObject());
    EXPECT_FALSE(c.member(key)); // the inner '}'
    EXPECT_FALSE(c.member(key)); // the outer '}'
    EXPECT_TRUE(c.ok() && c.end());
    EXPECT_FALSE(b);
    EXPECT_EQ(s, "x");
    EXPECT_EQ(d, 2.5);

    // fail() positions at the last token read: here the "n" key.
    Cursor keyed(R"({"b":1, "n":2})");
    int64_t v = 0;
    ASSERT_TRUE(keyed.beginObject() && keyed.member(key) &&
                keyed.integer(v, 0, 9) && keyed.member(key));
    EXPECT_FALSE(keyed.fail("no '" + key + "' here"));
    EXPECT_FALSE(keyed.integer(v, 0, 9)); // stays failed
    EXPECT_EQ(keyed.error(), "no 'n' here at byte offset 8");
    EXPECT_EQ(keyed.error("n"), "no 'n' here in 'n' at byte offset 8");
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
    // The request reader reports the same errors.
    EXPECT_EQ(lineErrorOf(""), "expected '{' at byte offset 0");
    EXPECT_EQ(lineErrorOf(R"({"a":1 "b":2})"),
              "expected ',' or '}' at byte offset 7");
    EXPECT_EQ(lineErrorOf(R"({"a":tru})"),
              "malformed literal in 'a' at byte offset 5");
    EXPECT_EQ(lineErrorOf(R"({"a":"x)"),
              "unterminated string in 'a' at byte offset 7");
}

TEST(JsonTest, RejectsDuplicateKeys)
{
    EXPECT_EQ(lineErrorOf(R"({"a":1,"a":2})"),
              "duplicate key 'a' at byte offset 7");
    // A nested object is refused at its '{', before any of its keys.
    EXPECT_EQ(lineErrorOf(R"({"o":{"b":1,"b":2}})"),
              "nested values are not part of the protocol (key 'o') at "
              "byte offset 5");
    // The calibration reader names the duplicate at its key.
    std::string calib = kSeedDocuments[1];
    const size_t at = calib.size();
    calib.insert(calib.size() - 1, ",\"epoch\":3");
    std::string error;
    EXPECT_FALSE(dev::readCalibrationJson(calib, &error).has_value());
    EXPECT_EQ(error, "duplicate key 'epoch' at byte offset " +
                         std::to_string(at));
}

TEST(JsonTest, RejectsTrailingContent)
{
    EXPECT_EQ(errorOf("{} x"), "trailing content at byte offset 3");
    EXPECT_EQ(errorOf("1 2"), "trailing content at byte offset 2");
    EXPECT_TRUE(echo(" \t\r\n{}\n ").has_value());
    EXPECT_EQ(lineErrorOf(R"({"a":1} trailing)"),
              "trailing content at byte offset 8");
    EXPECT_TRUE(JsonObject::parse(" \t\r\n{}\n ").has_value());
}

TEST(JsonTest, RejectsRawControlCharactersAndNonAsciiEscapes)
{
    EXPECT_EQ(lineErrorOf("{\"a\":\"x\ty\"}"),
              "control character in string in 'a' at byte offset 7");
    EXPECT_EQ(errorOf(R"(["\u00e9"])"),
              "non-ASCII \\u escape at byte offset 2");
    EXPECT_EQ(errorOf(R"(["\u12"])"), "malformed \\u escape at byte offset 6");
    const auto ok = JsonObject::parse(R"({"k":"A\u001f\/"})");
    ASSERT_TRUE(ok.has_value());
    EXPECT_EQ(ok->getString("k"), "A\x1f/");
    // Raw UTF-8 passes through untouched.
    const auto utf8 = JsonObject::parse("{\"k\":\"caf\xc3\xa9\"}");
    ASSERT_TRUE(utf8.has_value());
    EXPECT_EQ(utf8->getString("k"), "caf\xc3\xa9");
}

TEST(JsonTest, RejectsOutOfRangeAndMalformedNumbers)
{
    EXPECT_EQ(errorOf("[1e999]"), "number out of range at byte offset 1");
    EXPECT_EQ(errorOf("[-1e999]"), "number out of range at byte offset 1");
    EXPECT_EQ(errorOf("[1e-400]"), "number out of range at byte offset 1");
    EXPECT_EQ(lineErrorOf(R"({"deadline_ms":1e999})"),
              "number out of range in 'deadline_ms' at byte offset 15");
    for (const char *bad : {"[01]", "[.5]", "[1.]", "[+1]", "[1e]", "[-]",
                            "[NaN]", "[inf]", "[0x10]"})
        EXPECT_FALSE(echo(bad).has_value()) << bad;
    EXPECT_EQ(realBits("1E+2"), std::bit_cast<uint64_t>(100.0));
    EXPECT_EQ(realBits("1.7976931348623157e308"),
              std::bit_cast<uint64_t>(DBL_MAX));
    EXPECT_EQ(echo("[0, -0.5, 1E+2, 2e-3, 1.7976931348623157e308]"),
              "[0,-0.5,100,0.002,1.7976931348623157e+308]");
}

TEST(JsonTest, IntegerAccessorIsRangeChecked)
{
    EXPECT_EQ(integerOf("42"), 42);
    EXPECT_FALSE(integerOf("1.5").has_value()); // fractional
    EXPECT_FALSE(integerOf("1e300").has_value());
    EXPECT_FALSE(integerOf("-1e300").has_value());
    EXPECT_FALSE(integerOf("9223372036854775807").has_value()); // 2^63
    EXPECT_EQ(integerOf("-9223372036854775808"),
              std::numeric_limits<int64_t>::min());
    EXPECT_FALSE(integerOf("\"7\"").has_value()); // a string
    EXPECT_EQ(integerOf("11", 0, 11), 11);
    EXPECT_FALSE(integerOf("11", 0, 10).has_value());
    EXPECT_FALSE(integerOf("11", 12).has_value());
    // The request reader's accessor applies the same check.
    const auto obj = JsonObject::parse(R"({"big":9223372036854775807})");
    ASSERT_TRUE(obj.has_value());
    EXPECT_FALSE(obj->getInt("big").has_value());
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

TEST(JsonTest, MutantsGiveAValueOrAnError)
{
    static const char kAlphabet[] =
        "{}[],:\"\\ \t\n0123456789.eE+-tfnu\x01\xc3";
    const auto positioned = [](const std::string &error) {
        return error.find(" at byte offset ") != std::string::npos;
    };
    std::mt19937_64 rng(2024);
    int parsed = 0, rejected = 0, served = 0;
    for (const char *seed : kSeedDocuments) {
        // Each seed also goes through the reader the service runs on
        // it: the calibration snapshot through readCalibrationJson(),
        // the flat lines through JsonObject.
        const bool calibration = seed == kSeedDocuments[1];
        const auto serve = [calibration](const std::string &text,
                                         std::string *why) {
            if (!calibration)
                return JsonObject::parse(text, why).has_value();
            const auto calib = dev::readCalibrationJson(text, why);
            if (calib) {
                EXPECT_EQ(dev::readCalibrationJson(
                              dev::calibrationJsonString(*calib)),
                          calib)
                    << text;
            }
            return calib.has_value();
        };
        ASSERT_TRUE(echo(seed).has_value()) << seed;
        ASSERT_TRUE(serve(seed, nullptr)) << seed;
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
            const auto once = echo(text, false, &error);
            if (!once) {
                ++rejected;
                EXPECT_TRUE(positioned(error)) << error << "\n" << text;
            } else {
                ++parsed;
                // An accepted mutant is a document like any other.
                EXPECT_EQ(echo(*once), *once) << text;
            }

            std::string why;
            if (serve(text, &why)) {
                ++served;
                EXPECT_TRUE(once.has_value()) << text;
            } else {
                EXPECT_TRUE(positioned(why)) << why << "\n" << text;
            }
        }
    }
    EXPECT_GT(parsed, 0);
    EXPECT_GT(rejected, 0);
    EXPECT_GT(served, 0);
}

} // namespace
} // namespace qzz::json
