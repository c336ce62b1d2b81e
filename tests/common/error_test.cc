#include "common/error.h"

#include <gtest/gtest.h>

#include <string>

namespace qzz {
namespace {

TEST(ErrorTest, FatalThrowsUserError)
{
    EXPECT_THROW(fatal("bad input"), UserError);
}

TEST(ErrorTest, PanicThrowsInternalError)
{
    EXPECT_THROW(panic("broken invariant"), InternalError);
}

TEST(ErrorTest, RequirePassesOnTrue)
{
    EXPECT_NO_THROW(require(true, "unused"));
}

TEST(ErrorTest, RequireThrowsOnFalse)
{
    EXPECT_THROW(require(false, "nope"), UserError);
}

TEST(ErrorTest, EnsureThrowsOnFalse)
{
    EXPECT_THROW(ensure(false, "nope"), InternalError);
}

TEST(ErrorTest, MessageBuilderRunsOnlyOnFailure)
{
    int built = 0;
    auto make = [&] {
        ++built;
        return std::string("built ") + std::to_string(built);
    };
    for (int i = 0; i < 100; ++i) {
        require(true, make);
        ensure(true, make);
    }
    EXPECT_EQ(built, 0);

    try {
        require(false, make);
        FAIL() << "require did not throw";
    } catch (const UserError &e) {
        EXPECT_STREQ(e.what(), "built 1");
    }
    EXPECT_THROW(ensure(false, make), InternalError);
    EXPECT_EQ(built, 2);
}

// A pre-built std::string message would be constructed on the success
// path too, so the checks refuse it at compile time.
template <typename Msg>
concept RequireAccepts = requires(Msg m) { require(true, m); };
template <typename Msg>
concept EnsureAccepts = requires(Msg m) { ensure(true, m); };
static_assert(!RequireAccepts<std::string>);
static_assert(!EnsureAccepts<std::string>);
static_assert(RequireAccepts<const char *>);
static_assert(RequireAccepts<std::string (*)()>);

TEST(ErrorTest, MessagePropagates)
{
    try {
        fatal("specific message");
        FAIL() << "fatal did not throw";
    } catch (const UserError &e) {
        EXPECT_STREQ(e.what(), "specific message");
    }
}

TEST(ErrorTest, PanicMessageIsPrefixed)
{
    try {
        panic("oops");
        FAIL() << "panic did not throw";
    } catch (const InternalError &e) {
        EXPECT_NE(std::string(e.what()).find("oops"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("internal"),
                  std::string::npos);
    }
}

} // namespace
} // namespace qzz
