/**
 * @file
 * Error-handling primitives for the qzz library.
 *
 * Two failure categories, following the fatal-vs-panic convention of
 * large systems codebases:
 *  - fatal():  the *caller* made an error (bad argument, impossible
 *              configuration).  Throws qzz::UserError.
 *  - panic():  a qzz invariant was violated (library bug).  Throws
 *              qzz::InternalError.
 */

#ifndef QZZ_COMMON_ERROR_H
#define QZZ_COMMON_ERROR_H

#include <stdexcept>
#include <string>
#include <type_traits>

namespace qzz {

/** Raised when a caller-supplied argument or configuration is invalid. */
class UserError : public std::runtime_error
{
  public:
    explicit UserError(const std::string &what) : std::runtime_error(what) {}
};

/** Raised when an internal invariant of the library is violated. */
class InternalError : public std::logic_error
{
  public:
    explicit InternalError(const std::string &what)
        : std::logic_error(what) {}
};

/**
 * Report a user-level error.
 *
 * @param msg description of what the user did wrong.
 * @throws UserError always.
 */
[[noreturn]] void fatal(const std::string &msg);

/**
 * Report a violated internal invariant.
 *
 * @param msg description of the broken invariant.
 * @throws InternalError always.
 */
[[noreturn]] void panic(const std::string &msg);

/** @name Checks
 *  A check must cost nothing but its condition on the success path:
 *  the gate builders run one per operand of every gate, and the
 *  simulation kernels one per call, millions of times per schedule.
 *  So a check takes either a string literal or a callable that
 *  builds the message, and the message is made only on failure.
 *  There is deliberately no std::string overload: an eager
 *  `"..." + x` argument does not compile, write
 *  `[&] { return "..." + x; }` instead.
 *
 *  Keep the bodies plain (no branch hints): they inline into the
 *  x86-64-v3 simulation kernels, where a hint was seen to move FMA
 *  contraction and with it the last bits of simulated fidelities.
 *  @{
 */

/** A callable that builds a failure message. */
template <typename F>
concept MessageBuilder = std::is_invocable_r_v<std::string, F &>;

/** Check a user-facing precondition; fatal() with @p msg on failure. */
inline void
require(bool cond, const char *msg)
{
    if (!cond)
        fatal(std::string(msg));
}

/** As above, with the message built by @p make_msg on failure only. */
template <MessageBuilder F>
inline void
require(bool cond, F &&make_msg)
{
    if (!cond)
        fatal(make_msg());
}

/** Check an internal invariant; panic() with @p msg on failure. */
inline void
ensure(bool cond, const char *msg)
{
    if (!cond)
        panic(std::string(msg));
}

/** As above, with the message built by @p make_msg on failure only. */
template <MessageBuilder F>
inline void
ensure(bool cond, F &&make_msg)
{
    if (!cond)
        panic(make_msg());
}
/** @} */

} // namespace qzz

#endif // QZZ_COMMON_ERROR_H
