/**
 * @file
 * The simulator's invariant-check layer: a DUET_ASSERT/DUET_DCHECK macro
 * family layered over panic() (sim/logging.hh).
 *
 *  - DUET_ASSERT(cond, msg): an always-on invariant. The condition is
 *    evaluated on every build; a violation panics with the failed
 *    expression and its source location. Use it where the check is cheap
 *    relative to the operation it guards (bounds before a memcpy, frame
 *    headers off a pipe, event-time monotonicity).
 *
 *  - DUET_DCHECK(cond, msg): a paranoid invariant. The condition is
 *    evaluated only when paranoid checks are enabled — by default under
 *    the sanitizer build presets (DUET_SANITIZE defines
 *    DUET_PARANOID_CHECKS) and at runtime via `duet_sim --paranoid`.
 *    Use it on hot paths (per-access checks in the scratchpad and
 *    functional memory, per-resume coroutine state) where an always-on
 *    check would tax every simulated cycle.
 *
 * Both macros throw SimPanic (never abort), matching panic(): gtest
 * suites can pin the traps with EXPECT_THROW, and an escaped violation
 * still terminates the process through std::terminate.
 *
 * The message is built out of line, inside detail::checkFailedCold():
 * the call site hands over a reference-capturing lambda and holds no
 * string temporaries. That keeps the panic text when a failing check
 * is inlined into a noexcept function: with message temporaries in the
 * caller, GCC before 14 unwinds into their cleanup and calls
 * std::terminate with no active exception, and the text is lost.
 */

#ifndef DUET_SIM_CHECK_HH
#define DUET_SIM_CHECK_HH

#include <string>

#include "sim/logging.hh"

namespace duet
{

namespace detail
{
/** Backing flag for paranoidChecks(); read inline so a disabled
 *  DUET_DCHECK costs one load and a predictable branch. */
extern bool paranoidEnabled;
} // namespace detail

/** True when DUET_DCHECK conditions are evaluated. Defaults to true in
 *  sanitizer builds (DUET_PARANOID_CHECKS), false otherwise. */
inline bool paranoidChecks() { return detail::paranoidEnabled; }

/** Flip the paranoid layer at runtime (`duet_sim --paranoid`). Workers
 *  forked after the flip inherit it. */
void setParanoidChecks(bool on);

/**
 * Report a failed check: throws SimPanic with the macro kind, the failed
 * expression, its source location and @p msg.
 */
[[noreturn]] void checkFailed(const char *kind, const char *expr,
                              const char *file, int line,
                              const std::string &msg);

namespace detail
{
/** The macros' failure path: build the message from @p msg (a callable
 *  returning it) and report it, all out of line. */
template <typename MsgFn>
[[noreturn, gnu::noinline, gnu::cold]] void
checkFailedCold(const char *kind, const char *expr, const char *file,
                int line, const MsgFn &msg)
{
    checkFailed(kind, expr, file, line, msg());
}
} // namespace detail

} // namespace duet

/** Always-on simulator invariant; panics (throws SimPanic) on violation. */
#define DUET_ASSERT(cond, msg)                                              \
    do {                                                                    \
        if (!(cond)) [[unlikely]]                                           \
            ::duet::detail::checkFailedCold(                                \
                "DUET_ASSERT", #cond, __FILE__, __LINE__,                   \
                [&]() -> std::string { return (msg); });                    \
    } while (false)

/** Paranoid invariant: evaluated only when paranoidChecks() is on
 *  (sanitizer presets / --paranoid). */
#define DUET_DCHECK(cond, msg)                                              \
    do {                                                                    \
        if (::duet::paranoidChecks() && !(cond)) [[unlikely]]               \
            ::duet::detail::checkFailedCold(                                \
                "DUET_DCHECK", #cond, __FILE__, __LINE__,                   \
                [&]() -> std::string { return (msg); });                    \
    } while (false)

#endif // DUET_SIM_CHECK_HH
