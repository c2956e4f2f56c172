/**
 * @file
 * Error-reporting helpers in the spirit of gem5's logging.hh.
 *
 * panic() is for internal simulator bugs (aborts); fatal() is for user
 * configuration errors (clean exit); warn() informs without stopping.
 */

#ifndef DUET_SIM_LOGGING_HH
#define DUET_SIM_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

namespace duet
{

/** Exception thrown by panic(); tests can assert on it. */
class SimPanic : public std::logic_error
{
  public:
    explicit SimPanic(const std::string &msg) : std::logic_error(msg) {}
};

/** Exception thrown by fatal(); indicates a user/config error. */
class SimFatal : public std::runtime_error
{
  public:
    explicit SimFatal(const std::string &msg) : std::runtime_error(msg) {}
};

/**
 * Report an internal simulator invariant violation.
 * @param msg description of the broken invariant
 */
[[noreturn]] inline void
panic(const std::string &msg)
{
    throw SimPanic("panic: " + msg);
}

/**
 * Report an unrecoverable user/configuration error.
 * @param msg description of the error
 */
[[noreturn]] inline void
fatal(const std::string &msg)
{
    throw SimFatal("fatal: " + msg);
}

namespace detail
{
/** simAssert's failure path: build the message from @p msg (a callable
 *  returning it) and panic, all out of line, so the asserting caller
 *  holds no string temporaries (see sim/check.hh). */
template <typename MsgFn>
[[noreturn, gnu::noinline, gnu::cold]] void
panicCold(const MsgFn &msg)
{
    panic(msg());
}
} // namespace detail

/**
 * Print a non-fatal warning to stderr.
 *
 * Two constraints from the resident worker pool, whose forked workers
 * share stderr with the parent and each other:
 *
 *  - The whole line is emitted as ONE fwrite of preformatted bytes.
 *    stderr is unbuffered, so a single write reaches the fd in one
 *    syscall on every mainstream libc and concurrent workers cannot
 *    interleave mid-line (POSIX keeps writes up to PIPE_BUF atomic on
 *    pipes).
 *  - A message repeating beyond a small cap is dropped, with one
 *    "[suppressing further ...]" notice. A warning inside a per-event
 *    path would otherwise flood a pool of workers' shared stderr.
 */
inline void
warn(const std::string &msg)
{
    // Dedup cap: distinct message texts each get kWarnRepeatCap prints.
    // Thread-local so no lock sits on the warning path; workers are
    // forked, not threaded, and fork snapshots the counts (workers
    // then dedup independently, which is the useful behavior).
    constexpr unsigned kWarnRepeatCap = 10;
    thread_local std::map<std::string, unsigned> counts;
    unsigned &n = counts[msg];
    if (n >= kWarnRepeatCap)
        return;
    ++n;
    std::string line;
    line.reserve(msg.size() + 64);
    line += "warn: ";
    line += msg;
    if (n == kWarnRepeatCap)
        line += " [suppressing further repeats of this warning]";
    line += '\n';
    std::fwrite(line.data(), 1, line.size(), stderr);
}

} // namespace duet

/**
 * Assert a simulator invariant; panics (throws SimPanic) with @p msg when
 * @p cond is false. A macro rather than a function so the message
 * expression — almost always a string concatenation like
 * `name_ + ": ..."` — is only materialized on failure; hot paths assert
 * millions of times per scenario and must not pay a string build each
 * time. The message is built inside detail::panicCold(), out of line,
 * so the panic text survives a failure inlined into a noexcept
 * function.
 */
#define simAssert(cond, msg)                                                \
    do {                                                                    \
        if (!(cond)) [[unlikely]]                                           \
            ::duet::detail::panicCold(                                      \
                [&]() -> std::string { return (msg); });                    \
    } while (false)

#endif // DUET_SIM_LOGGING_HH
