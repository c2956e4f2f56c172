/**
 * @file
 * The invariant layer: DUET_ASSERT/DUET_DCHECK semantics, the
 * --paranoid runtime switch, and the traps the macros pin across the
 * simulator — past-event scheduling, odd resume frames,
 * scratchpad/functional-memory bounds, coroutine double-await, and the
 * serve/executor wire checks.
 */

#include <coroutine>
#include <cstdint>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "fpga/scratchpad.hh"
#include "mem/functional_mem.hh"
#include "sim/check.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/task.hh"

namespace duet
{
namespace
{

/** Pin the paranoid flag for one test and restore it after, so suites
 *  behave identically in plain and DUET_SANITIZE builds (where the
 *  flag defaults on). */
class ParanoidScope
{
  public:
    explicit ParanoidScope(bool on) : prev_(paranoidChecks())
    {
        setParanoidChecks(on);
    }
    ~ParanoidScope() { setParanoidChecks(prev_); }
    ParanoidScope(const ParanoidScope &) = delete;
    ParanoidScope &operator=(const ParanoidScope &) = delete;

  private:
    bool prev_;
};

TEST(Check, AssertPassesQuietly)
{
    EXPECT_NO_THROW(DUET_ASSERT(1 + 1 == 2, "arithmetic holds"));
}

TEST(Check, AssertViolationThrowsSimPanicWithContext)
{
    try {
        DUET_ASSERT(2 + 2 == 5, "arithmetic broke");
        FAIL() << "DUET_ASSERT did not throw";
    } catch (const SimPanic &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("DUET_ASSERT"), std::string::npos) << what;
        EXPECT_NE(what.find("arithmetic broke"), std::string::npos) << what;
        EXPECT_NE(what.find("2 + 2 == 5"), std::string::npos) << what;
        EXPECT_NE(what.find("test_check.cc"), std::string::npos) << what;
    }
}

TEST(Check, AssertAlwaysEvaluatesItsCondition)
{
    ParanoidScope scope(false);
    int evaluated = 0;
    DUET_ASSERT((++evaluated, true), "condition must run");
    EXPECT_EQ(evaluated, 1);
}

TEST(Check, DcheckIsSkippedWhenParanoidOff)
{
    ParanoidScope scope(false);
    int evaluated = 0;
    EXPECT_NO_THROW(
        DUET_DCHECK((++evaluated, false), "must not even evaluate"));
    EXPECT_EQ(evaluated, 0);
}

TEST(Check, DcheckTrapsWhenParanoidOn)
{
    ParanoidScope scope(true);
    EXPECT_THROW(DUET_DCHECK(false, "paranoid trap"), SimPanic);
}

TEST(Check, ParanoidFlagRoundTrips)
{
    ParanoidScope scope(true);
    EXPECT_TRUE(paranoidChecks());
    setParanoidChecks(false);
    EXPECT_FALSE(paranoidChecks());
}

TEST(Check, ParanoidCliFlagParses)
{
    char arg0[] = "duet_sim";
    char arg1[] = "--paranoid";
    char *argv[] = {arg0, arg1};
    SimOptions opts;
    std::string err;
    ASSERT_EQ(parseSimOptions(2, argv, opts, err), ParseStatus::Ok) << err;
    EXPECT_TRUE(opts.paranoid);
}

// An invariant violation that nobody catches must kill the process
// (SimPanic escaping a noexcept boundary -> std::terminate), not limp
// on. The noexcept lambda models main()'s crash path; without it gtest
// itself would catch the exception.
TEST(CheckDeathTest, UncaughtAssertViolationDies)
{
    EXPECT_DEATH(
        []() noexcept { DUET_ASSERT(false, "unrecoverable invariant"); }(),
        "unrecoverable invariant");
}

// simAssert builds its message out of line, so a concatenated message
// inlined into a noexcept function leaves no string temporaries behind:
// the process dies with the built text, not "terminate called without
// an active exception".
TEST(CheckDeathTest, UncaughtSimAssertKeepsItsConcatenatedMessage)
{
    const std::string who = "core3";
    EXPECT_DEATH(
        [&who]() noexcept {
            simAssert(who.empty(), who + ": stray response " +
                                       std::to_string(7) + " at the core");
        }(),
        "core3: stray response 7 at the core");
}

// ---------------------------------------------------------------------
// Event-queue monotonicity
// ---------------------------------------------------------------------

TEST(CheckEventQueue, SchedulingInPastTrapsWithBothTicks)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    try {
        eq.schedule(50, [] {});
        FAIL() << "past-event schedule did not throw";
    } catch (const SimPanic &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("scheduled in the past"), std::string::npos)
            << what;
        EXPECT_NE(what.find("50"), std::string::npos) << what;
        EXPECT_NE(what.find("100"), std::string::npos) << what;
    }
}

TEST(CheckEventQueueDeathTest, UncaughtPastEventDies)
{
    // The queue lives outside the noexcept lambda, so the frame that
    // throws has no local of its own to destroy on the way out. With the
    // queue as a local, tsan builds (GCC 12) died with "terminate called
    // without an active exception" and lost the panic text.
    EventQueue eq;
    EXPECT_DEATH(
        [&eq]() noexcept {
            eq.schedule(10, [] {});
            eq.run();
            eq.schedule(1, [] {});
        }(),
        "scheduled in the past");
}

TEST(CheckEventQueue, OddFrameAddressTrapsUnderParanoid)
{
    // A queued resume names its frame by a 4-aligned address; bit 0
    // would read back as a slab slot, bit 1 as a posted event.
    ParanoidScope scope(true);
    EventQueue eq;
    alignas(8) static char frame[8];
    EXPECT_THROW(
        eq.resumeAt(1, std::coroutine_handle<>::from_address(frame + 1)),
        SimPanic);
    EXPECT_THROW(
        eq.resumeAt(1, std::coroutine_handle<>::from_address(frame + 2)),
        SimPanic);
    EXPECT_TRUE(eq.empty());
}

TEST(CheckEventQueue, PostingAPendingEventTrapsUnderParanoid)
{
    // A posted event is its own queue node: a second post while it is
    // pending would queue one record twice.
    ParanoidScope scope(true);
    EventQueue eq;
    int fired = 0;
    struct Counted : EventQueue::Event
    {
        int *fired = nullptr;
    } e;
    e.fired = &fired;
    e.fire = [](EventQueue::Event &ev) {
        ++*static_cast<Counted &>(ev).fired;
    };
    eq.post(1, e);
    EXPECT_THROW(eq.post(2, e), SimPanic);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(fired, 1);
    eq.post(3, e); // fired, so free to post again
    eq.run();
    EXPECT_EQ(fired, 2);
}

// ---------------------------------------------------------------------
// Scratchpad / functional-memory bounds
// ---------------------------------------------------------------------

TEST(CheckScratchpad, InBoundsAccessesStillWork)
{
    ParanoidScope scope(true);
    Scratchpad spm(64);
    spm.write(8, 0xdeadbeefcafef00dull);
    EXPECT_EQ(spm.read(8), 0xdeadbeefcafef00dull);
}

TEST(CheckScratchpad, OutOfBoundsTraps)
{
    Scratchpad spm(64);
    EXPECT_THROW(spm.read(64, 8), SimPanic);
    EXPECT_THROW(spm.write(57, 0, 8), SimPanic);
}

// `offset + size` on a corrupted offset near SIZE_MAX wraps a naive
// sum; the overflow-safe bound must still trap it.
TEST(CheckScratchpad, WrappingOffsetTraps)
{
    Scratchpad spm(64);
    const std::size_t wrap = std::numeric_limits<std::size_t>::max() - 4;
    EXPECT_THROW(spm.read(wrap, 8), SimPanic);
    EXPECT_THROW(spm.write(wrap, 0, 8), SimPanic);
}

// A 9-byte access passes the capacity bound but would overrun the
// 8-byte value buffer; the size bound is unconditional because it is
// memory safety, not paranoia.
TEST(CheckScratchpad, OversizedAccessTraps)
{
    ParanoidScope scope(false);
    Scratchpad spm(64);
    EXPECT_THROW(spm.read(0, 9), SimPanic);
    EXPECT_THROW(spm.write(0, 0, 9), SimPanic);
    EXPECT_THROW(spm.read(0, 0), SimPanic);
}

TEST(CheckFunctionalMemory, MisalignedAndCrossPageAccessesTrap)
{
    FunctionalMemory mem;
    EXPECT_THROW(mem.read(3, 8), SimPanic);      // misaligned
    EXPECT_THROW(mem.read(0, 9), SimPanic);      // size out of range
    EXPECT_THROW(mem.write(kPageBytes - 4, 8, 1), SimPanic); // page cross
}

TEST(CheckFunctionalMemory, WrappingByteRangeTrapsUnderParanoid)
{
    ParanoidScope scope(true);
    FunctionalMemory mem;
    std::uint8_t buf[16] = {};
    const Addr wrap = std::numeric_limits<Addr>::max() - 4;
    EXPECT_THROW(mem.readBytes(wrap, buf, sizeof(buf)), SimPanic);
    EXPECT_THROW(mem.writeBytes(wrap, buf, sizeof(buf)), SimPanic);
}

// ---------------------------------------------------------------------
// Coroutine-handle invariants (sim/task.hh)
// ---------------------------------------------------------------------

CoTask<void>
nop()
{
    co_return;
}

TEST(CheckCoTask, AwaitingMovedFromTaskTraps)
{
    CoTask<void> a = nop();
    CoTask<void> b = std::move(a);
    EXPECT_THROW(a.await_suspend(std::noop_coroutine()), SimPanic);
    // b still owns the frame and is destroyed exactly once.
}

TEST(CheckCoTask, DoubleAwaitTraps)
{
    CoTask<void> t = nop();
    std::coroutine_handle<> h = t.await_suspend(std::noop_coroutine());
    EXPECT_THROW(t.await_suspend(std::noop_coroutine()), SimPanic);
    h.resume(); // run to completion; ~CoTask destroys the frame once
}

TEST(CheckPendingValue, ResumeBeforeFulfillTrapsUnderParanoid)
{
    ParanoidScope scope(true);
    struct Op : PendingValue<int>
    {
    };
    Op op;
    EXPECT_THROW(op.await_resume(), SimPanic);
}

} // namespace
} // namespace duet
