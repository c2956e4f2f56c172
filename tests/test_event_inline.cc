/**
 * @file
 * The event-queue storage layer introduced by the hot-path overhaul:
 * InlineFunction's inline-vs-heap boundary and move/destroy discipline,
 * the chunked slab + LIFO free-list slot recycler, and — the contract
 * everything else rests on — pop-order identity with a naive reference
 * implementation, across a million randomly scheduled events and across
 * a script that drives the pending depth back and forth through the
 * queue's sorted front and heap tier.
 */

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_queue.hh"
#include "sim/inline_function.hh"

namespace duet
{
namespace
{

// ---------------------------------------------------------------------
// InlineFunction: the inline-vs-heap boundary
// ---------------------------------------------------------------------

using SmallFn = InlineFunction<int(), 64>;

TEST(InlineFunction, CaptureAtTheBudgetStaysInline)
{
    char blob[SmallFn::kInlineBytes - sizeof(int)] = {};
    int tag = 7;
    SmallFn f = [blob, tag] { return tag + blob[0]; };
    EXPECT_TRUE(f.storedInline());
    EXPECT_EQ(f(), 7);
}

TEST(InlineFunction, CapturePastTheBudgetGoesToTheHeap)
{
    char blob[SmallFn::kInlineBytes + 1] = {};
    blob[SmallFn::kInlineBytes] = 3;
    SmallFn f = [blob] { return blob[sizeof(blob) - 1]; };
    EXPECT_FALSE(f.storedInline());
    EXPECT_EQ(f(), 3);
}

TEST(InlineFunction, EventBudgetMatchesTheDeclaredBoundary)
{
    // The queue's Event type must store a budget-sized capture inline
    // and spill one byte past it; a silent budget change would move
    // hot captures onto the heap without any test noticing.
    char atLimit[EventQueue::Event::kInlineBytes] = {};
    EventQueue::Event inlineEv = [atLimit] { (void)atLimit[0]; };
    EXPECT_TRUE(inlineEv.storedInline());

    char pastLimit[EventQueue::Event::kInlineBytes + 1] = {};
    EventQueue::Event heapEv = [pastLimit] { (void)pastLimit[0]; };
    EXPECT_FALSE(heapEv.storedInline());
}

/** Counts live instances and move-constructions of a capture. */
struct Probe
{
    static int live;
    static int moves;
    Probe() { ++live; }
    Probe(Probe &&) noexcept
    {
        ++live;
        ++moves;
    }
    Probe(const Probe &) = delete;
    Probe &operator=(const Probe &) = delete;
    Probe &operator=(Probe &&) = delete;
    ~Probe() { --live; }
};

int Probe::live = 0;
int Probe::moves = 0;

TEST(InlineFunction, InlineMoveMovesTheCaptureExactlyOnce)
{
    Probe::live = 0;
    Probe::moves = 0;
    {
        SmallFn f = [p = Probe{}] { return 1; };
        ASSERT_TRUE(f.storedInline());
        EXPECT_EQ(Probe::live, 1);
        const int movesBefore = Probe::moves;
        SmallFn g = std::move(f);
        // Inline storage cannot be stolen: the capture itself moves,
        // once, and the source's copy is destroyed.
        EXPECT_EQ(Probe::moves, movesBefore + 1);
        EXPECT_EQ(Probe::live, 1);
        EXPECT_EQ(g(), 1);
    }
    EXPECT_EQ(Probe::live, 0);
}

TEST(InlineFunction, HeapMoveTransfersOwnershipWithoutMovingTheCapture)
{
    Probe::live = 0;
    Probe::moves = 0;
    {
        SmallFn f = [p = Probe{},
                     pad = std::array<char, SmallFn::kInlineBytes>{}] {
            return static_cast<int>(pad[0]) + 2;
        };
        ASSERT_FALSE(f.storedInline());
        EXPECT_EQ(Probe::live, 1);
        const int movesBefore = Probe::moves;
        SmallFn g = std::move(f);
        // A heap capture moves as a pointer swap: zero capture moves.
        EXPECT_EQ(Probe::moves, movesBefore);
        EXPECT_EQ(Probe::live, 1);
        EXPECT_EQ(g(), 2);
    }
    EXPECT_EQ(Probe::live, 0);
}

TEST(InlineFunction, ResetAndReassignDestroyExactlyOnce)
{
    Probe::live = 0;
    SmallFn f = [p = Probe{}] { return 1; };
    EXPECT_EQ(Probe::live, 1);
    f.reset();
    EXPECT_EQ(Probe::live, 0);
    EXPECT_FALSE(static_cast<bool>(f));

    f = [p = Probe{}] { return 2; };
    EXPECT_EQ(Probe::live, 1);
    f = [] { return 3; }; // replacement destroys the old capture
    EXPECT_EQ(Probe::live, 0);
    EXPECT_EQ(f(), 3);
}

// ---------------------------------------------------------------------
// EventQueue: slab growth and LIFO slot recycling
// ---------------------------------------------------------------------

TEST(EventQueueSlab, RunReturnsEverySlotToTheFreeList)
{
    EventQueue eq;
    constexpr std::size_t kEvents = 100;
    for (std::size_t i = 0; i < kEvents; ++i)
        eq.schedule(static_cast<Tick>(i), [] {});
    EXPECT_EQ(eq.slabSlots(), kEvents);
    EXPECT_EQ(eq.freeSlots(), 0u);
    eq.run();
    EXPECT_EQ(eq.executed(), kEvents);
    EXPECT_EQ(eq.freeSlots(), kEvents);
}

TEST(EventQueueSlab, SteadyStateSchedulingReusesSlotsWithoutGrowth)
{
    EventQueue eq;
    // Warm up: one burst creates the slots...
    for (int i = 0; i < 50; ++i)
        eq.schedule(eq.now() + 1, [] {});
    eq.run();
    const std::size_t warm = eq.slabSlots();
    // ...and every later burst of the same width recycles them.
    for (int round = 0; round < 10; ++round) {
        for (int i = 0; i < 50; ++i)
            eq.schedule(eq.now() + 1, [] {});
        eq.run();
        EXPECT_EQ(eq.slabSlots(), warm);
        EXPECT_EQ(eq.freeSlots(), warm);
    }
}

TEST(EventQueueSlab, CallbackGrowingTheSlabRunsInPlace)
{
    // An executing event that schedules enough events to force new
    // chunks must keep running safely (pointer-stable chunk storage:
    // the running callback is never moved).
    EventQueue eq;
    std::uint64_t ran = 0;
    eq.schedule(0, [&eq, &ran] {
        for (int i = 0; i < 10000; ++i)
            eq.schedule(eq.now() + 1 + i, [&ran] { ++ran; });
    });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(ran, 10000u);
    EXPECT_EQ(eq.executed(), 10001u);
    EXPECT_GE(eq.slabSlots(), 10000u);
    EXPECT_EQ(eq.freeSlots(), eq.slabSlots());
}

// ---------------------------------------------------------------------
// Pop-order identity with a reference implementation
// ---------------------------------------------------------------------

/** SplitMix64: tiny, seedable, and good enough to scatter ticks. */
std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/**
 * A straight-line reference queue: an ordered set of (when, seq, id)
 * keys, popped smallest-first — the semantics the seed implementation's
 * single sorted vector had, with none of the production queue's heap
 * arity, slab or free-list machinery.
 */
struct ReferenceQueue
{
    std::set<std::tuple<Tick, std::uint64_t, std::uint32_t>> pending;
    std::uint64_t seq = 0;
    Tick now = 0;

    void
    schedule(Tick when, std::uint32_t id)
    {
        pending.insert({when, seq++, id});
    }
};

/// Deterministic per-event behavior, shared by both engines: where an
/// executing event schedules its successors. Same-tick deltas included,
/// so the seq tie-break is exercised, not just the tick ordering.
struct Successor
{
    Tick delta;
    int count;
};

Successor
successorsOf(std::uint32_t id, std::uint64_t seed)
{
    std::uint64_t s = seed ^ (0x1234567891ull * (id + 1));
    const std::uint64_t r = splitmix64(s);
    return Successor{static_cast<Tick>(r % 257), // 0 => same-tick ties
                     static_cast<int>((r >> 32) % 3)};
}

TEST(EventQueueOrder, MillionEventPopOrderMatchesReferenceImplementation)
{
    constexpr std::uint32_t kTotal = 1'000'000;
    constexpr std::uint32_t kSeedEvents = 4096;
    constexpr std::uint64_t kSeed = 0xd0e7f00d5eed0001ull;

    // --- production queue ---
    std::vector<std::uint32_t> got;
    got.reserve(kTotal);
    {
        EventQueue eq;
        std::uint32_t next = kSeedEvents;
        // self-referential scheduling: each executed event spawns its
        // deterministic successors until kTotal ids are out.
        std::function<void(std::uint32_t)> body;
        auto runOne = [&](std::uint32_t id) {
            got.push_back(id);
            const Successor s = successorsOf(id, kSeed);
            for (int c = 0; c < s.count && next < kTotal; ++c) {
                const std::uint32_t child = next++;
                eq.schedule(eq.now() + s.delta + static_cast<Tick>(c),
                            [&, child] { body(child); });
            }
        };
        body = runOne;
        std::uint64_t rng = kSeed;
        for (std::uint32_t id = 0; id < kSeedEvents; ++id)
            eq.schedule(static_cast<Tick>(splitmix64(rng) % 100000),
                        [&, id] { body(id); });
        EXPECT_TRUE(eq.run());
        EXPECT_GE(eq.executed(), kSeedEvents);
    }

    // --- reference queue, same scripted behavior ---
    std::vector<std::uint32_t> want;
    want.reserve(kTotal);
    {
        ReferenceQueue rq;
        std::uint32_t next = kSeedEvents;
        std::uint64_t rng = kSeed;
        for (std::uint32_t id = 0; id < kSeedEvents; ++id)
            rq.schedule(static_cast<Tick>(splitmix64(rng) % 100000), id);
        while (!rq.pending.empty()) {
            const auto [when, seq, id] = *rq.pending.begin();
            rq.pending.erase(rq.pending.begin());
            rq.now = when;
            want.push_back(id);
            const Successor s = successorsOf(id, kSeed);
            for (int c = 0; c < s.count && next < kTotal; ++c)
                rq.schedule(rq.now + s.delta + static_cast<Tick>(c),
                            next++);
        }
    }

    ASSERT_EQ(got.size(), want.size());
    // Element-wise compare (EXPECT_EQ on the vectors would print a
    // million-entry diff on failure).
    for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i], want[i]) << "pop order diverges at event " << i;
    }
}

// ---------------------------------------------------------------------
// The two tiers: depth crossing the front, and reset
// ---------------------------------------------------------------------

/// Re-armable ids sit above every one-shot id the script hands out.
constexpr std::uint32_t kRearmBase = 1u << 30;
constexpr std::uint32_t kRearmables = 4;

/** The production queue behind the depth script's engine interface. */
struct QueueEngine
{
    EventQueue eq;
    std::function<void(std::uint32_t)> fire;
    std::array<std::uint32_t, kRearmables> slots{};

    QueueEngine()
    {
        for (std::uint32_t k = 0; k < kRearmables; ++k)
            slots[k] = eq.bindRearmable([this, k] { fire(kRearmBase + k); });
    }
    ~QueueEngine()
    {
        for (std::uint32_t slot : slots)
            eq.releaseRearmable(slot);
    }
    Tick now() const { return eq.now(); }
    std::size_t pending() const { return eq.pending(); }
    void
    schedule(Tick when, std::uint32_t id)
    {
        eq.schedule(when, [this, id] { fire(id); });
    }
    void arm(std::uint32_t k, Tick when) { eq.armRearmable(slots[k], when); }
    void runUntil(Tick limit) { eq.run(limit); }
};

/** ReferenceQueue behind the same interface: a re-arm is a schedule
 *  under a fresh seq, and runUntil() mirrors EventQueue::run(limit)'s
 *  clock (now() = limit only when the limit stopped the run). */
struct ReferenceEngine
{
    ReferenceQueue rq;
    std::function<void(std::uint32_t)> fire;

    Tick now() const { return rq.now; }
    std::size_t pending() const { return rq.pending.size(); }
    void schedule(Tick when, std::uint32_t id) { rq.schedule(when, id); }
    void arm(std::uint32_t k, Tick when) { rq.schedule(when, kRearmBase + k); }
    void
    runUntil(Tick limit)
    {
        while (!rq.pending.empty()) {
            const auto [when, seq, id] = *rq.pending.begin();
            if (when > limit) {
                rq.now = limit;
                return;
            }
            rq.pending.erase(rq.pending.begin());
            rq.now = when;
            fire(id);
        }
    }
};

/**
 * The depth-crossing script, run identically on either engine: 300
 * rounds, each a burst of 40-100 events (ties on a 50-tick window, one
 * in eight at now(), some arming an idle re-armable slot) that lifts the
 * pending depth well past the queue's 32-node front, then a drain in
 * small tick steps until fewer than 8 remain. A fired one-shot event
 * schedules a child at now()..now()+3 one time in three; a fired
 * re-armable slot re-arms itself one cycle later half the time.
 * @return the ids in pop order
 */
template <typename Engine>
std::vector<std::uint32_t>
runDepthScript(Engine &e, std::uint64_t seed)
{
    std::vector<std::uint32_t> order;
    std::array<bool, kRearmables> armed{};
    std::uint32_t next = 0;
    e.fire = [&](std::uint32_t id) {
        order.push_back(id);
        std::uint64_t s = seed ^ (0x9e3779b97f4a7c15ull * order.size());
        const std::uint64_t r = splitmix64(s);
        if (id >= kRearmBase) {
            const std::uint32_t k = id - kRearmBase;
            armed[k] = r % 2 == 0;
            if (armed[k])
                e.arm(k, e.now() + 1);
        } else if (r % 3 == 0) {
            e.schedule(e.now() + (r >> 8) % 4, next++);
        }
    };
    std::uint64_t rng = seed;
    for (int round = 0; round < 300; ++round) {
        const int burst = 40 + static_cast<int>(splitmix64(rng) % 61);
        for (int i = 0; i < burst; ++i) {
            const std::uint64_t r = splitmix64(rng);
            const Tick when = e.now() + (r % 8 == 0 ? 0 : (r >> 3) % 50);
            const std::uint32_t k = (r >> 16) % kRearmables;
            if ((r >> 24) % 8 == 0 && !armed[k]) {
                armed[k] = true;
                e.arm(k, when);
            } else {
                e.schedule(when, next++);
            }
        }
        while (e.pending() >= 8)
            e.runUntil(e.now() + 1 + splitmix64(rng) % 4);
    }
    e.runUntil(kMaxTick);
    e.fire = nullptr; // its captures die with this frame
    return order;
}

TEST(EventQueueOrder, DepthCrossingTheFrontMatchesReferenceImplementation)
{
    constexpr std::uint64_t kSeed = 0xd0e7f00d5eed0002ull;
    QueueEngine prod;
    const std::vector<std::uint32_t> got = runDepthScript(prod, kSeed);
    EXPECT_TRUE(prod.eq.empty());
    ReferenceEngine ref;
    const std::vector<std::uint32_t> want = runDepthScript(ref, kSeed);

    ASSERT_GT(want.size(), 20000u);
    // The script reacts to what it pops, so a wrong pop also changes
    // what runs later: report the first divergence, then the length.
    for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
        ASSERT_EQ(got[i], want[i]) << "pop order diverges at event " << i;
    }
    ASSERT_EQ(got.size(), want.size());
}

TEST(EventQueueSlab, ResetWithBothTiersPopulatedReturnsEveryOneShotSlot)
{
    EventQueue eq;
    int ran = 0;
    for (Tick t = 0; t < 100; ++t)
        eq.schedule(t, [&ran] { ++ran; });
    const std::uint32_t cadence = eq.bindRearmable([] {});
    eq.armRearmable(cadence, 70);
    EXPECT_EQ(eq.pending(), 101u);
    // Ticks 0-9 run; 10-99 and the armed slot stay queued, more than
    // the front holds, so both tiers count toward pending().
    EXPECT_FALSE(eq.run(9));
    EXPECT_EQ(ran, 10);
    EXPECT_EQ(eq.pending(), 91u);
    EXPECT_FALSE(eq.empty());

    eq.reset();
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_TRUE(eq.empty());
    // Every one-shot slot is back; the re-armable one stays bound to
    // its owner until released.
    EXPECT_EQ(eq.freeSlots() + 1, eq.slabSlots());
    eq.releaseRearmable(cadence);
    EXPECT_EQ(eq.freeSlots(), eq.slabSlots());

    // The reset queue is whole again: a new schedule runs in order.
    std::vector<int> order;
    for (int i = 0; i < 40; ++i)
        eq.schedule(static_cast<Tick>(40 - i),
                    [&order, i] { order.push_back(i); });
    EXPECT_TRUE(eq.run());
    ASSERT_EQ(order.size(), 40u);
    for (int i = 0; i < 40; ++i)
        EXPECT_EQ(order[i], 39 - i);
}

} // namespace
} // namespace duet
