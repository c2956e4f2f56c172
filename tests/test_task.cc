/**
 * @file
 * The intrusive-awaitable timing path introduced by the payload diet:
 * PendingValue/PendingVoid lifetime and fast-path discipline, the
 * queue's resume nodes (ClockDelay-vs-scheduleAtEdge tick equivalence,
 * one callback slot reused across a steady ClockDelay loop, reset()
 * with resumes still pending, L1-hit loads resuming from their node
 * like ClockDelay, and pop-order identity with a naive
 * reference queue across ~a million mixed one-shot events and resumed
 * coroutines), MMIO transaction-table behaviour under a flood of
 * outstanding requests, and whole-workload timing identity across
 * repeated (warm-started) runs.
 */

#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <set>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/fpga_reg_file.hh"
#include "cpu/core.hh"
#include "fpga/soft_cache.hh"
#include "sim/clock.hh"
#include "sim/event_queue.hh"
#include "sim/task.hh"
#include "system/system.hh"
#include "workload/apps.hh"

namespace duet
{
namespace
{

// ---------------------------------------------------------------------
// PendingValue / PendingVoid: the intrusive awaitable contract
// ---------------------------------------------------------------------

// The bases keep their destructors protected (nothing deletes an op
// through them); tests use minimal concrete ops.
struct ValueOp : PendingValue<std::uint64_t>
{
};

struct VoidOp : PendingVoid
{
};

TEST(PendingValue, PreResolvedResultShortCircuitsTheAwait)
{
    // An op whose result arrived before the co_await (L1 hit resolved
    // during issue, MMIO answered same-tick) must not suspend at all.
    ValueOp op;
    op.fulfill(42);
    EXPECT_TRUE(op.await_ready());
    bool done = false;
    spawn([](ValueOp &o, bool &flag) -> CoTask<void> {
        EXPECT_EQ(co_await o, 42u);
        flag = true;
    }(op, done));
    // No suspension happened: the coroutine ran to completion inline.
    EXPECT_TRUE(done);
    drainDetachedTasks();
}

TEST(PendingValue, FulfillResumesTheParkedWaiter)
{
    ValueOp op;
    bool done = false;
    std::uint64_t got = 0;
    spawn([](ValueOp &o, bool &flag, std::uint64_t &out) -> CoTask<void> {
        out = co_await o;
        flag = true;
    }(op, done, got));
    EXPECT_FALSE(done); // parked: no value yet
    EXPECT_FALSE(op.await_ready());
    op.fulfill(7);
    EXPECT_TRUE(done);
    EXPECT_EQ(got, 7u);
    drainDetachedTasks();
}

TEST(PendingValue, FulfillingTwiceTrapsAndAwaitingTwiceTraps)
{
    ValueOp op;
    op.fulfill(1);
    EXPECT_THROW(op.fulfill(2), SimPanic);

    ValueOp parked;
    parked.await_suspend(std::noop_coroutine());
    EXPECT_THROW(parked.await_suspend(std::noop_coroutine()), SimPanic);
}

TEST(PendingVoid, CompletionBeforeAndAfterTheAwait)
{
    // Pre-resolved: a store acknowledged before the co_await.
    VoidOp pre;
    pre.fulfill();
    EXPECT_TRUE(pre.await_ready());

    // Parked: fulfilled later, waiter resumes.
    VoidOp op;
    bool done = false;
    spawn([](VoidOp &o, bool &flag) -> CoTask<void> {
        co_await o;
        flag = true;
    }(op, done));
    EXPECT_FALSE(done);
    op.fulfill();
    EXPECT_TRUE(done);
    drainDetachedTasks();
}

TEST(AwaitableDiscipline, OpObjectsArePinned)
{
    // Pending state lives inside the awaitable and completion callbacks
    // hold its address, so every op type must be immovable — a copy or
    // move would leave the callback writing into a dead object.
    static_assert(!std::is_copy_constructible_v<Core::LoadOp>);
    static_assert(!std::is_move_constructible_v<Core::LoadOp>);
    static_assert(!std::is_copy_constructible_v<Core::StoreOp>);
    static_assert(!std::is_move_constructible_v<Core::MmioWriteOp>);
    static_assert(!std::is_copy_constructible_v<SoftCache::LoadOp>);
    static_assert(!std::is_move_constructible_v<SoftCache::LoadOp>);
    static_assert(!std::is_move_constructible_v<SoftCache::DrainOp>);
    static_assert(!std::is_copy_constructible_v<FpgaRegFile::PopOp>);
    static_assert(!std::is_move_constructible_v<FpgaRegFile::PopOp>);
    SUCCEED();
}

// ---------------------------------------------------------------------
// ClockDelay: resume nodes in the event queue
// ---------------------------------------------------------------------

TEST(ClockDelay, LoopFiresOnScheduleAtEdgeTicksWithoutSlabSlots)
{
    // A ClockDelay loop must land on exactly the clock edges that
    // scheduleAtEdge callbacks land on, with one executed event per
    // iteration, while its resume nodes never claim a slab slot.
    constexpr unsigned kIters = 10'000;
    std::vector<Tick> resumed;
    {
        EventQueue eq;
        ClockDomain clk(eq, "clk", 1000);
        spawn([](EventQueue &q, ClockDomain &c,
                 std::vector<Tick> &out) -> CoTask<void> {
            for (unsigned i = 0; i < kIters; ++i) {
                co_await ClockDelay(c, 1 + i % 3);
                out.push_back(q.now());
            }
        }(eq, clk, resumed));
        eq.run();
        drainDetachedTasks();
        EXPECT_EQ(eq.executed(), kIters);
        EXPECT_EQ(eq.slabSlots(), 0u);
    }
    std::vector<Tick> called;
    {
        EventQueue eq;
        ClockDomain clk(eq, "clk", 1000);
        std::function<void(unsigned)> step = [&](unsigned i) {
            clk.scheduleAtEdge(1 + i % 3, [&, i] {
                called.push_back(eq.now());
                if (i + 1 < kIters)
                    step(i + 1);
            });
        };
        step(0);
        eq.run();
        EXPECT_EQ(eq.executed(), kIters);
    }
    EXPECT_EQ(resumed, called);
}

TEST(ClockDelay, SteadyStateLoopReusesOneCallbackSlot)
{
    // A loop that schedules one callback per iteration and then waits a
    // cycle holds one slab slot at a time: its resume nodes claim none,
    // and each callback's slot is back on the free list before the next
    // iteration takes it.
    EventQueue eq;
    ClockDomain clk(eq, "clk", 1000);
    std::uint64_t calls = 0;
    spawn([](EventQueue &q, ClockDomain &c,
             std::uint64_t &n) -> CoTask<void> {
        for (unsigned i = 0; i < 10'000; ++i) {
            q.schedule(q.now(), [&n] { ++n; });
            co_await ClockDelay(c, 1);
        }
    }(eq, clk, calls));
    eq.run();
    drainDetachedTasks();
    EXPECT_EQ(calls, 10'000u);
    EXPECT_EQ(eq.executed(), 20'000u);
    EXPECT_EQ(eq.slabSlots(), 1u);
    EXPECT_EQ(eq.freeSlots(), 1u);
}

TEST(ClockDelay, ResetDropsPendingResumesOfDrainedFrames)
{
    // A run stopped mid-loop leaves one resume node per looping frame
    // queued. The frames are reclaimed first; reset() must then drop
    // their nodes without resuming (or touching) the dead frames, drop a
    // posted event whose record is gone without firing (or touching)
    // it, and reclaim a pending callback's slot without running it.
    EventQueue eq;
    ClockDomain clk(eq, "clk", 1000);
    std::uint64_t iterations = 0;
    for (int t = 0; t < 8; ++t)
        spawn([](ClockDomain &c, std::uint64_t &n) -> CoTask<void> {
            for (unsigned i = 0; i < 1000; ++i) {
                co_await ClockDelay(c, 1 + i % 2);
                ++n;
            }
        }(clk, iterations));
    bool ran = false;
    eq.schedule(10'000'000, [&ran] { ran = true; });
    struct Flag : EventQueue::Event
    {
        bool *fired = nullptr;
    };
    bool fired = false;
    auto posted = std::make_unique<Flag>();
    posted->fired = &fired;
    posted->fire = [](EventQueue::Event &e) {
        *static_cast<Flag &>(e).fired = true;
    };
    eq.post(20'000'000, *posted);
    EXPECT_FALSE(eq.run(50'000)); // 50 cycles into 1000-iteration loops
    const std::uint64_t before = iterations;
    EXPECT_GT(before, 0u);
    EXPECT_EQ(eq.pending(), 10u);

    drainDetachedTasks();
    posted.reset();
    eq.reset();
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_EQ(eq.freeSlots(), eq.slabSlots());
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(eq.executed(), 0u);
    EXPECT_EQ(iterations, before);
    EXPECT_FALSE(ran);
    EXPECT_FALSE(fired);
}

// ---------------------------------------------------------------------
// Core::LoadOp: an L1 hit resumes its frame from the queue node
// ---------------------------------------------------------------------

/** A one-core CPU-only System. */
SystemConfig
oneCoreConfig()
{
    SystemConfig cfg;
    cfg.numCores = 1;
    cfg.numMemHubs = 0;
    cfg.mode = SystemMode::CpuOnly;
    return cfg;
}

constexpr Addr kHitAddr = 0x10000;

/** What runHitLoop() saw: resume ticks, slab slots in use while each
 *  wait was in flight (summed), events the loop ran, and L1 hits. */
struct HitLoop
{
    std::vector<Tick> resumed;
    std::uint64_t slotsInFlight = 0;
    std::uint64_t events = 0;
    std::uint64_t l1Hits = 0;
};

/**
 * Run @p iters L1-hit waits on core 0 after one filling load, each
 * preceded by a ClockDelay on a 333 MHz clock so the hit is issued off
 * the core's edges. With @p viaLoad the wait is a real load; otherwise
 * it is the callback a hit used to schedule: scheduleAtEdge(hitLatency)
 * fulfilling a PendingValue.
 */
HitLoop
runHitLoop(bool viaLoad, unsigned iters)
{
    HitLoop out;
    System sys(oneCoreConfig());
    sys.memory().write(kHitAddr, 8, 0x5eed);
    ClockDomain odd(sys.eventQueue(), "odd", 333);
    sys.core(0).start([&](Core &c) -> CoTask<void> {
        EventQueue &eq = sys.eventQueue();
        EXPECT_EQ(co_await c.load(kHitAddr), 0x5eedu); // miss: fills L1
        const Cycles hit = c.l1().params().hitLatency;
        const std::uint64_t before = eq.executed();
        for (unsigned i = 0; i < iters; ++i) {
            co_await ClockDelay(odd, 1 + i % 3);
            std::uint64_t v = 0;
            if (viaLoad) {
                auto op = c.load(kHitAddr);
                out.slotsInFlight += eq.slabSlots() - eq.freeSlots();
                v = co_await op;
            } else {
                ValueOp op;
                c.clock().scheduleAtEdge(hit, [&op] { op.fulfill(0x5eed); });
                out.slotsInFlight += eq.slabSlots() - eq.freeSlots();
                v = co_await op;
            }
            EXPECT_EQ(v, 0x5eedu);
            out.resumed.push_back(eq.now());
        }
        out.events = eq.executed() - before;
    });
    sys.run();
    out.l1Hits = sys.core(0).l1Hits.value();
    return out;
}

TEST(CoreLoad, L1HitLoopFiresOnScheduleAtEdgeTicksWithoutSlabSlots)
{
    // Each hit is one executed event on the edge a
    // scheduleAtEdge(hitLatency) callback lands on, and no hit holds a
    // slab slot while it is in flight.
    constexpr unsigned kIters = 3000;
    const HitLoop loads = runHitLoop(true, kIters);
    const HitLoop callbacks = runHitLoop(false, kIters);
    EXPECT_EQ(loads.l1Hits, kIters);
    EXPECT_EQ(loads.slotsInFlight, 0u);
    EXPECT_EQ(callbacks.slotsInFlight, kIters); // the slot a hit used
    EXPECT_EQ(loads.events, 2u * kIters);       // delay + hit per round
    EXPECT_EQ(loads.events, callbacks.events);
    EXPECT_EQ(loads.resumed, callbacks.resumed);
}

TEST(CoreLoad, L1HitReadsAStoreMadeEarlierInItsResumeTick)
{
    // The hit's value is read when its resume fires, not at issue: a
    // write queued earlier for the resume's tick is visible.
    System sys(oneCoreConfig());
    sys.memory().write(kHitAddr, 8, 1);
    std::uint64_t got = 0;
    sys.core(0).start([&](Core &c) -> CoTask<void> {
        co_await c.load(kHitAddr); // miss: fills L1
        const Tick due =
            c.clock().edgeAfterCycles(c.l1().params().hitLatency);
        sys.eventQueue().schedule(due,
                                  [&] { sys.memory().write(kHitAddr, 8, 2); });
        got = co_await c.load(kHitAddr);
        EXPECT_EQ(sys.eventQueue().now(), due);
    });
    sys.run();
    EXPECT_EQ(sys.core(0).l1Hits.value(), 1u);
    EXPECT_EQ(got, 2u);
}

TEST(CoreLoad, AwaitingALoadTwiceTraps)
{
    // An L1 hit queues its own resume, so it keeps its own
    // awaited-twice trap; a miss keeps PendingValue's.
    System sys(oneCoreConfig());
    sys.core(0).start([&](Core &c) -> CoTask<void> {
        co_await c.load(kHitAddr); // fill the L1
    });
    sys.run();
    Core &core = sys.core(0);
    Core::LoadOp hit(core, kHitAddr, 8, nullptr);
    EXPECT_EQ(core.l1Hits.value(), 1u);
    EXPECT_FALSE(hit.await_ready());
    hit.await_suspend(std::noop_coroutine());
    EXPECT_THROW(hit.await_suspend(std::noop_coroutine()), SimPanic);

    Core::LoadOp miss(core, kHitAddr + 4096, 8, nullptr);
    EXPECT_EQ(core.l1Hits.value(), 1u);
    miss.await_suspend(std::noop_coroutine());
    EXPECT_THROW(miss.await_suspend(std::noop_coroutine()), SimPanic);
    sys.run(); // both ops outlive their completions
}

// ---------------------------------------------------------------------
// Resumed coroutines: pop-order identity with a reference queue
// ---------------------------------------------------------------------

std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

struct Successor
{
    Tick delta;
    int count;
};

Successor
successorsOf(std::uint32_t id, std::uint64_t seed)
{
    std::uint64_t s = seed ^ (0x1234567891ull * (id + 1));
    std::uint64_t r = splitmix64(s);
    // delta 0 produces same-tick ties, the interesting ordering case.
    return {static_cast<Tick>(r % 257), static_cast<int>((r >> 32) % 3)};
}

/** Suspends the awaiting coroutine until the queue resumes it at
 *  @p when: a bare EventQueue::resumeAt, with no clock domain. */
struct ResumeAt
{
    EventQueue &eq;
    Tick when;

    bool await_ready() const noexcept { return false; }
    void
    await_suspend(std::coroutine_handle<> h) const
    {
        eq.resumeAt(when, h);
    }
    void await_resume() const noexcept {}
};

TEST(EventQueueResume, MixedOneShotAndResumedPopOrderMatchesReference)
{
    // The production queue runs self-scheduling one-shot chains (as in
    // the event-queue identity test) interleaved with 64 coroutines
    // parked on resumeAt and 64 records re-posting themselves, each on
    // deterministic periods. A resume or a post must consume a sequence
    // number exactly like a fresh schedule() would, so the combined pop
    // order — ties included — must match a naive reference that models
    // every firing as an ordinary insert.
    constexpr std::uint32_t kTotalOneShot = 700'000;
    constexpr std::uint32_t kSeedEvents = 2048;
    constexpr std::uint32_t kRec = 64;
    constexpr std::uint32_t kFirings = 4000; // per recurring coroutine
    constexpr std::uint64_t kSeed = 0xabba5eed20260001ull;
    constexpr std::uint64_t kRecBase = 1ull << 32; // recurring id space
    constexpr std::uint64_t kPostBase = 1ull << 33; // posted id space

    /** A record that re-posts itself kFirings times. */
    struct Recurring : EventQueue::Event
    {
        EventQueue *q = nullptr;
        std::vector<std::uint64_t> *out = nullptr;
        std::uint32_t *done = nullptr;
        std::uint64_t id = 0;
        Tick period = 0;
        std::uint32_t left = kFirings;
    };

    std::vector<std::uint64_t> got;
    got.reserve(kTotalOneShot + 2 * kRec * kFirings);
    {
        EventQueue eq;
        std::uint32_t finished = 0;
        std::uint32_t scheduled = 0;
        std::uint64_t rng = kSeed;
        for (std::uint32_t i = 0; i < kRec; ++i) {
            std::uint64_t r = splitmix64(rng);
            spawn([](EventQueue &q, std::vector<std::uint64_t> &out,
                     std::uint32_t &done, std::uint64_t id, Tick first,
                     Tick period) -> CoTask<void> {
                co_await ResumeAt{q, first};
                for (std::uint32_t n = 1;; ++n) {
                    out.push_back(id);
                    if (n == kFirings)
                        break;
                    co_await ResumeAt{q, q.now() + period};
                }
                ++done;
            }(eq, got, finished, kRecBase + i,
              1 + static_cast<Tick>((r >> 16) % 97),
              1 + static_cast<Tick>(r % 13)));
        }
        std::vector<Recurring> posted(kRec);
        std::uint32_t postedDone = 0;
        for (std::uint32_t i = 0; i < kRec; ++i) {
            std::uint64_t r = splitmix64(rng);
            Recurring &p = posted[i];
            p.q = &eq;
            p.out = &got;
            p.done = &postedDone;
            p.id = kPostBase + i;
            p.period = 1 + static_cast<Tick>(r % 11);
            p.fire = [](EventQueue::Event &e) {
                auto &rec = static_cast<Recurring &>(e);
                rec.out->push_back(rec.id);
                if (--rec.left > 0)
                    rec.q->post(rec.q->now() + rec.period, rec);
                else
                    ++*rec.done;
            };
            eq.post(1 + static_cast<Tick>((r >> 16) % 89), p);
        }
        std::function<void(std::uint32_t)> body = [&](std::uint32_t id) {
            got.push_back(id);
            Successor s = successorsOf(id, kSeed);
            for (int c = 0; c < s.count && scheduled < kTotalOneShot; ++c) {
                std::uint32_t child = scheduled++;
                eq.schedule(eq.now() + s.delta + c, [&, child] {
                    body(child);
                });
            }
        };
        for (std::uint32_t i = 0; i < kSeedEvents; ++i) {
            std::uint32_t id = scheduled++;
            std::uint64_t r = splitmix64(rng);
            eq.schedule(r % 1024, [&, id] { body(id); });
        }
        eq.run();
        EXPECT_EQ(finished, kRec);
        EXPECT_EQ(postedDone, kRec);
        EXPECT_EQ(eq.executed(), got.size());
        // Every one-shot slot is back on the free list once the run
        // drains.
        EXPECT_EQ(eq.freeSlots(), eq.slabSlots());
    }

    // Reference: a std::set ordered by (when, seq, id) where EVERY
    // firing, resumed or called back, is a plain insert consuming seq.
    std::vector<std::uint64_t> want;
    want.reserve(got.size());
    {
        std::set<std::tuple<Tick, std::uint64_t, std::uint64_t>> pending;
        std::uint64_t seq = 0;
        Tick now = 0;
        auto schedule = [&](Tick when, std::uint64_t id) {
            pending.insert({when, seq++, id});
        };
        std::vector<Tick> period(2 * kRec);
        std::vector<std::uint32_t> remaining(2 * kRec, kFirings);
        std::uint32_t scheduled = 0;
        std::uint64_t rng = kSeed;
        for (std::uint32_t i = 0; i < kRec; ++i) {
            std::uint64_t r = splitmix64(rng);
            period[i] = 1 + static_cast<Tick>(r % 13);
            schedule(1 + static_cast<Tick>((r >> 16) % 97), kRecBase + i);
        }
        for (std::uint32_t i = 0; i < kRec; ++i) {
            std::uint64_t r = splitmix64(rng);
            period[kRec + i] = 1 + static_cast<Tick>(r % 11);
            schedule(1 + static_cast<Tick>((r >> 16) % 89), kPostBase + i);
        }
        for (std::uint32_t i = 0; i < kSeedEvents; ++i) {
            std::uint32_t id = scheduled++;
            std::uint64_t r = splitmix64(rng);
            schedule(r % 1024, id);
        }
        while (!pending.empty()) {
            auto [when, s, id] = *pending.begin();
            pending.erase(pending.begin());
            now = when;
            want.push_back(id);
            if (id >= kRecBase) {
                auto i = static_cast<std::uint32_t>(
                    id >= kPostBase ? kRec + (id - kPostBase)
                                    : id - kRecBase);
                if (--remaining[i] > 0)
                    schedule(now + period[i], id);
            } else {
                Successor su =
                    successorsOf(static_cast<std::uint32_t>(id), kSeed);
                for (int c = 0;
                     c < su.count && scheduled < kTotalOneShot; ++c) {
                    std::uint32_t child = scheduled++;
                    schedule(now + su.delta + c, child);
                }
            }
        }
    }

    ASSERT_EQ(got.size(), want.size());
    ASSERT_GE(got.size(), 2 * kRec * static_cast<std::size_t>(kFirings));
    for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(got[i], want[i]) << "pop order diverges at event " << i;
}

// ---------------------------------------------------------------------
// MMIO transaction table: many outstanding requests
// ---------------------------------------------------------------------

AccelImage
echoImage()
{
    AccelImage img;
    img.name = "echo";
    img.resources = FabricResources{60, 90, 0, 0};
    img.fmaxMHz = 200;
    img.regLayout.kinds = {RegKind::FpgaFifo, RegKind::CpuFifo};
    img.start = [](FpgaContext &ctx) {
        spawn([](FpgaContext c) -> CoTask<void> {
            while (true) {
                std::uint64_t v = co_await c.regs.pop(0);
                c.regs.push(1, v);
            }
        }(ctx));
    };
    return img;
}

TEST(MmioTable, FloodOfOutstandingTransactionsResolvesEveryOne)
{
    // Issue 64 MMIO writes eagerly (ops issue in their constructor)
    // before awaiting any of them: the pending-transaction table must
    // grow past its initial capacity and backward-shift deletions must
    // keep every probe chain intact as completions retire entries.
    SystemConfig cfg;
    cfg.numCores = 1;
    cfg.numMemHubs = 0;
    cfg.ctrl.timeoutCycles = 0;
    System sys(cfg);
    ASSERT_TRUE(sys.installAccel(echoImage()));
    std::uint64_t sum = 0;
    sys.core(0).start([&](Core &c) -> CoTask<void> {
        std::deque<Core::MmioWriteOp> writes;
        for (std::uint64_t i = 1; i <= 64; ++i)
            writes.emplace_back(c, sys.regAddr(0), i, nullptr);
        for (auto &w : writes)
            co_await w;
        for (unsigned i = 0; i < 64; ++i)
            sum += co_await c.mmioRead(sys.regAddr(1));
    });
    sys.run();
    EXPECT_EQ(sum, 64u * 65u / 2); // every write echoed exactly once
}

// ---------------------------------------------------------------------
// Whole-workload timing identity
// ---------------------------------------------------------------------

TEST(WorkloadIdentity, RepeatRunsAreTickIdentical)
{
    // The ClockDelay-heavy workloads (PDES heap loops, dijkstra
    // relaxation, barnes-hut force evaluation) must produce identical
    // sim_ticks on every run — the second run warm-starts a reset
    // System, whose accelerator frames were parked on resume nodes.
    for (const char *name : {"pdes", "dijkstra", "barnes_hut"}) {
        AppResult a = runApp(name, SystemMode::Duet);
        AppResult b = runApp(name, SystemMode::Duet);
        EXPECT_TRUE(a.correct) << name;
        EXPECT_EQ(a.runtime, b.runtime) << name;
    }
    // CPU-only PDES spins through the MCS lock and barrier, whose
    // spin loops wait out each poll on the same resume path.
    AppResult c = runApp("pdes", SystemMode::CpuOnly, {.cores = 4});
    AppResult d = runApp("pdes", SystemMode::CpuOnly, {.cores = 4});
    EXPECT_TRUE(c.correct);
    EXPECT_EQ(c.runtime, d.runtime);
}

} // namespace
} // namespace duet
