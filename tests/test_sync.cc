/**
 * @file
 * Tests for the software synchronization primitives over simulated shared
 * memory: MCS lock mutual exclusion and fairness, sense-reversing barrier,
 * and contention properties over the full coherence protocol.
 */

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "workload/apps.hh"
#include "workload/sync.hh"

namespace duet
{
namespace
{

SystemConfig
multi(unsigned cores)
{
    SystemConfig cfg;
    cfg.numCores = cores;
    cfg.mode = SystemMode::CpuOnly;
    return cfg;
}

constexpr Addr kLock = 0x8000;
constexpr Addr kQnodes = 0x9000;
constexpr Addr kShared = 0xA000;
constexpr Addr kBarrier = 0xB000;

TEST(McsLock, MutualExclusionUnderContention)
{
    const unsigned cores = 8;
    const unsigned iters = 20;
    System sys(multi(cores));
    for (unsigned tid = 0; tid < cores; ++tid) {
        sys.core(tid).start([tid](Core &c) -> CoTask<void> {
            McsLock lock(kLock);
            Addr qnode = kQnodes + 64ull * tid;
            for (unsigned i = 0; i < iters; ++i) {
                co_await lock.acquire(c, qnode);
                // Non-atomic read-modify-write: torn only if mutual
                // exclusion is broken.
                std::uint64_t v = co_await c.load(kShared);
                co_await c.compute(5);
                co_await c.store(kShared, v + 1);
                co_await lock.release(c, qnode);
            }
        });
    }
    sys.run();
    EXPECT_EQ(sys.memory().read(kShared, 8), cores * iters);
    EXPECT_EQ(sys.memory().read(kLock, 8), 0u); // lock free at the end
}

TEST(McsLock, UncontendedFastPath)
{
    System sys(multi(1));
    Tick elapsed = 0;
    sys.core(0).start([&](Core &c) -> CoTask<void> {
        McsLock lock(kLock);
        Tick t0 = c.clock().eventQueue().now();
        co_await lock.acquire(c, kQnodes);
        co_await lock.release(c, kQnodes);
        elapsed = c.clock().eventQueue().now() - t0;
    });
    sys.run();
    // Uncontended acquire+release: a handful of memory ops, well under
    // a microsecond.
    EXPECT_LT(elapsed, 1000 * kTicksPerNs);
}

TEST(Barrier, NoThreadEscapesEarly)
{
    const unsigned cores = 4;
    const unsigned episodes = 10;
    System sys(multi(cores));
    std::vector<unsigned> phase(cores, 0);
    for (unsigned tid = 0; tid < cores; ++tid) {
        sys.core(tid).start([&, tid](Core &c) -> CoTask<void> {
            SpinBarrier barrier(kBarrier, cores);
            bool sense = false;
            for (unsigned e = 0; e < episodes; ++e) {
                // Stagger arrival to stress the barrier.
                co_await c.compute(tid * 37 + e * 11);
                phase[tid] = e;
                co_await barrier.wait(c, sense);
                // After the barrier, every thread must be in episode e.
                for (unsigned o = 0; o < cores; ++o)
                    EXPECT_GE(phase[o], e) << "thread escaped early";
            }
        });
    }
    sys.run();
    for (unsigned tid = 0; tid < cores; ++tid)
        EXPECT_TRUE(sys.core(tid).finished());
}

TEST(McsLock, ContentionCostGrowsWithCores)
{
    auto run = [](unsigned cores) -> Tick {
        System sys(multi(cores));
        const unsigned total = 64; // fixed total work
        for (unsigned tid = 0; tid < cores; ++tid) {
            sys.core(tid).start([tid, cores](Core &c) -> CoTask<void> {
                McsLock lock(kLock);
                Addr qnode = kQnodes + 64ull * tid;
                for (unsigned i = 0; i < 64 / cores; ++i) {
                    co_await lock.acquire(c, qnode);
                    std::uint64_t v = co_await c.load(kShared);
                    co_await c.compute(50);
                    co_await c.store(kShared, v + 1);
                    co_await lock.release(c, qnode);
                }
            });
        }
        sys.run();
        EXPECT_EQ(sys.memory().read(kShared, 8), total);
        return sys.lastCoreFinish();
    };
    Tick t1 = run(1);
    Tick t8 = run(8);
    // Serialized critical sections plus lock handoff overhead: at equal
    // total work, 8 contending cores must be slower than 1.
    EXPECT_GT(t8, t1);
}

// ---------------------------------------------------------------------
// Core::spinUntil against the loops it replaced
// ---------------------------------------------------------------------

/** The spin loop McsLock and SpinBarrier ran before Core::spinUntil: a
 *  load per poll and a one-cycle ClockDelay after each failed check. A
 *  CoTask starts and returns by symmetric transfer, so wrapping the loop
 *  adds no event. */
CoTask<std::uint64_t>
loopSpinUntil(Core &c, Addr a, bool nonzero)
{
    std::uint64_t v = 0;
    while (((v = co_await c.load(a)) != 0) != nonzero)
        co_await ClockDelay(c.clock(), 1);
    co_return v;
}

/** McsLock as it was before Core::spinUntil: the reference. */
struct LoopMcsLock
{
    Addr lock_;

    CoTask<void>
    acquire(Core &c, Addr my_node) const
    {
        co_await c.store(my_node + 0, 0);
        co_await c.store(my_node + 8, 1);
        std::uint64_t pred = co_await c.amo(AmoOp::Swap, lock_, my_node);
        if (pred == 0)
            co_return;
        co_await c.store(pred + 0, my_node);
        while (co_await c.load(my_node + 8) != 0)
            co_await ClockDelay(c.clock(), 1);
    }

    CoTask<void>
    release(Core &c, Addr my_node) const
    {
        std::uint64_t next = co_await c.load(my_node + 0);
        if (next == 0) {
            std::uint64_t old =
                co_await c.amo(AmoOp::Cas, lock_, my_node, 0);
            if (old == my_node)
                co_return;
            while ((next = co_await c.load(my_node + 0)) == 0)
                co_await ClockDelay(c.clock(), 1);
        }
        co_await c.store(next + 8, 0);
    }
};

/** SpinBarrier as it was before Core::spinUntil: the reference. */
struct LoopSpinBarrier
{
    Addr base_;
    unsigned threads_;

    CoTask<void>
    wait(Core &c, bool &local_sense) const
    {
        local_sense = !local_sense;
        std::uint64_t arrived =
            co_await c.amo(AmoOp::Add, base_ + 0, 1) + 1;
        if (arrived == threads_) {
            co_await c.store(base_ + 0, 0);
            co_await c.store(base_ + 8, local_sense ? 1 : 0);
            co_return;
        }
        while ((co_await c.load(base_ + 8) != 0) != local_sense)
            co_await ClockDelay(c.clock(), 1);
    }
};

struct ViaSpinUntil
{
    using Lock = McsLock;
    using Barrier = SpinBarrier;

    static CoTask<std::uint64_t>
    until(Core &c, Addr a, bool nonzero)
    {
        co_return co_await c.spinUntil(a, nonzero);
    }
};

struct ViaLoop
{
    using Lock = LoopMcsLock;
    using Barrier = LoopSpinBarrier;

    static CoTask<std::uint64_t>
    until(Core &c, Addr a, bool nonzero)
    {
        return loopSpinUntil(c, a, nonzero);
    }
};

struct SpinRun
{
    std::uint64_t executed = 0;
    Tick now = 0;
    /// Per core: loads, l1Hits, L1 hits, L1 misses.
    std::vector<std::array<std::uint64_t, 4>> cores;
    std::uint64_t flagSeen = 0;
};

template <typename Via>
SpinRun
runSpinScenario()
{
    const unsigned cores = 4;
    const unsigned iters = 6;
    constexpr Addr kFlag = 0xC000;
    System sys(multi(cores));
    SpinRun out;
    for (unsigned tid = 0; tid < cores; ++tid) {
        sys.core(tid).start([&out, tid](Core &c) -> CoTask<void> {
            // Core 0 waits on a flag no core has read, so its first
            // poll misses the L1; core 1 raises it late.
            if (tid == 0)
                out.flagSeen = co_await Via::until(c, kFlag, true);
            if (tid == 1) {
                co_await c.compute(300);
                co_await c.store(kFlag, 7);
            }
            const typename Via::Lock lock{kLock};
            const typename Via::Barrier barrier{kBarrier, cores};
            const Addr qnode = kQnodes + 64ull * tid;
            bool sense = false;
            for (unsigned i = 0; i < iters; ++i) {
                co_await lock.acquire(c, qnode);
                const std::uint64_t v = co_await c.load(kShared);
                co_await c.compute(20 + tid);
                co_await c.store(kShared, v + 1);
                co_await lock.release(c, qnode);
                co_await barrier.wait(c, sense);
            }
        });
    }
    sys.run();
    EXPECT_EQ(sys.memory().read(kShared, 8), cores * iters);
    out.executed = sys.eventQueue().executed();
    out.now = sys.eventQueue().now();
    for (unsigned tid = 0; tid < cores; ++tid) {
        Core &c = sys.core(tid);
        EXPECT_TRUE(c.finished());
        out.cores.push_back({c.loads.value(), c.l1Hits.value(),
                             c.l1().hits.value(), c.l1().misses.value()});
    }
    return out;
}

TEST(SpinUntil, MatchesTheLoadAndDelayLoopEventForEvent)
{
    // McsLock and SpinBarrier through Core::spinUntil produce the same
    // events, ticks, and per-core and per-L1 poll counts as the loops
    // they replaced, under MCS handoffs, CAS-release races and barrier
    // episodes, and for a spin whose first poll misses the L1.
    const SpinRun spin = runSpinScenario<ViaSpinUntil>();
    const SpinRun loop = runSpinScenario<ViaLoop>();
    EXPECT_EQ(spin.flagSeen, 7u);
    EXPECT_EQ(loop.flagSeen, 7u);
    ASSERT_EQ(spin.cores.size(), 4u);
    EXPECT_GT(spin.cores[0][3], 0u); // core 0's L1 missed
    EXPECT_EQ(spin.executed, loop.executed);
    EXPECT_EQ(spin.now, loop.now);
    EXPECT_EQ(spin.cores, loop.cores);
}

} // namespace
} // namespace duet
