/**
 * @file
 * Software synchronization primitives over simulated shared memory.
 *
 * These run on the simulated cores through the full cache-coherence
 * protocol — their contention behaviour (invalidation storms, directory
 * serialization on AMOs) is exactly what the PDES and BFS baselines in the
 * paper suffer from.
 */

#ifndef DUET_WORKLOAD_SYNC_HH
#define DUET_WORKLOAD_SYNC_HH

#include "cpu/core.hh"
#include "mem/addr.hh"

namespace duet
{

/**
 * MCS queue lock (Mellor-Crummey & Scott), the paper's PDES-baseline lock.
 * Memory layout: the lock word holds the tail qnode address (0 = free);
 * each thread's qnode is {next (8 B), locked (8 B)}.
 */
class McsLock
{
  public:
    explicit McsLock(Addr lock_word) : lock_(lock_word) {}

    /** Acquire with this thread's qnode at @p my_node. */
    CoTask<void>
    acquire(Core &c, Addr my_node) const
    {
        co_await c.store(my_node + 0, 0);     // next = null
        co_await c.store(my_node + 8, 1);     // locked = true
        std::uint64_t pred =
            co_await c.amo(AmoOp::Swap, lock_, my_node);
        if (pred == 0)
            co_return; // uncontended
        co_await c.store(pred + 0, my_node);  // pred->next = me
        // Spin locally on my qnode's locked flag (cached; release
        // invalidates it), polling once per cycle.
        co_await c.spinUntil(my_node + 8, false);
    }

    CoTask<void>
    release(Core &c, Addr my_node) const
    {
        std::uint64_t next = co_await c.load(my_node + 0);
        if (next == 0) {
            // Try to swing the tail back to free.
            std::uint64_t old =
                co_await c.amo(AmoOp::Cas, lock_, my_node, 0);
            if (old == my_node)
                co_return; // no successor
            // A successor is enqueueing; wait for its next-pointer store.
            next = co_await c.spinUntil(my_node + 0, true);
        }
        co_await c.store(next + 8, 0); // unlock successor
    }

  private:
    Addr lock_;
};

/**
 * Sense-reversing centralized barrier.
 * Memory layout at base: {count (8 B), sense (8 B)}; each thread keeps its
 * local sense in a register (coroutine variable).
 */
class SpinBarrier
{
  public:
    SpinBarrier(Addr base, unsigned threads)
        : base_(base), threads_(threads)
    {
    }

    /** One thread's arrival; @p local_sense flips each episode. */
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
        co_await c.spinUntil(base_ + 8, local_sense);
    }

  private:
    Addr base_;
    unsigned threads_;
};

} // namespace duet

#endif // DUET_WORKLOAD_SYNC_HH
