/**
 * @file
 * Per-System registries of detached coroutine frames.
 *
 * spawn() starts a simulated thread whose frame nobody owns, such as an
 * accelerator request loop that parks forever in a FIFO pop. Each System
 * holds a FrameArena, and the arena's DetachedPool records the frames
 * spawned while it was current, so a System's destructor and reset()
 * reclaim exactly the simulated threads it ran.
 *
 * The arenas alive on a thread form a chain in construction order, and
 * the newest one is current. An arena unlinks itself from wherever it
 * sits when it dies, so Systems may be destroyed in any order.
 *
 * Coroutine frames themselves come from the global allocator.
 */

#ifndef DUET_SIM_ARENA_HH
#define DUET_SIM_ARENA_HH

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace duet
{

/**
 * Registry of live detached (spawned) top-level coroutine frames. A
 * frame that runs to completion removes itself; drain() destroys the
 * leftovers — typically accelerator threads parked forever in a
 * while(true) FIFO loop. Without the drain every installAccel() would
 * leak its parked coroutine chain (each frame transitively owns its
 * subtask frames).
 */
class DetachedPool
{
  public:
    /** The pool spawn() registers with: the current arena's, or this
     *  thread's own when no arena is alive on it. */
    static DetachedPool &current();

    void add(std::coroutine_handle<> h) { live_.push_back(h); }

    void remove(std::coroutine_handle<> h) { std::erase(live_, h); }

    /** Destroy every still-suspended frame. Only safe once nothing will
     *  resume them again — i.e. after the simulation that spawned them
     *  has finished running its event queue. */
    void
    drain()
    {
        auto live = std::move(live_);
        live_.clear();
        for (auto h : live)
            h.destroy();
    }

  private:
    std::vector<std::coroutine_handle<>> live_;
};

/**
 * One System's DetachedPool and its place in the thread's chain of live
 * arenas. Construction makes it the current arena; destruction unlinks
 * it, and the newest arena still alive becomes current again. An arena
 * must die on the thread that built it.
 */
class FrameArena
{
  public:
    // Out of line: every access to the thread_local chain head stays in
    // arena.cc. GCC 12's UBSan emits a bogus "store to null pointer"
    // report when such a store is inlined into other TUs at -O3 (the TLS
    // address is never null); arenas are made once per System, so
    // nothing hot is lost.
    FrameArena();
    ~FrameArena();

    FrameArena(const FrameArena &) = delete;
    FrameArena &operator=(const FrameArena &) = delete;

    /** The frames spawn()ed while this arena was current. */
    DetachedPool &detached() { return detached_; }

    /** True when this is the newest arena alive on the calling thread,
     *  so spawn() registers with its pool. */
    bool isCurrent() const;

    /// @{ Slab statistics read by perfbench's layer counts. Frames come
    /// from the global allocator, so there is no slab and each reads 0.
    std::size_t slabBytes() const { return 0; }
    std::uint64_t freeListHits() const { return 0; }
    std::uint64_t slabCarves() const { return 0; }
    /// @}

  private:
    friend class DetachedPool;

    /// Newest live arena on this thread; null when none is alive.
    static thread_local FrameArena *newest_;

    FrameArena *older_;
    FrameArena *newer_ = nullptr;
    DetachedPool detached_;
};

} // namespace duet

#endif // DUET_SIM_ARENA_HH
