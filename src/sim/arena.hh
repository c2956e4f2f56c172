/**
 * @file
 * Size-bucketed frame arena for coroutine frames.
 *
 * Simulated software and accelerator threads spawn short-lived
 * coroutine subtask frames; with the default global allocator each of
 * those is a malloc/free round trip on the scenario hot path.
 * FrameArena recycles them instead:
 *
 *  - a System owns one FrameArena and makes it "current" for its
 *    lifetime (ArenaScope); promise operator new/delete on the coroutine
 *    types route through FrameArena::allocateRaw/deallocateRaw;
 *  - blocks are rounded to 32-byte buckets; freed blocks go on a
 *    per-bucket LIFO free list and are handed straight back on the next
 *    same-bucket allocation — after warm-up, a steady-state scenario
 *    allocates nothing;
 *  - fresh storage is carved from bump-pointer slab chunks, so even the
 *    warm-up path is one pointer bump, not a malloc;
 *  - every block carries a 16-byte header naming its owning arena, so a
 *    block allocated with no current arena (unit tests build bare
 *    CoTasks) silently takes the global-new path, and a block is
 *    always returned to the arena that carved it even if a different
 *    arena is current at free time.
 *
 * Lifetime safety: the arena's state lives in a heap-allocated control
 * block (Ctl) that is reference-held by its outstanding blocks. If a
 * FrameArena is destroyed while blocks are still live (a coroutine frame
 * that outlives its System), the Ctl is orphaned and self-deletes when
 * the last block comes home — never a use-after-free, at worst a
 * deferred release.
 *
 * Under --paranoid (and in sanitizer builds) each header carries a
 * live/free magic so double-frees trip a DUET_DCHECK instead of
 * corrupting a free list.
 *
 * Each arena also holds the DetachedPool of the spawn()ed frames started
 * while it was current, so a System reclaims only its own parked
 * simulated threads.
 */

#ifndef DUET_SIM_ARENA_HH
#define DUET_SIM_ARENA_HH

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/check.hh"

namespace duet
{

class ArenaScope;

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
     *  thread's own when no arena is current. */
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

class FrameArena
{
  public:
    /// Bucket granularity in bytes; also the minimum block payload.
    static constexpr std::size_t kGranularity = 32;
    /// Largest payload served from buckets; bigger goes to global new.
    static constexpr std::size_t kMaxBlockBytes = 2048;
    /// Slab chunk size carved into blocks by the bump pointer.
    static constexpr std::size_t kSlabBytes = 64 * 1024;

    /// Opaque control block (defined in arena.cc); public only so the
    /// implementation's block headers can name it.
    struct Ctl;

    FrameArena();
    ~FrameArena();

    FrameArena(const FrameArena &) = delete;
    FrameArena &operator=(const FrameArena &) = delete;

    /**
     * Allocate @p n payload bytes from the current arena (free list,
     * then slab bump), or from the global allocator when no arena is
     * current / @p n exceeds kMaxBlockBytes. Never returns null.
     */
    static void *allocateRaw(std::size_t n);

    /**
     * Return a block from allocateRaw. Dispatches on the block header:
     * global-new blocks are freed, arena blocks go back on their owning
     * arena's free list (even if that arena is no longer current).
     */
    static void deallocateRaw(void *p);

    /** The frames spawn()ed while this arena was current. */
    DetachedPool &detached();

    /// @{ Introspection for tests and debugging.
    std::size_t liveBlocks() const;
    std::size_t slabBytes() const;
    std::uint64_t freeListHits() const;
    std::uint64_t slabCarves() const;
    bool isCurrent() const;
    /// @}

  private:
    friend class ArenaScope;
    friend class DetachedPool;

    static thread_local Ctl *current_;

    Ctl *ctl_;
};

/**
 * RAII: make @p arena the thread's current frame arena, restoring the
 * previous one on destruction. System holds one so every frame created
 * during its lifetime pools in its arena.
 */
class ArenaScope
{
  public:
    // Out of line: every access to the thread_local current_ stays in
    // arena.cc. GCC 12's UBSan emits a bogus "store to null pointer"
    // report when this store is inlined into other TUs at -O3 (the TLS
    // address is never null — the program runs fine); scopes are
    // created once per System, so nothing hot is lost.
    explicit ArenaScope(FrameArena &arena);
    ~ArenaScope();

    ArenaScope(const ArenaScope &) = delete;
    ArenaScope &operator=(const ArenaScope &) = delete;

  private:
    FrameArena::Ctl *prev_;
};

} // namespace duet

#endif // DUET_SIM_ARENA_HH
