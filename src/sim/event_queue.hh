/**
 * @file
 * The global discrete-event queue driving the simulation.
 *
 * Events are arbitrary callbacks scheduled at absolute ticks. Events
 * scheduled for the same tick execute in insertion order, which makes every
 * simulation bit-for-bit deterministic.
 *
 * Layout: pending events are 24-byte Node records (when, seq, slot); the
 * callbacks themselves sit in a chunked side slab indexed by slot and
 * recycled through a LIFO free-list. Nodes live in two tiers:
 *
 *  - the *front*, a sorted ring of at most kFrontSlots nodes holding the
 *    earliest pending events. A new node carries the largest seq, so it
 *    sorts after every node of its tick and almost always lands at the
 *    back: insert and pop are a compare and a store, with none of a
 *    heap's data-dependent branches;
 *  - the *heap tier*, a 4-ary heap holding everything later. It sees
 *    traffic only past kFrontSlots pending events (a front overflow, or
 *    a node that does not precede the heap's minimum), so a deep queue
 *    still costs O(log n) per event instead of the front's O(depth).
 *
 * Every front node precedes every heap node in (when, seq) order, so the
 * next event is the front's head, or the heap's top when the front is
 * empty. The pop order is the strict total order on (when, seq),
 * identical to the seed's single sorted vector. Chunk storage is
 * pointer-stable, so a due callback is invoked in place (no per-event
 * move) even if it schedules further events; and, because Event stores
 * its capture inline, steady-state scheduling touches malloc only when
 * the slab itself grows.
 */

#ifndef DUET_SIM_EVENT_QUEUE_HH
#define DUET_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/check.hh"
#include "sim/inline_function.hh"
#include "sim/types.hh"

namespace duet
{

/**
 * A deterministic discrete-event queue.
 *
 * One EventQueue instance drives one Simulation. Components capture a
 * reference and schedule callbacks at absolute ticks.
 */
class EventQueue
{
  public:
    /**
     * A scheduled callback as a value type, for call sites that build an
     * event before picking its tick. The inline budget covers the
     * simulator's largest hot capture (a private-cache miss continuation
     * carrying a CacheReq); bigger captures still work, they just
     * heap-allocate. Internally the slab stores one-shot slots
     * (OneShotFunction) so dispatch costs a single indirect call; an
     * Event passed by value is wrapped on its way in.
     */
    using Event = InlineFunction<void(), 168>;
    /// Historical name, kept for call sites that predate Event.
    using Callback = Event;
    /// The slab slot type: run-and-destroy fused into one trampoline.
    using Slot = OneShotFunction<168>;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedule @p cb to run at absolute tick @p when.
     * @pre when >= now()
     */
    void schedule(Tick when, Event cb);

    /**
     * Schedule a raw callable at absolute tick @p when, type-erasing it
     * directly into its slab slot — the hot-path overload, skipping the
     * intermediate Event move the by-value overload pays.
     * @pre when >= now()
     */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::remove_cvref_t<F>, Event> &&
                  std::is_invocable_r_v<void, std::remove_cvref_t<F> &>>>
    void
    schedule(Tick when, F &&fn)
    {
        const std::uint32_t slot = acquireSlot(when);
        slotRef(slot).emplace(std::forward<F>(fn));
        commit(when, slot);
    }

    /** Schedule @p cb to run @p delta ticks from now. */
    template <typename F>
    void
    scheduleAfter(Tick delta, F &&fn)
    {
        schedule(now_ + delta, std::forward<F>(fn));
    }

    // ------------------------------------------------------------------
    // Re-armable events: a repeating callback (a pipeline cadence firing
    // every simulated cycle) binds its capture into a slab slot ONCE and
    // then re-arms the same slot with a new due tick per firing. Dispatch
    // runs the capture without destroying it and never returns the slot
    // to the free-list, so the steady state is one queue insert per
    // firing — no destroy+free+acquire+emplace round trip. Each arm
    // consumes a (when, seq) key from the same counter as schedule(), so
    // pop order and executed-event counts stay bit-identical to the
    // equivalent schedule-per-firing pattern.
    // ------------------------------------------------------------------

    /**
     * Claim a slab slot for a re-armable event and build @p fn in it.
     * The slot is idle (not queued) until armRearmable(); the owner
     * must eventually releaseRearmable() it.
     * @return the slot handle to pass to armRearmable/releaseRearmable
     */
    template <typename F>
    std::uint32_t
    bindRearmable(F &&fn)
    {
        const std::uint32_t slot = acquireSlot(now_);
        DUET_ASSERT(slot < kRearmFlag, "event slab exhausted the slot space");
        slotRef(slot).emplace(std::forward<F>(fn));
        return slot;
    }

    /**
     * Queue the bound slot @p slot, due at @p when. The slot
     * must not already be armed (one pending firing at a time — the
     * cadence contract).
     * @pre when >= now()
     */
    void
    armRearmable(std::uint32_t slot, Tick when)
    {
        DUET_ASSERT(when >= now_,
                    "re-armable event armed in the past (tick " +
                        std::to_string(when) + " < now " +
                        std::to_string(now_) + ")");
        commit(when, slot | kRearmFlag);
    }

    /**
     * Destroy the bound capture and return the slot to the free-list.
     * Only legal when the slot is not armed — or when the queue is about
     * to be reset()/destroyed and will never dispatch again (the
     * teardown path for coroutine frames reclaimed after the run; a
     * stale queued node is skipped by reset()).
     */
    void
    releaseRearmable(std::uint32_t slot)
    {
        slotRef(slot).reset();
        free_.push_back(slot);
    }

    /**
     * Run events until the queue drains or @p limit is reached.
     * @return true if the queue drained, false if the limit stopped us.
     */
    bool run(Tick limit = kMaxTick);

    /** Number of pending events. */
    std::size_t pending() const { return frontSize_ + heap_.size(); }

    /** True when no events are pending. */
    bool empty() const { return frontSize_ == 0 && heap_.empty(); }

    /** Total number of events executed so far. */
    std::uint64_t executed() const { return executed_; }

    /// @{ Slab introspection for tests: total slots ever created, and
    /// how many are currently parked on the free-list.
    std::size_t slabSlots() const { return slots_; }
    std::size_t freeSlots() const { return free_.size(); }
    /// @}

    /**
     * Drop every pending event and rewind time to tick zero, keeping the
     * slab chunks and free-list warm (scenario warm-start). Pending
     * callbacks are destroyed without running.
     */
    void
    reset()
    {
        for (std::uint32_t i = 0; i < frontSize_; ++i)
            dropPending(front_[(frontHead_ + i) & kFrontMask]);
        for (const Node &n : heap_)
            dropPending(n);
        frontHead_ = 0;
        frontSize_ = 0;
        heap_.clear();
        now_ = 0;
        seq_ = 0;
        executed_ = 0;
    }

  private:
    /// High bit of Node::slot: the slot is re-armable — dispatch runs
    /// the capture without destroying it and leaves the slot bound.
    static constexpr std::uint32_t kRearmFlag = 0x80000000u;

    /** Pending-event record: the full (when, seq) ordering key plus the
     *  slab slot holding the callback. Kept POD-small so the front's
     *  shifts and the heap's sifts are cheap. */
    struct Node
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    static bool
    earlier(const Node &a, const Node &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    /// Front geometry: a power-of-two ring, so head/back indices wrap
    /// with a mask. 32 holds the deepest queue of every benchmark row
    /// (27 pending, sort/fpsoc), so the heap tier stays idle there.
    static constexpr std::uint32_t kFrontSlots = 32;
    static constexpr std::uint32_t kFrontMask = kFrontSlots - 1;

    /** The front's last (latest) node. @pre frontSize_ != 0 */
    Node &
    frontBack()
    {
        return front_[(frontHead_ + frontSize_ - 1) & kFrontMask];
    }

    /**
     * Insert @p n into the sorted front. @p n carries the newest seq, so
     * it sorts after every node of its tick: scan from the back, where it
     * almost always stays. A full front hands its latest node (possibly
     * @p n itself) to the heap tier, whose minimum it then becomes.
     */
    void
    frontInsert(const Node &n)
    {
        if (frontSize_ == kFrontSlots) {
            Node &last = frontBack();
            if (n.when >= last.when) {
                heapPush(n);
                return;
            }
            heapPush(last);
            --frontSize_;
        }
        std::uint32_t i = frontHead_ + frontSize_;
        while (i != frontHead_ && n.when < front_[(i - 1) & kFrontMask].when) {
            front_[i & kFrontMask] = front_[(i - 1) & kFrontMask];
            --i;
        }
        front_[i & kFrontMask] = n;
        ++frontSize_;
    }

    /** Append @p n to the heap tier and sift it up. */
    void
    heapPush(const Node &n)
    {
        std::size_t i = heap_.size();
        heap_.push_back(n);
        while (i != 0) {
            const std::size_t p = (i - 1) >> 2;
            if (!earlier(n, heap_[p]))
                break;
            heap_[i] = heap_[p];
            i = p;
        }
        heap_[i] = n;
    }

    /** Place @p n at index @p i and sink it to its heap position. */
    void
    siftDown(std::size_t i, Node n)
    {
        const std::size_t sz = heap_.size();
        while (true) {
            const std::size_t c0 = 4 * i + 1;
            if (c0 >= sz)
                break;
            std::size_t best = c0;
            const std::size_t end = std::min(c0 + 4, sz);
            for (std::size_t c = c0 + 1; c < end; ++c)
                if (earlier(heap_[c], heap_[best]))
                    best = c;
            if (!earlier(heap_[best], n))
                break;
            heap_[i] = heap_[best];
            i = best;
        }
        heap_[i] = n;
    }

    /// Slab chunk geometry: 4096 events per chunk.
    static constexpr std::uint32_t kChunkShift = 12;
    static constexpr std::uint32_t kChunkSlots = 1u << kChunkShift;

    Slot &
    slotRef(std::uint32_t slot)
    {
        return chunks_[slot >> kChunkShift][slot & (kChunkSlots - 1)];
    }

    /** Claim an (empty) slab slot for an event due at @p when. */
    std::uint32_t
    acquireSlot(Tick when)
    {
        DUET_ASSERT(when >= now_,
                    "event scheduled in the past (tick " +
                        std::to_string(when) + " < now " +
                        std::to_string(now_) + ")");
        std::uint32_t slot;
        if (!free_.empty()) {
            slot = free_.back();
            free_.pop_back();
        } else {
            if (slots_ == chunks_.size() << kChunkShift)
                chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
            slot = slots_++;
        }
        return slot;
    }

    /**
     * Publish the filled slot @p slot under the next (when, seq) key. A
     * node that does not precede the heap tier's minimum goes straight
     * to the heap; every other node joins the front. (The new seq is the
     * largest, so "precedes" reduces to an earlier tick.)
     */
    void
    commit(Tick when, std::uint32_t slot)
    {
        const Node n{when, seq_++, slot};
        if (!heap_.empty() && when >= heap_.front().when)
            heapPush(n);
        else
            frontInsert(n);
        DUET_DCHECK(frontSize_ == 0 || heap_.empty() ||
                        earlier(frontBack(), heap_.front()),
                    "event queue front overlaps its heap tier");
    }

    /** reset()'s per-node teardown of a pending event. */
    void
    dropPending(const Node &n)
    {
        // Re-armable slots are owned by their binder (a Cadence in a
        // coroutine frame), which releases them itself — by the reset
        // contract those frames were drained first, so the slot is
        // already back on the free-list. Only one-shot slots are
        // reclaimed here.
        if (n.slot & kRearmFlag)
            return;
        slotRef(n.slot).reset(); // destroy without running
        free_.push_back(n.slot);
    }

    /** run()'s slow path when a trace sink or profiler is installed:
     *  emit the dispatch records and time the callback. Out of line so
     *  the disabled hot loop stays branch-plus-call-free. */
    void dispatchObserved(std::uint32_t slot);

    /// The front: the earliest pending nodes, sorted, as a ring of
    /// frontSize_ nodes starting at frontHead_.
    std::array<Node, kFrontSlots> front_{};
    std::uint32_t frontHead_ = 0;
    std::uint32_t frontSize_ = 0;
    // The heap tier: a 4-ary implicit heap in a plain vector, half the
    // depth of a binary heap, and the four children of a node share a
    // cache line pair, so sifts touch fewer lines. (when, seq) keys are
    // unique, so the pop sequence is a strict total order and
    // independent of tier sizes, heap arity and intermediate layout:
    // bit-identical to the seed implementation.
    std::vector<Node> heap_;
    /// Callback storage, indexed by Node::slot. Chunked so slots never
    /// move: run() can invoke an event in place while the callback
    /// grows the slab.
    std::vector<std::unique_ptr<Slot[]>> chunks_;
    /// Slots handed out so far (all chunks before slots_ are constructed).
    std::uint32_t slots_ = 0;
    /// LIFO recycler of vacated slab slots.
    std::vector<std::uint32_t> free_;
    Tick now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t executed_ = 0;
};

} // namespace duet

#endif // DUET_SIM_EVENT_QUEUE_HH
