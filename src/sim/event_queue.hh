/**
 * @file
 * The global discrete-event queue driving the simulation.
 *
 * Events are arbitrary callbacks, coroutines to resume, or intrusive
 * event records, scheduled at absolute ticks. Events scheduled for the
 * same tick execute in insertion order, which makes every simulation
 * bit-for-bit deterministic.
 *
 * Layout: pending events are 24-byte Node records (when, seq, ref), and
 * the low two bits of @c ref say which of three kinds of node it is:
 *
 *  - bit 0 set: a slab callback (schedule()). The callback sits in a
 *    chunked side slab, recycled through a LIFO free-list, and the node
 *    points at its slot;
 *  - bit 1 set: a posted Event (post()), a record its owner keeps alive
 *    (a Core::SpinOp poll, a mesh flight); dispatch calls its fire
 *    function straight from the node;
 *  - both clear: a coroutine frame waiting out a delay (resumeAt():
 *    ClockDelay, an L1 hit's Core::LoadOp), resumed directly.
 *
 * Nodes live in two tiers:
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
 * move) even if it schedules further events; and, because a slot stores
 * its capture inline, steady-state scheduling touches malloc only when
 * the slab itself grows.
 */

#ifndef DUET_SIM_EVENT_QUEUE_HH
#define DUET_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <coroutine>
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
    /// The slab slot type: run-and-destroy fused into one trampoline. The
    /// inline budget covers the simulator's largest hot capture (a
    /// private-cache miss continuation carrying a CacheReq); bigger
    /// captures still work, they just heap-allocate.
    using Slot = OneShotFunction<168>;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedule @p fn to run at absolute tick @p when, type-erasing it
     * directly into its slab slot.
     * @pre when >= now()
     */
    template <typename F,
              typename = std::enable_if_t<
                  std::is_invocable_r_v<void, std::remove_cvref_t<F> &>>>
    void
    schedule(Tick when, F &&fn)
    {
        Slot *slot = acquireSlot(when);
        slot->emplace(std::forward<F>(fn));
        commit(when, std::bit_cast<std::uint64_t>(slot) | 1);
    }

    /** Schedule @p fn to run @p delta ticks from now. */
    template <typename F>
    void
    scheduleAfter(Tick delta, F &&fn)
    {
        schedule(now_ + delta, std::forward<F>(fn));
    }

    /**
     * An intrusive event: a record that its owner keeps alive while it
     * is pending, usually as the base of a larger record holding the
     * event's state. post() queues it without copying anything, and
     * dispatch calls @c fire on it straight from the queue node.
     */
    struct Event
    {
        void (*fire)(Event &) = nullptr;
        /// Set by post() and cleared just before @c fire runs, so @c fire
        /// may post the event again. reset() leaves it set on a dropped
        /// event, whose owner discards the record.
        bool pending = false;
    };

    /**
     * Queue @p e to fire at absolute tick @p when. The node takes the
     * next (when, seq) key exactly like schedule(), so pop order and
     * executed() counts match a callback that fires @p e, but no slab
     * slot is claimed. reset() drops a pending event without touching
     * it.
     * @pre when >= now(), @p e is 4-byte aligned and not pending
     */
    void
    post(Tick when, Event &e)
    {
        checkNotPast(when);
        const auto ref = std::bit_cast<std::uint64_t>(&e);
        DUET_DCHECK((ref & 3) == 0,
                    "a posted event must be 4-byte aligned");
        DUET_DCHECK(!e.pending, "event posted while already pending");
        e.pending = true;
        commit(when, ref | 2);
    }

    /**
     * Resume the suspended coroutine @p h at absolute tick @p when. The
     * node takes the next (when, seq) key exactly like schedule(), so
     * pop order and executed() counts match a callback that resumes
     * @p h, but no slab slot is claimed: dispatch resumes the frame
     * straight from the node. reset() drops a pending resume without
     * touching the frame, whose owner (a DetachedPool) reclaims it.
     * @pre when >= now()
     */
    void
    resumeAt(Tick when, std::coroutine_handle<> h)
    {
        checkNotPast(when);
        const auto frame = std::bit_cast<std::uint64_t>(h.address());
        DUET_DCHECK((frame & 3) == 0,
                    "coroutine frame at an unaligned address cannot be "
                    "queued");
        commit(when, frame);
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
     * callbacks are destroyed without running; a pending resume or
     * posted event is dropped without touching its frame or record.
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
    /** Pending-event record: the full (when, seq) ordering key plus what
     *  to dispatch. @c ref is a tagged pointer: a slab slot's address
     *  with bit 0 set (a Slot is max_align_t-aligned, so the bit is
     *  free), a posted Event's address with bit 1 set, or the 4-aligned
     *  address of a coroutine frame to resume. Each way dispatch reaches
     *  its target with no table lookup. Kept POD-small so the front's
     *  shifts and the heap's sifts are cheap. */
    struct Node
    {
        Tick when;
        std::uint64_t seq;
        std::uint64_t ref;
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

    /// Slab chunk geometry: 64 slots per chunk. make_unique zero-fills a
    /// whole chunk, and a benchmark run keeps a few dozen callbacks
    /// pending at most, so one small chunk is all most Systems carve.
    static constexpr std::uint32_t kChunkShift = 6;
    static constexpr std::uint32_t kChunkSlots = 1u << kChunkShift;
    static_assert(alignof(Slot) >= 2, "a slot pointer's bit 0 is its tag");

    /** The slot a slab-tagged @c ref points at. */
    static Slot *
    slotOf(std::uint64_t ref)
    {
        return std::bit_cast<Slot *>(ref & ~std::uint64_t{1});
    }

    /** Trap an event due before now(): time only moves forward. */
    void
    checkNotPast(Tick when) const
    {
        DUET_ASSERT(when >= now_, "event scheduled in the past (tick " +
                                      std::to_string(when) + " < now " +
                                      std::to_string(now_) + ")");
    }

    /** Claim an (empty) slab slot for an event due at @p when. */
    Slot *
    acquireSlot(Tick when)
    {
        checkNotPast(when);
        if (!free_.empty()) {
            Slot *slot = free_.back();
            free_.pop_back();
            return slot;
        }
        if (slots_ == chunks_.size() << kChunkShift)
            chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
        const std::uint32_t i = slots_++;
        return &chunks_[i >> kChunkShift][i & (kChunkSlots - 1)];
    }

    /**
     * Publish @p ref (a filled slot or a frame) under the next (when,
     * seq) key. A node that does not precede the heap tier's minimum
     * goes straight to the heap; every other node joins the front. (The
     * new seq is the largest, so "precedes" reduces to an earlier tick.)
     */
    void
    commit(Tick when, std::uint64_t ref)
    {
        const Node n{when, seq_++, ref};
        if (!heap_.empty() && when >= heap_.front().when)
            heapPush(n);
        else
            frontInsert(n);
        DUET_DCHECK(frontSize_ == 0 || heap_.empty() ||
                        earlier(frontBack(), heap_.front()),
                    "event queue front overlaps its heap tier");
    }

    /** reset()'s per-node teardown of a pending event: a slot's
     *  callback is destroyed without running; a frame or a posted event
     *  is left alone. */
    void
    dropPending(const Node &n)
    {
        if ((n.ref & 1) == 0)
            return;
        Slot *slot = slotOf(n.ref);
        slot->reset();
        free_.push_back(slot);
    }

    /** Run the event @p ref names: resume its frame, fire its posted
     *  event, or run its slot's callback in place and recycle the slot. */
    void dispatch(std::uint64_t ref);

    /** run()'s slow path when a trace sink or profiler is installed:
     *  emit the dispatch records and time the event. Out of line so the
     *  disabled hot loop stays branch-plus-call-free. */
    void dispatchObserved(std::uint64_t ref);

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
    /// Callback storage. Chunked so slots never move: a node may hold a
    /// slot's address, and run() can invoke an event in place while the
    /// callback grows the slab.
    std::vector<std::unique_ptr<Slot[]>> chunks_;
    /// Slots handed out so far (all chunks before slots_ are constructed).
    std::uint32_t slots_ = 0;
    /// LIFO recycler of vacated slab slots.
    std::vector<Slot *> free_;
    Tick now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t executed_ = 0;
};

} // namespace duet

#endif // DUET_SIM_EVENT_QUEUE_HH
