#include "sim/event_queue.hh"

#include <algorithm>
#include <chrono>

#include "sim/check.hh"
#include "sim/trace.hh"

namespace duet
{

inline void
EventQueue::dispatch(std::uint64_t ref)
{
    if ((ref & 3) == 0) {
        std::coroutine_handle<>::from_address(std::bit_cast<void *>(ref))
            .resume();
        return;
    }
    if ((ref & 1) == 0) {
        Event &e = *std::bit_cast<Event *>(ref & ~std::uint64_t{2});
        e.pending = false;
        e.fire(e);
        return;
    }
    // Invoke in place: chunk storage is pointer-stable, so the callback
    // may schedule new events (growing the slab) without invalidating
    // its own captures, and its slot only joins the free-list after it
    // returns. runDestroy() fuses the call and the capture teardown into
    // one indirect call.
    Slot *slot = slotOf(ref);
    slot->runDestroy();
    free_.push_back(slot);
}

bool
EventQueue::run(Tick limit)
{
    while (!empty()) {
        // Every front node precedes every heap node: the next event is
        // the front's head, or the heap's top once the front is empty.
        const bool fromFront = frontSize_ != 0;
        const Node n = fromFront ? front_[frontHead_] : heap_.front();
        if (n.when > limit) {
            now_ = limit;
            return false;
        }
        if (fromFront) {
            frontHead_ = (frontHead_ + 1) & kFrontMask;
            --frontSize_;
        } else {
            const Node last = heap_.back();
            heap_.pop_back();
            if (!heap_.empty())
                siftDown(0, last);
        }
        DUET_DCHECK(n.when >= now_,
                    "event queue lost time monotonicity");
        now_ = n.when;
        ++executed_;
        // Observability costs exactly this one predicted branch when
        // disabled.
        if (obs::g_active != 0) [[unlikely]]
            dispatchObserved(n.ref);
        else
            dispatch(n.ref);
    }
    return true;
}

void
EventQueue::dispatchObserved(std::uint64_t ref)
{
    if (TraceSink *ts = obs::trace()) {
        if (ts->enabled(TraceCat::Queue)) {
            ts->instant(TraceCat::Queue, "events", "dispatch", now_);
            // Sample the pending depth (both tiers) sparsely — one
            // counter record per 256 dispatches keeps the track readable
            // and the buffer sane.
            if ((executed_ & 0xffu) == 0) {
                ts->counter(TraceCat::Queue, "events", "pending", now_,
                            pending());
            }
        }
    }
    if (Profiler *p = obs::prof()) {
        p->beginEvent();
        // A resumed frame is simulated software waiting out its cycles
        // (ClockDelay): the single biggest event class, attributed to
        // "cpu" rather than left to fall into "other". A posted event's
        // fire function claims its own component.
        if ((ref & 3) == 0)
            p->claim("cpu");
        const auto t0 = std::chrono::steady_clock::now();
        dispatch(ref);
        const auto t1 = std::chrono::steady_clock::now();
        p->endEvent(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()));
    } else {
        dispatch(ref);
    }
}

} // namespace duet
