#include "sim/event_queue.hh"

#include <algorithm>
#include <chrono>
#include <string>

#include "sim/check.hh"
#include "sim/trace.hh"

namespace duet
{

void
EventQueue::schedule(Tick when, Event cb)
{
    DUET_DCHECK(cb != nullptr, "null event callback scheduled");
    const std::uint32_t slot = acquireSlot(when);
    // Cold path: a pre-built Event moves into the one-shot slot behind a
    // small forwarding capture (hot call sites use the template overload,
    // which emplaces the raw lambda directly).
    slotRef(slot).emplace([cb = std::move(cb)] { cb(); });
    commit(when, slot);
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
        // Invoke in place: chunk storage is pointer-stable, so the
        // callback may schedule new events (growing the slab) without
        // invalidating its own captures, and its slot only joins the
        // free-list after it returns. runDestroy() fuses the call and
        // the capture teardown into one indirect call. Observability
        // costs exactly this one predicted branch when disabled.
        if (obs::g_active != 0) [[unlikely]] {
            dispatchObserved(n.slot);
        } else if (n.slot & kRearmFlag) {
            // Re-armable slot: run the capture in place and keep it
            // bound — the callback re-arms (or its owner releases) the
            // slot; it never joins the free-list here.
            slotRef(n.slot & ~kRearmFlag).run();
        } else {
            slotRef(n.slot).runDestroy();
            free_.push_back(n.slot);
        }
    }
    return true;
}

void
EventQueue::dispatchObserved(std::uint32_t slot)
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
    const bool rearm = (slot & kRearmFlag) != 0;
    Slot &s = slotRef(slot & ~kRearmFlag);
    if (Profiler *p = obs::prof()) {
        p->beginEvent();
        const auto t0 = std::chrono::steady_clock::now();
        if (rearm)
            s.run();
        else
            s.runDestroy();
        const auto t1 = std::chrono::steady_clock::now();
        p->endEvent(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()));
    } else if (rearm) {
        s.run();
    } else {
        s.runDestroy();
    }
    if (!rearm)
        free_.push_back(slot);
}

} // namespace duet
