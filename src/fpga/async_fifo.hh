/**
 * @file
 * Dual-clock asynchronous FIFO with Gray-coded 2-stage synchronizers.
 *
 * Every message crossing between the processor clock domain and the eFPGA
 * clock domain pays this clock-domain-crossing (CDC) cost (paper Sec. II-A,
 * Fig. 5/6). Model: an item pushed at tick T becomes *visible* to the
 * reader at the @c syncStages -th reader clock edge strictly after T (the
 * write pointer settles through the synchronizer flops); the reader then
 * dequeues at most one item per reader cycle, in order.
 *
 * The wait inside the FIFO is attributed to LatencyTrace::Cat::Cdc when the
 * item carries a trace pointer.
 */

#ifndef DUET_FPGA_ASYNC_FIFO_HH
#define DUET_FPGA_ASYNC_FIFO_HH

#include <deque>
#include <string>
#include <utility>

#include "sim/clock.hh"
#include "sim/inline_function.hh"
#include "sim/latency_trace.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"

namespace duet
{

/** Concept-ish helper: does T expose a LatencyTrace *trace member? */
template <typename T>
concept HasTrace = requires(T t) { t.trace; };

/**
 * A bounded dual-clock FIFO. The producer calls push() from its own clock
 * domain; the consumer registers a drain callback that runs in the reader
 * clock domain, one item per reader cycle.
 */
template <typename T>
class AsyncFifo
{
  public:
    /**
     * @param name     stats/debug name
     * @param reader   the consumer's clock domain
     * @param capacity FIFO depth in entries
     * @param sync_stages synchronizer depth (2 in Dolly)
     */
    AsyncFifo(std::string name, ClockDomain &reader, unsigned capacity = 8,
              unsigned sync_stages = 2)
        : name_(std::move(name)), reader_(reader), capacity_(capacity),
          syncStages_(sync_stages)
    {
        simAssert(capacity_ > 0, "FIFO needs capacity");
    }

    using DrainFn = InlineFunction<void(T &&), 32>;

    /** The consumer side: invoked in the reader clock domain, in order. */
    void setDrain(DrainFn drain) { drain_ = std::move(drain); }

    /** Occupancy from the producer's point of view. */
    bool full() const { return occupancy_ >= capacity_; }
    unsigned occupancy() const { return occupancy_; }

    /**
     * Push an item. The caller must have checked full(); pushing into a
     * full FIFO is a modeling error (hardware would drop or corrupt).
     */
    void
    push(T item)
    {
        simAssert(!full(), name_ + ": push into full FIFO");
        ++occupancy_;
        pushes.inc();
        EventQueue &eq = reader_.eventQueue();
        const Tick push_tick = eq.now();

        // Visibility: syncStages reader edges strictly after the push.
        Tick visible = push_tick;
        for (unsigned i = 0; i < syncStages_; ++i)
            visible = reader_.edgeAfter(visible);
        // In-order dequeue, at most one per reader cycle.
        Tick deliver = hasDelivered_
                           ? std::max(visible, lastDeliver_ + reader_.period())
                           : visible;
        lastDeliver_ = deliver;
        hasDelivered_ = true;

        eq.schedule(deliver, [this, item = std::move(item),
                              push_tick]() mutable {
            obs::profClaim("cdc");
            if (TraceSink *ts = obs::trace()) {
                if (ts->enabled(TraceCat::Cdc)) {
                    ts->complete(TraceCat::Cdc, name_, "crossing",
                                 push_tick, reader_.eventQueue().now());
                }
            }
            --occupancy_;
            if constexpr (HasTrace<T>) {
                if (item.trace) {
                    item.trace->add(LatencyTrace::Cat::Cdc,
                                    reader_.eventQueue().now() - push_tick);
                }
            }
            simAssert(static_cast<bool>(drain_), name_ + ": no drain");
            drain_(std::move(item));
        });
    }

    const std::string &name() const { return name_; }

    Counter pushes;

  private:
    std::string name_;
    ClockDomain &reader_;
    unsigned capacity_;
    unsigned syncStages_;
    unsigned occupancy_ = 0;
    Tick lastDeliver_ = 0;
    bool hasDelivered_ = false;
    DrainFn drain_;
};

} // namespace duet

#endif // DUET_FPGA_ASYNC_FIFO_HH
