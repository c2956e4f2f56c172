/**
 * @file
 * Clock domains.
 *
 * Every timed component belongs to a clock domain. Duet has at least two:
 * the fast processor/NoC/adapter domain (1 GHz by default) and the slow
 * eFPGA domain (20-500 MHz, generated by the Control Hub's programmable
 * clock generator and changeable at run time).
 */

#ifndef DUET_SIM_CLOCK_HH
#define DUET_SIM_CLOCK_HH

#include <cstdint>
#include <string>

#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace duet
{

/**
 * A clock domain: a named, run-time-adjustable clock period.
 *
 * Rising edges occur at integer multiples of the period, offset by the
 * phase origin (the tick at which the current period took effect). When the
 * period changes, edges realign from the change point, modeling the
 * programmable clock generator restarting the PLL/divider.
 */
class ClockDomain
{
  public:
    /**
     * @param eq     the driving event queue
     * @param name   domain name for stats/debug
     * @param freq_mhz initial frequency in MHz
     */
    ClockDomain(EventQueue &eq, std::string name, std::uint64_t freq_mhz)
        : eq_(eq), name_(std::move(name)), period_(periodFromMHz(freq_mhz))
    {
        simAssert(period_ > 0, "clock period must be positive");
    }

    ClockDomain(const ClockDomain &) = delete;
    ClockDomain &operator=(const ClockDomain &) = delete;

    const std::string &name() const { return name_; }
    Tick period() const { return period_; }
    std::uint64_t frequencyMHz() const { return mhzFromPeriod(period_); }
    EventQueue &eventQueue() const { return eq_; }

    /**
     * Change the clock frequency. Takes effect immediately: the next edge
     * is one new period after "now" (the generator restarts its divider).
     */
    void
    setFrequencyMHz(std::uint64_t freq_mhz)
    {
        period_ = periodFromMHz(freq_mhz);
        origin_ = eq_.now();
        lastEdge_ = origin_;
        simAssert(period_ > 0, "clock period must be positive");
    }

    /**
     * The first rising edge at or after tick @p t.
     */
    Tick
    edgeAtOrAfter(Tick t) const
    {
        if (t <= origin_)
            return origin_;
        // Edge cache: callers overwhelmingly ask about "now", which
        // creeps forward a fraction of a period between calls, so the
        // answer is almost always the cached edge or the one after it —
        // skip the 64-bit division for those.
        if (t <= lastEdge_) {
            if (lastEdge_ - t < period_)
                return lastEdge_;
        } else if (t - lastEdge_ <= period_) {
            lastEdge_ += period_;
            return lastEdge_;
        }
        Tick delta = t - origin_;
        Tick cycles = (delta + period_ - 1) / period_;
        lastEdge_ = origin_ + cycles * period_;
        return lastEdge_;
    }

    /** The first rising edge strictly after tick @p t. */
    Tick
    edgeAfter(Tick t) const
    {
        return edgeAtOrAfter(t + 1);
    }

    /** The first rising edge at or after "now". */
    Tick nextEdge() const { return edgeAtOrAfter(eq_.now()); }

    /** Convert a cycle count in this domain to ticks at current frequency. */
    Tick cyclesToTicks(Cycles c) const { return c * period_; }

    /**
     * The tick of the first rising edge at-or-after now plus @p cycles
     * further whole cycles — the due tick scheduleAtEdge() uses, exposed
     * so ClockDelay (sim/task.hh), which queues a resume rather than a
     * callback, computes the identical tick.
     */
    Tick
    edgeAfterCycles(Cycles cycles) const
    {
        return edgeAtOrAfter(eq_.now()) + cycles * period_;
    }

    /**
     * Schedule @p cb at the first rising edge at-or-after now plus
     * @p cycles further whole cycles. Forwards the raw callable so the
     * event queue can build it in place in its slab.
     */
    template <typename F>
    void
    scheduleAtEdge(Cycles cycles, F &&cb) const
    {
        eq_.schedule(edgeAfterCycles(cycles), std::forward<F>(cb));
    }

  private:
    EventQueue &eq_;
    std::string name_;
    Tick period_;
    Tick origin_ = 0;
    /// Most recent edgeAtOrAfter() result (always a valid edge).
    mutable Tick lastEdge_ = 0;
};

} // namespace duet

#endif // DUET_SIM_CLOCK_HH
