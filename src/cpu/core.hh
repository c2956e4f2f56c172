/**
 * @file
 * The in-order core model (Ariane stand-in).
 *
 * Workloads are C++20 coroutines that co_await memory operations and
 * explicit compute delays. Loads and stores are blocking (in-order,
 * single-issue core); stores write through the L1 into the private L2;
 * MMIOs are strictly ordered (one outstanding per core) and travel the NoC
 * to a Control Hub. Instruction-level work is modeled by compute(), whose
 * cycle counts per benchmark are documented in workload/cost_model.hh.
 */

#ifndef DUET_CPU_CORE_HH
#define DUET_CPU_CORE_HH

#include <coroutine>
#include <cstdint>
#include <functional>
#include <string>

#include "cache/l1_cache.hh"
#include "cache/private_cache.hh"
#include "noc/mesh.hh"
#include "sim/flat_table.hh"
#include "sim/stats.hh"
#include "sim/task.hh"

namespace duet
{

/** An in-order, single-issue core with a private L1D and L2. */
class Core
{
  public:
    /**
     * @param clk        the fast clock domain
     * @param name       stats name
     * @param tile       tile index (NoC coordinates)
     * @param l2         the tile's private L2
     * @param mesh       the NoC, for MMIO traffic
     * @param mmio_route maps an MMIO address to the owning Control Hub
     */
    /** Maps an MMIO address to the owning Control Hub endpoint. */
    using MmioRoute = InlineFunction<NodeId(Addr), 16>;

    Core(ClockDomain &clk, std::string name, unsigned tile,
         PrivateCache &l2, Mesh &mesh, MmioRoute mmio_route);

    /** Begin executing @p main at tick 0 (first clock edge). */
    void start(std::function<CoTask<void>(Core &)> main);

    /** True once the started workload ran to completion. */
    bool finished() const { return finished_; }
    /** Tick at which the workload completed. */
    Tick finishTick() const { return finishTick_; }

    // ------------------------------------------------------------------
    // Workload API (co_await these from a workload coroutine).
    //
    // Each operation is an intrusive awaitable: the constructor issues
    // the access eagerly, and the pending state (value, waiter, flag)
    // lives inside the op object itself. The factory methods return by
    // prvalue, so guaranteed copy elision constructs the op directly in
    // the caller's co_await temporary — inside the coroutine frame —
    // giving the completion callback a stable `this` and making the
    // common case zero-allocation (no shared state, no refcount). Each
    // op must be awaited exactly once, before its frame dies; the
    // in-order core model awaits immediately, which satisfies both.
    // ------------------------------------------------------------------

    /**
     * A blocking load of up to 8 bytes; resolves to the value read.
     *
     * A miss completes through PendingValue like every other op. An L1
     * hit takes no callback: the constructor records the core, the due
     * tick, the address and the size, await_suspend() queues the
     * waiting frame itself (EventQueue::resumeAt, as ClockDelay does),
     * and await_resume() reads functional memory when that resume
     * fires, so a store made earlier in the same tick is visible.
     *
     * Contract: co_await the op at once. The resume node takes its
     * (when, seq) key in await_suspend(), and that key equals the one a
     * callback scheduled in the constructor would get only because
     * nothing schedules an event in between. Every Core::load caller
     * awaits immediately.
     */
    class [[nodiscard]] LoadOp : public PendingValue<std::uint64_t>
    {
      public:
        LoadOp(Core &c, Addr a, unsigned size, LatencyTrace *trace);

        bool
        await_ready() const noexcept
        {
            return !hitCore_ && PendingValue::await_ready();
        }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            if (!hitCore_) {
                PendingValue::await_suspend(h);
                return;
            }
            simAssert(!queued_, "pending op awaited twice");
            queued_ = true;
            hitCore_->clk_.eventQueue().resumeAt(due_, h);
        }

        std::uint64_t
        await_resume()
        {
            if (!hitCore_)
                return PendingValue::await_resume();
            DUET_DCHECK(hitCore_->clk_.eventQueue().now() >= due_,
                        "L1-hit load resumed before its due tick");
            return hitCore_->l2_.memoryRef().read(addr_, size_);
        }

      private:
        /// The core whose L1 hit, or null on a miss.
        Core *hitCore_ = nullptr;
        /// A hit's resume tick: edgeAfterCycles(hitLatency) at issue.
        Tick due_ = 0;
        Addr addr_ = 0;
        unsigned size_ = 0;
        /// A hit's resume is queued (the op was awaited).
        bool queued_ = false;
    };

    /**
     * A spin-wait: poll the 8-byte word at an address once per cycle
     * until (value != 0) equals the wanted sense; resolves to the last
     * value read. It replaces the loop
     *
     *     while (((v = co_await c.load(a)) != 0) != nonzero)
     *         co_await ClockDelay(c.clock(), 1);
     *
     * event for event: each poll is issued as LoadOp issues a load (the
     * same stats, L1 lookup and hit latency; a miss goes to the L2 and
     * fills the L1), and a failed check waits one cycle before the next
     * poll. The op itself is the queued record (EventQueue::post): an
     * L1-hit poll fires onHit(), which reads functional memory, and the
     * one-cycle wait fires onDelay(), which issues the next poll. The
     * awaiting frame resumes only once the check passes, inline in the
     * event that read the value.
     *
     * Contract: co_await the op at once, as with LoadOp; the first poll
     * issues in await_suspend().
     */
    class [[nodiscard]] SpinOp : EventQueue::Event
    {
      public:
        SpinOp(Core &c, Addr a, bool nonzero)
            : core_(c), addr_(a), nonzero_(nonzero)
        {}
        SpinOp(const SpinOp &) = delete;
        SpinOp &operator=(const SpinOp &) = delete;

        bool await_ready() const noexcept { return false; }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            simAssert(!waiter_, "pending op awaited twice");
            waiter_ = h;
            poll();
        }

        std::uint64_t await_resume() const noexcept { return value_; }

      private:
        /** Issue one poll: an L1 hit posts onHit() at the hit latency;
         *  a miss requests the line from the L2. */
        void poll();
        /** Resume the waiter if @p v passes the check, else post the
         *  one-cycle wait. */
        void check(std::uint64_t v);
        static void onHit(EventQueue::Event &e);
        static void onDelay(EventQueue::Event &e);

        Core &core_;
        Addr addr_;
        bool nonzero_;
        std::uint64_t value_ = 0;
        std::coroutine_handle<> waiter_;
    };

    /** A blocking store (write-through L1); completion only. */
    class [[nodiscard]] StoreOp : public PendingVoid
    {
      public:
        StoreOp(Core &c, Addr a, std::uint64_t v, unsigned size,
                LatencyTrace *trace);
    };

    /** An atomic RMW at the directory; resolves to the old value. */
    class [[nodiscard]] AtomicOp : public PendingValue<std::uint64_t>
    {
      public:
        AtomicOp(Core &c, AmoOp op, Addr a, std::uint64_t operand,
                 std::uint64_t operand2, unsigned size);
    };

    /** A strictly-ordered MMIO read; resolves to the value read. */
    class [[nodiscard]] MmioReadOp : public PendingValue<std::uint64_t>
    {
      public:
        MmioReadOp(Core &c, Addr a, LatencyTrace *trace);
    };

    /**
     * A strictly-ordered MMIO write; completes when the hub's ack
     * returns. The ack carries a value nobody wants, so await_resume()
     * shadows the base to discard it — the value-to-void adaptation is
     * a name lookup, not a helper coroutine.
     */
    class [[nodiscard]] MmioWriteOp : public PendingValue<std::uint64_t>
    {
      public:
        MmioWriteOp(Core &c, Addr a, std::uint64_t v, LatencyTrace *trace);

        void await_resume() const noexcept {}
    };

    /** Load @p size bytes; blocking. */
    LoadOp
    load(Addr a, unsigned size = 8, LatencyTrace *trace = nullptr)
    {
        return LoadOp(*this, a, size, trace);
    }

    /** Store @p size bytes; blocking (write-through L1). */
    StoreOp
    store(Addr a, std::uint64_t v, unsigned size = 8,
          LatencyTrace *trace = nullptr)
    {
        return StoreOp(*this, a, v, size, trace);
    }

    /** Atomic RMW at the directory; returns the old value. */
    AtomicOp
    amo(AmoOp op, Addr a, std::uint64_t operand, std::uint64_t operand2 = 0,
        unsigned size = 8)
    {
        return AtomicOp(*this, op, a, operand, operand2, size);
    }

    /** Spin on the word at @p a until it is nonzero (@p nonzero) or
     *  zero (!@p nonzero); returns the last value read. */
    SpinOp
    spinUntil(Addr a, bool nonzero)
    {
        return SpinOp(*this, a, nonzero);
    }

    /** Model @p cycles of pipeline work (ALU/FPU/branches). */
    ClockDelay compute(Cycles cycles) { return ClockDelay(clk_, cycles); }

    /** Strictly-ordered MMIO read (blocks the pipeline). */
    MmioReadOp
    mmioRead(Addr a, LatencyTrace *trace = nullptr)
    {
        return MmioReadOp(*this, a, trace);
    }

    /** Strictly-ordered MMIO write (blocks until acknowledged). */
    MmioWriteOp
    mmioWrite(Addr a, std::uint64_t v, LatencyTrace *trace = nullptr)
    {
        return MmioWriteOp(*this, a, v, trace);
    }

    // ------------------------------------------------------------------

    /** Deliver an MMIO response from the NoC (wired by the system). */
    void receive(const Message &msg);

    /**
     * Fallback latency-attribution sink (`--latency-breakdown`): memory
     * and MMIO ops whose callers pass no LatencyTrace attribute into
     * this one instead, so the system can total Fig. 9-style
     * noc/fast/slow/cdc tick counts without touching every workload.
     * Attribution only — never affects timing.
     */
    void setDefaultTrace(LatencyTrace *t) { defaultTrace_ = t; }

    /** Register a software interrupt handler (e.g. the TLB-miss handler).
     *  The handler runs as a new coroutine on this core. */
    void
    setInterruptHandler(std::function<CoTask<void>(Core &, std::uint64_t)> h)
    {
        irqHandler_ = std::move(h);
    }

    /** Raise an interrupt with a cause word (e.g. the faulting VPN). */
    void raiseInterrupt(std::uint64_t cause);

    ClockDomain &clock() const { return clk_; }
    unsigned tile() const { return tile_; }
    L1Cache &l1() { return l1_; }
    PrivateCache &l2() { return l2_; }
    const std::string &name() const { return name_; }

    Counter loads, stores, amos, mmios, l1Hits, irqs;

    void registerStats(StatRegistry &reg) const;

  private:
    ClockDomain &clk_;
    std::string name_;
    unsigned tile_;
    L1Cache l1_;
    PrivateCache &l2_;
    Mesh &mesh_;
    MmioRoute mmioRoute_;
    std::function<CoTask<void>(Core &, std::uint64_t)> irqHandler_;
    /// In-flight MMIO ops by txn id (ids start at 1; 0 marks a free
    /// slot). MMIOs are strictly ordered, so this holds a handful.
    FlatTable<std::uint32_t, PendingValue<std::uint64_t> *, 0> pendingMmio_;
    std::uint32_t nextTxn_ = 1;
    bool finished_ = false;
    Tick finishTick_ = 0;
    LatencyTrace *defaultTrace_ = nullptr;
};

} // namespace duet

#endif // DUET_CPU_CORE_HH
