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

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cache/l1_cache.hh"
#include "cache/private_cache.hh"
#include "noc/mesh.hh"
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

    /** A blocking load of up to 8 bytes; resolves to the value read. */
    class [[nodiscard]] LoadOp : public PendingValue<std::uint64_t>
    {
      public:
        LoadOp(Core &c, Addr a, unsigned size, LatencyTrace *trace);
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
    /**
     * Pending-MMIO table: txnId -> in-flight MMIO op. MMIOs are
     * strictly ordered (at most one outstanding per core, a handful
     * system-wide), so a tiny open-addressed table with linear probing
     * beats unordered_map's per-node allocations. Key 0 is the empty
     * sentinel (txn ids start at 1); take() backward-shifts the probe
     * chain closed, so there are no tombstones to accumulate.
     */
    class MmioTable
    {
      public:
        MmioTable() : slots_(kInitSlots) {}

        void
        insert(std::uint32_t id, PendingValue<std::uint64_t> *op)
        {
            if ((size_ + 1) * 2 > slots_.size())
                grow();
            const std::size_t mask = slots_.size() - 1;
            std::size_t i = id & mask;
            while (slots_[i].key != 0) {
                DUET_DCHECK(slots_[i].key != id, "duplicate MMIO txn id");
                i = (i + 1) & mask;
            }
            slots_[i] = Entry{id, op};
            ++size_;
        }

        /** Remove and return the op for @p id; nullptr if absent. */
        PendingValue<std::uint64_t> *
        take(std::uint32_t id)
        {
            const std::size_t mask = slots_.size() - 1;
            std::size_t i = id & mask;
            while (slots_[i].key != id) {
                if (slots_[i].key == 0)
                    return nullptr;
                i = (i + 1) & mask;
            }
            PendingValue<std::uint64_t> *op = slots_[i].op;
            // Close the probe chain by shifting later members back into
            // the hole whenever their home slot permits it.
            std::size_t hole = i;
            for (std::size_t j = (i + 1) & mask; slots_[j].key != 0;
                 j = (j + 1) & mask) {
                const std::size_t home = slots_[j].key & mask;
                if (((j - home) & mask) >= ((j - hole) & mask)) {
                    slots_[hole] = slots_[j];
                    hole = j;
                }
            }
            slots_[hole] = Entry{};
            --size_;
            return op;
        }

        std::size_t size() const { return size_; }

      private:
        /// Starting capacity; always a power of two.
        static constexpr std::size_t kInitSlots = 16;

        struct Entry
        {
            std::uint32_t key = 0;
            PendingValue<std::uint64_t> *op = nullptr;
        };

        void
        grow()
        {
            std::vector<Entry> old = std::move(slots_);
            slots_.assign(old.size() * 2, Entry{});
            size_ = 0;
            for (const Entry &e : old)
                if (e.key != 0)
                    insert(e.key, e.op);
        }

        std::vector<Entry> slots_;
        std::size_t size_ = 0;
    };

    ClockDomain &clk_;
    std::string name_;
    unsigned tile_;
    L1Cache l1_;
    PrivateCache &l2_;
    Mesh &mesh_;
    MmioRoute mmioRoute_;
    std::function<CoTask<void>(Core &, std::uint64_t)> irqHandler_;
    MmioTable pendingMmio_;
    std::uint32_t nextTxn_ = 1;
    bool finished_ = false;
    Tick finishTick_ = 0;
    LatencyTrace *defaultTrace_ = nullptr;
};

} // namespace duet

#endif // DUET_CPU_CORE_HH
