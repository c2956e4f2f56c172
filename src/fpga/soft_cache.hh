/**
 * @file
 * The eFPGA-emulated soft cache (paper Sec. II-C).
 *
 * Built from fabric BRAM, clocked by the slow eFPGA clock, tightly
 * integrated into the accelerator datapath. Per the Duet protocol it is
 * write-through (with an optional write buffer), receives invalidations
 * from the Proxy Cache and *never acknowledges them* — the Proxy Cache has
 * already responded to the coherence protocol. It can be configured
 * write-allocate or write-no-allocate.
 *
 * Setting SoftCacheParams::enabled = false degenerates into a pass-through
 * port (the "hard-only" organization of Fig. 4): every access crosses the
 * CDC into the Memory Hub.
 */

#ifndef DUET_FPGA_SOFT_CACHE_HH
#define DUET_FPGA_SOFT_CACHE_HH

#include <deque>
#include <unordered_map>
#include <vector>

#include "cache/cache_array.hh"
#include "fpga/async_fifo.hh"
#include "fpga/mem_if.hh"
#include "mem/functional_mem.hh"
#include "sim/task.hh"

namespace duet
{

/** Soft-cache geometry and behavior knobs (accelerator-designer chosen). */
struct SoftCacheParams
{
    bool enabled = true;
    unsigned sizeBytes = 2048;
    unsigned ways = 2;
    Cycles hitLatency = 1;          ///< in eFPGA cycles
    unsigned writeBufferEntries = 4;
    unsigned mshrs = 4;
    bool writeAllocate = false;
};

/** A line in the soft cache: virtually indexed/tagged, PA remembered. */
struct SoftLine
{
    Addr addr = 0; ///< line-aligned virtual address
    bool valid = false;
    Addr paddr = 0; ///< line-aligned physical address (from the fill)
};

/**
 * The soft cache / FPGA-side memory port. The accelerator issues loads,
 * stores and (if the Proxy Cache's feature switch allows) atomics; the
 * cache talks to the Memory Hub through a pair of async FIFOs.
 */
class SoftCache
{
  public:
    SoftCache(ClockDomain &fpga_clk, std::string name,
              const SoftCacheParams &params, FunctionalMemory &mem);

    /** Wire the outbound request FIFO (towards the Memory Hub). */
    void bindOut(AsyncFifo<FpgaMemReq> *out) { out_ = out; }

    /** Inbound drain: responses/invalidations from the Memory Hub. */
    void receive(FpgaMemResp &&resp);

    // --------------------------------------------------------------
    // Accelerator-side operations (co_await from accelerator tasks).
    //
    // Intrusive awaitables, mirroring Core's op classes: the pending
    // state lives in the op object itself, constructed directly in the
    // awaiting frame by guaranteed copy elision (or emplaced into a
    // pipelining deque for multi-outstanding engines — std::deque
    // never relocates elements, so `this` stays stable there too).
    // Each op must be awaited exactly once and completes before the
    // owning frame dies.
    // --------------------------------------------------------------

    /** A load; resolves to the value read. */
    class [[nodiscard]] LoadOp : public PendingValue<std::uint64_t>
    {
      public:
        LoadOp(SoftCache &sc, Addr a, unsigned size = 8,
               LatencyTrace *trace = nullptr);
    };

    /** A write-through store; completes when buffered (posted). The ack
     *  value is meaningless, so await_resume() discards it. */
    class [[nodiscard]] StoreOp : public PendingValue<std::uint64_t>
    {
      public:
        StoreOp(SoftCache &sc, Addr a, std::uint64_t v, unsigned size = 8,
                LatencyTrace *trace = nullptr);

        void await_resume() const noexcept {}
    };

    /** An atomic through the hub; resolves to the old value. */
    class [[nodiscard]] AtomicOp : public PendingValue<std::uint64_t>
    {
      public:
        AtomicOp(SoftCache &sc, AmoOp op, Addr a, std::uint64_t operand,
                 std::uint64_t operand2 = 0, unsigned size = 8);
    };

    /** A write fence; completes once every buffered store has been
     *  acknowledged by the Memory Hub (i.e. is globally visible).
     *  Pre-resolved when nothing is buffered. */
    class [[nodiscard]] DrainOp : public PendingVoid
    {
      public:
        explicit DrainOp(SoftCache &sc);
    };

    /** Load @p size bytes at (virtual) address @p a. */
    LoadOp
    load(Addr a, unsigned size = 8, LatencyTrace *trace = nullptr)
    {
        return LoadOp(*this, a, size, trace);
    }

    /** Write-through store; completes when buffered. */
    StoreOp
    store(Addr a, std::uint64_t v, unsigned size = 8,
          LatencyTrace *trace = nullptr)
    {
        return StoreOp(*this, a, v, size, trace);
    }

    /** Atomic through the hub (requires the hub's atomic switch). */
    AtomicOp
    amo(AmoOp op, Addr a, std::uint64_t operand,
        std::uint64_t operand2 = 0, unsigned size = 8)
    {
        return AtomicOp(*this, op, a, operand, operand2, size);
    }

    /** Fence: completes once every buffered store has been acknowledged
     *  by the Memory Hub (i.e. is globally visible). */
    DrainOp drainWrites() { return DrainOp(*this); }

    /** Fallback latency-attribution sink (`--latency-breakdown`); ops
     *  carrying no LatencyTrace attribute into it instead. See
     *  Core::setDefaultTrace. */
    void setDefaultTrace(LatencyTrace *t) { defaultTrace_ = t; }

    /** Probe (tests): is the line resident? */
    bool resident(Addr va) const
    {
        return params_.enabled && array_.peek(lineAlign(va)) != nullptr;
    }

    const std::string &name() const { return name_; }

    Counter hits, misses, invsReceived, wbStores, fills;

  private:
    struct PendingOp
    {
        FpgaMemOp op;
        Addr addr;
        unsigned size;
        std::uint64_t wdata, wdata2;
        AmoOp amoOp;
        LatencyTrace *trace;
        /// The issuing op awaitable, parked in its coroutine frame (or
        /// a pipelining deque) until fulfilled — a plain pointer, no
        /// shared state.
        PendingValue<std::uint64_t> *done = nullptr;
    };

    struct Mshr
    {
        std::vector<PendingOp> waiters;
    };

    struct WbEntry
    {
        Addr addr;
        unsigned size;
        std::uint64_t data;
    };

    /** Start the issue pump if idle. */
    void schedulePump();
    void pump();

    /** Try to issue the op; returns false if resources are exhausted. */
    bool issue(PendingOp &op);

    std::uint64_t readWithForwarding(Addr pa, Addr va, unsigned size) const;

    ClockDomain &clk_;
    std::string name_;
    SoftCacheParams params_;
    FunctionalMemory &mem_;
    AsyncFifo<FpgaMemReq> *out_ = nullptr;

    CacheArray<SoftLine> array_;
    std::deque<PendingOp> queue_;
    std::unordered_map<Addr, Mshr> mshrs_;             ///< by VA line
    std::unordered_map<std::uint32_t, WbEntry> wb_;    ///< by request id
    std::unordered_map<std::uint32_t, PendingOp> pendingAmos_;
    std::vector<PendingVoid *> drainWaiters_;
    std::uint32_t nextId_ = 1;
    bool pumping_ = false;
    LatencyTrace *defaultTrace_ = nullptr;

    void checkDrained();
};

} // namespace duet

#endif // DUET_FPGA_SOFT_CACHE_HH
