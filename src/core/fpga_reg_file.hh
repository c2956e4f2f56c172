/**
 * @file
 * The eFPGA-side half of the Soft Register Interface.
 *
 * Lives in the slow clock domain. Holds the soft registers the accelerator
 * actually interacts with: FPGA-bound FIFO payloads land here after the
 * CDC; CPU-bound pushes and plain syncs leave from here. Accelerators may
 * also install a custom read handler on a Normal register (e.g. the
 * CPU/eFPGA barrier of Sec. II-F, where the eFPGA acknowledges a read
 * when it reaches the barrier).
 *
 * When the Control Hub runs in FPSoC mode every register is downgraded to
 * Normal: all accesses are forwarded here and served at the slow clock,
 * including the FIFO semantics.
 */

#ifndef DUET_CORE_FPGA_REG_FILE_HH
#define DUET_CORE_FPGA_REG_FILE_HH

#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "core/ctrl_msg.hh"
#include "fpga/async_fifo.hh"
#include "sim/task.hh"

namespace duet
{

/** Per-accelerator register layout, fixed at eFPGA programming time. */
struct RegLayout
{
    std::vector<RegKind> kinds;
    unsigned fifoDepth = 16;

    static RegLayout
    uniform(unsigned n, RegKind k, unsigned depth = 16)
    {
        RegLayout l;
        l.kinds.assign(n, k);
        l.fifoDepth = depth;
        return l;
    }
};

/** The slow-domain register file + accelerator-facing port. */
class FpgaRegFile
{
  public:
    /**
     * The one-shot answer to a forwarded Normal-register read. Calling
     * it sends the NormalReadData reply at once; a handler that finishes
     * later (the Sec. II-F barrier) moves it into whatever completes the
     * read. Move-only: a second call, or a call on a moved-from reply,
     * traps. A reply dropped uncalled leaves the read to the Control
     * Hub's timeout (the unresponsive-accelerator model).
     */
    class ReadReply
    {
      public:
        // The move constructor leaves the source empty, and (being
        // user-declared) leaves the type without copies or assignment.
        ReadReply(ReadReply &&other) noexcept
            : rf_(std::exchange(other.rf_, nullptr)), txn_(other.txn_)
        {}

        /** Reply to the read with @p v. */
        void operator()(std::uint64_t v);

      private:
        friend class FpgaRegFile;
        ReadReply(FpgaRegFile *rf, std::uint32_t txn) : rf_(rf), txn_(txn) {}

        FpgaRegFile *rf_; ///< null once called or moved from
        std::uint32_t txn_;
    };

    /** Custom read handler: answer through the reply, now or later. */
    using ReadHandler = std::function<void(ReadReply)>;

    /**
     * A blocking pop from an FPGA-bound FIFO register, resolving to the
     * dequeued value. An intrusive awaitable like the memory ops: it
     * lives in the awaiting frame, and a pop that finds the FIFO empty
     * parks in the register by address until data arrives (or a reset
     * drops it).
     */
    class [[nodiscard]] PopOp : public PendingValue<std::uint64_t>
    {
      public:
        PopOp(FpgaRegFile &rf, unsigned reg);
    };

    FpgaRegFile(ClockDomain &fpga_clk, std::string name,
                const RegLayout &layout);

    /** Wire the FPGA->CPU control FIFO. */
    void bindOut(AsyncFifo<CtrlMsg> *out) { out_ = out; }

    /** Drain of the CPU->FPGA control FIFO. */
    void receive(CtrlMsg &&msg);

    const RegLayout &layout() const { return layout_; }

    // --------------------------------------------------------------
    // Accelerator-side API (slow clock domain).
    // --------------------------------------------------------------

    /** Pop one entry from an FPGA-bound FIFO register (blocking). */
    PopOp pop(unsigned reg) { return PopOp(*this, reg); }

    /** True if an FPGA-bound FIFO register has data (peek, no cycle). */
    bool hasData(unsigned reg) const { return !regs_[reg].fifo.empty(); }

    /** Push a value into a CPU-bound FIFO register. */
    void push(unsigned reg, std::uint64_t v);

    /** Push @p n dataless tokens into a token FIFO register. */
    void pushTokens(unsigned reg, std::uint64_t n = 1);

    /** Read the eFPGA-local copy of a plain shadowed register. */
    std::uint64_t readPlain(unsigned reg) const { return regs_[reg].value; }

    /** Write a plain shadowed register and actively sync it back. */
    void writePlain(unsigned reg, std::uint64_t v);

    /** Install a custom read handler on a Normal register. */
    void
    setReadHandler(unsigned reg, ReadHandler rd)
    {
        regs_[reg].readHandler = std::move(rd);
    }

    /** Reset all register state (accelerator reset). */
    void reset();

    /** Shadowed (Duet) vs downgraded-to-normal (FPSoC) operation. */
    void setShadowed(bool s) { shadowed_ = s; }
    bool shadowed() const { return shadowed_; }

    Counter msgsIn, msgsOut;

  private:
    struct Reg
    {
        RegKind kind = RegKind::Normal;
        std::uint64_t value = 0;
        std::deque<std::uint64_t> fifo; ///< FPGA-bound data / CpuFifo data
        std::uint64_t tokens = 0;
        std::deque<PopOp *> poppers;           ///< parked pops
        std::deque<std::uint32_t> parkedReads; ///< NormalRead txns waiting
        ReadHandler readHandler;
    };

    void send(CtrlMsg msg);
    void serveNormalRead(Reg &r, std::uint32_t txn);
    void serveNormalWrite(Reg &r, std::uint64_t val, std::uint32_t txn);

    ClockDomain &clk_;
    std::string name_;
    RegLayout layout_;
    std::vector<Reg> regs_;
    AsyncFifo<CtrlMsg> *out_ = nullptr;
    std::deque<CtrlMsg> outQ_;
    bool outPumping_ = false;
    bool shadowed_ = true;
    void pumpOut();
};

} // namespace duet

#endif // DUET_CORE_FPGA_REG_FILE_HH
