/**
 * @file
 * The Duet Control Hub (paper Sec. II-E/II-F).
 *
 * Two submodules:
 *  - FPGA Manager: programming engine (bitstream load + integrity check),
 *    programmable clock generator, exception handler (timeouts on blocking
 *    register accesses), feature switches.
 *  - Soft Register Interface with Shadow Registers residing in the fast
 *    clock domain: plain, FPGA-bound FIFO, CPU-bound FIFO and token FIFO
 *    registers ack/respond without entering the eFPGA; normal registers
 *    forward across the CDC and block younger accesses (strict I/O
 *    ordering, Fig. 6c). When deactivated (e.g. after a timeout), the
 *    interface returns bogus data so the system is never halted.
 *
 * FPSoC mode (shadowEnabled = false) downgrades every register to Normal,
 * reproducing the paper's FPSoC baseline.
 */

#ifndef DUET_CORE_CONTROL_HUB_HH
#define DUET_CORE_CONTROL_HUB_HH

#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "core/ctrl_msg.hh"
#include "core/fpga_reg_file.hh"
#include "core/memory_hub.hh"
#include "fpga/async_fifo.hh"
#include "fpga/fabric.hh"
#include "noc/mesh.hh"
#include "sim/stats.hh"

namespace duet
{

/** Control Hub configuration. */
struct ControlHubParams
{
    bool shadowEnabled = true;     ///< false = FPSoC baseline
    Cycles timeoutCycles = 500000; ///< blocking-access timeout (fast cycles)
    unsigned ctrlFifoDepth = 16;
    unsigned syncStages = 2;
    unsigned progBytesPerCycle = 4; ///< programming engine throughput
};

/** MMIO offsets inside an adapter's control window. */
namespace ctrl_reg
{
constexpr Addr kHubActive = 0x00;  ///< bitmask: memory hub activation
constexpr Addr kClockMhz = 0x08;   ///< eFPGA clock frequency
constexpr Addr kTimeout = 0x10;    ///< timeout limit (fast cycles)
constexpr Addr kReset = 0x18;      ///< write: reset the soft accelerator
constexpr Addr kErrCode = 0x20;    ///< read: error; write 0: clear
constexpr Addr kTlbSelect = 0x28;  ///< memory-hub index for TLB ops
constexpr Addr kTlbVpn = 0x30;     ///< latch the VPN
constexpr Addr kTlbPpn = 0x38;     ///< write commits (vpn -> ppn)
constexpr Addr kTlbKill = 0x40;    ///< write vpn: kill faulting accesses
constexpr Addr kFwdInvs = 0x48;    ///< bitmask: forward invalidations
constexpr Addr kTlbEnable = 0x50;  ///< bitmask: hub TLB enable
constexpr Addr kAtomics = 0x58;    ///< bitmask: hub atomics enable
constexpr Addr kStatus = 0x60;     ///< fabric state (read-only)
constexpr Addr kRegBase = 0x100;   ///< soft registers start here
} // namespace ctrl_reg

/** Bogus value returned by a deactivated Soft Register Interface. */
constexpr std::uint64_t kBogusData = 0xBAD0BAD0BAD0BAD0ull;

/** The Control Hub: one per Duet Adapter, on the adapter's C-tile. */
class ControlHub
{
  public:
    ControlHub(ClockDomain &fast_clk, ClockDomain &fpga_clk,
               std::string name, const ControlHubParams &params,
               Fabric &fabric, Mesh &mesh, NodeId self, Addr mmio_base);

    /** Wire the adapter's memory hubs (feature-switch targets). */
    void setMemoryHubs(std::vector<MemoryHub *> hubs)
    {
        hubs_ = std::move(hubs);
    }

    /** Attach the (slow-domain) register file after programming. */
    void attachRegFile(FpgaRegFile *rf);

    /** NoC input: MMIO reads/writes from cores. */
    void receive(const Message &msg);

    /** The CPU->FPGA control FIFO (drained by the FpgaRegFile). */
    AsyncFifo<CtrlMsg> &toFpga() { return toFpga_; }
    /** The FPGA->CPU control FIFO (drained by this hub). */
    AsyncFifo<CtrlMsg> &fromFpga() { return fromFpga_; }

    /**
     * FPGA Manager: program the fabric. Deactivates nothing by itself —
     * the Adapter deactivates hubs first (feature-switch discipline).
     * @param image    the bitstream
     * @param on_done  called with success/failure after the load delay
     */
    void program(Bitstream image, std::function<void(bool)> on_done);

    /** Programmable clock generator. */
    void setFpgaClockMHz(std::uint64_t mhz);

    HubError errorCode() const { return error_; }
    bool deactivated() const { return deactivated_; }
    const std::string &name() const { return name_; }
    const ControlHubParams &params() const { return params_; }

    Counter mmioReads, mmioWrites, timeouts, bogusResponses, programs;

    void registerStats(StatRegistry &reg) const;

  private:
    struct MmioOp
    {
        bool isRead = false;
        Addr offset = 0;
        std::uint64_t wdata = 0;
        std::uint32_t txnId = 0;
        NodeId src;
        LatencyTrace *trace = nullptr;
        Tick arrival = 0;
    };

    /** Fast-domain shadow state for one soft register. */
    struct Shadow
    {
        RegKind kind = RegKind::Normal;
        std::uint64_t value = 0;          ///< plain shadow copy
        unsigned credits = 0;             ///< FPGA-bound entries in flight
        std::deque<std::uint64_t> data;   ///< CPU-bound shadow queue
        std::uint64_t tokens = 0;
        std::deque<MmioOp> parked;        ///< blocked CPU-bound readers
    };

    void respond(const MmioOp &op, std::uint64_t value);
    void pump();
    /** @return true if the head op finished (pop and continue). */
    bool processHead(MmioOp &op);
    bool handleCtrlSpace(MmioOp &op);
    void handleFromFpga(CtrlMsg &&msg);
    void armTimeout(std::uint64_t token);
    void latchTimeout();

    ClockDomain &fastClk_;
    ClockDomain &fpgaClk_;
    std::string name_;
    ControlHubParams params_;
    Fabric &fabric_;
    Mesh &mesh_;
    NodeId self_;
    Addr mmioBase_;
    std::vector<MemoryHub *> hubs_;
    FpgaRegFile *regFile_ = nullptr;

    AsyncFifo<CtrlMsg> toFpga_;
    AsyncFifo<CtrlMsg> fromFpga_;

    std::deque<MmioOp> queue_;
    bool pumping_ = false;
    std::vector<Shadow> shadows_;

    // Blocking-access state (normal register round trips).
    bool headBlocked_ = false;
    std::uint32_t blockedTxn_ = 0;
    std::uint64_t blockToken_ = 0; ///< increments on every block/unblock

    bool deactivated_ = false;
    HubError error_ = HubError::None;
    std::uint64_t tlbVpnLatch_ = 0;
    std::uint64_t tlbSelect_ = 0;
    std::uint32_t nextFwdTxn_ = 1;
};

} // namespace duet

#endif // DUET_CORE_CONTROL_HUB_HH
