/**
 * @file
 * The Duet Memory Hub (paper Sec. II-B).
 *
 * A Memory Hub transduces between the eFPGA's simple memory interface
 * (FpgaMemReq/FpgaMemResp over async FIFOs) and the Proxy Cache. It
 * contains, all in hardware: an exception handler (parity checks on eFPGA
 * outputs; deactivation on error), feature switches (active / forward
 * invalidations / TLB enable / atomics enable, all MMIO-configurable), and
 * a TLB for untrusted fine-grained accelerators.
 *
 * The Proxy Cache itself is a PrivateCache instance: Dolly "implements the
 * Proxy Cache by adding a coherent memory interface to the unmodified
 * P-Mesh L2 cache" (Sec. IV), and so do we. The hub stores each line's VPN
 * in the cache line's metadata so invalidations can be reverse-translated
 * into the virtually-tagged soft cache (Sec. II-D); forwarded invalidations
 * are never acknowledged by the eFPGA (Sec. II-C).
 */

#ifndef DUET_CORE_MEMORY_HUB_HH
#define DUET_CORE_MEMORY_HUB_HH

#include <deque>
#include <functional>
#include <string>

#include "cache/private_cache.hh"
#include "core/tlb.hh"
#include "fpga/async_fifo.hh"
#include "fpga/mem_if.hh"
#include "sim/stats.hh"

namespace duet
{

/** Memory Hub configuration. */
struct MemoryHubParams
{
    bool tlbEnabled = false;    ///< translate accelerator addresses
    unsigned tlbEntries = 16;
    bool forwardInvs = false;   ///< a soft cache is attached
    bool atomicsEnabled = false;
    unsigned reqFifoDepth = 8;
    unsigned respFifoDepth = 32;
    /** Synchronizer stages of the req FIFO (0 when the hub/proxy runs in
     *  the same clock domain as the eFPGA — the FPSoC baseline). */
    unsigned reqSyncStages = 2;
    unsigned respSyncStages = 2;
    Cycles hubLatency = 1; ///< hub-side processing cycles per request
};

/** Error codes latched by the hub's exception handler. */
enum class HubError : std::uint8_t
{
    None = 0,
    Parity = 1,       ///< corrupted eFPGA output detected
    Deactivated = 2,  ///< request arrived while deactivated
    TlbKilled = 3,    ///< kernel killed the accelerator on a bad access
};

/** One Memory Hub instance. */
class MemoryHub
{
  public:
    /**
     * @param hub_clk  the clock the hub+proxy logic runs in (the fast
     *                 domain for Duet; the eFPGA domain in FPSoC mode)
     * @param fpga_clk the eFPGA clock (reader side of the resp FIFO)
     * @param proxy    the Proxy Cache (a PrivateCache on this tile)
     */
    MemoryHub(ClockDomain &hub_clk, ClockDomain &fpga_clk, std::string name,
              const MemoryHubParams &params, PrivateCache &proxy);

    /** The eFPGA-side request FIFO (soft cache binds to this). */
    AsyncFifo<FpgaMemReq> &reqFifo() { return reqFifo_; }
    /** The eFPGA-side response FIFO (drain = SoftCache::receive). */
    AsyncFifo<FpgaMemResp> &respFifo() { return respFifo_; }

    // ---------------- feature switches (MMIO-driven) ----------------
    void setActive(bool a) { active_ = a; }
    bool active() const { return active_; }
    void setForwardInvs(bool f) { params_.forwardInvs = f; }
    void setTlbEnabled(bool t) { params_.tlbEnabled = t; }
    void setAtomicsEnabled(bool a) { params_.atomicsEnabled = a; }

    // ---------------- TLB management (kernel path) ------------------
    /** Install a translation; retries any requests parked on the fault. */
    void tlbInsert(Addr vpn, Addr ppn);
    /** Kill requests parked on @p vpn (invalid access; error latched). */
    void tlbKill(Addr vpn);
    /** Handler invoked on a TLB miss (system wires this to a core IRQ). */
    void setFaultHandler(std::function<void(Addr vpn)> h)
    {
        faultHandler_ = std::move(h);
    }
    Tlb &tlb() { return tlb_; }

    // ---------------- exception handler -----------------------------
    HubError errorCode() const { return error_; }
    /** Invoked when the exception handler latches an error (the adapter
     *  uses this to deactivate all hubs in the same adapter). */
    void setErrorHook(std::function<void(HubError)> h)
    {
        errorHook_ = std::move(h);
    }
    void
    clearError()
    {
        error_ = HubError::None;
        active_ = true;
    }

    const std::string &name() const { return name_; }
    PrivateCache &proxy() { return proxy_; }

    Counter reqsAccepted, reqsDropped, invsForwarded, tlbFaults, parityErrors;

    void registerStats(StatRegistry &reg) const;

  private:
    /** Drain side of the request FIFO: runs in the hub clock domain. */
    void handleReq(FpgaMemReq &&req);

    /** Translate and issue to the Proxy Cache. */
    void issue(const FpgaMemReq &req, Addr pa);

    /** Queue a response towards the eFPGA (in-order, backpressured). */
    void pushResp(FpgaMemResp resp);
    void pumpResp();

    void latchError(HubError e);

    ClockDomain &hubClk_;
    std::string name_;
    MemoryHubParams params_;
    PrivateCache &proxy_;
    AsyncFifo<FpgaMemReq> reqFifo_;
    AsyncFifo<FpgaMemResp> respFifo_;
    Tlb tlb_;
    std::function<void(Addr)> faultHandler_;
    std::deque<FpgaMemReq> faulted_; ///< parked on TLB misses
    std::deque<FpgaMemResp> respQ_;  ///< waiting for resp FIFO space
    bool respPumping_ = false;
    bool active_ = true;
    HubError error_ = HubError::None;
    std::function<void(HubError)> errorHook_;
};

} // namespace duet

#endif // DUET_CORE_MEMORY_HUB_HH
