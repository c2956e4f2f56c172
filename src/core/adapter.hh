/**
 * @file
 * The Duet Adapter: one Control Hub + one or more Memory Hubs + the eFPGA
 * side (fabric, clock, register file, soft caches, scratchpad), composed
 * exactly as the paper's Fig. 3.
 *
 * The adapter also models the installation flow of a soft accelerator:
 * deactivate memory hubs -> program the fabric (bitstream load + integrity
 * check) -> set the eFPGA clock -> configure feature switches -> start the
 * accelerator logic.
 */

#ifndef DUET_CORE_ADAPTER_HH
#define DUET_CORE_ADAPTER_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/control_hub.hh"
#include "core/fpga_reg_file.hh"
#include "core/memory_hub.hh"
#include "fpga/fabric.hh"
#include "fpga/scratchpad.hh"
#include "fpga/soft_cache.hh"

namespace duet
{

class DuetAdapter;

/** Everything a soft accelerator's logic can reach inside the eFPGA. */
struct FpgaContext
{
    ClockDomain &clk;                 ///< the (slow) eFPGA clock
    FpgaRegFile &regs;                ///< soft register file
    std::vector<SoftCache *> mem;     ///< one port per Memory Hub
    Scratchpad &spad;                 ///< non-coherent BRAM memory
    DuetAdapter &adapter;             ///< for fault-injection tests
};

/** A synthesized soft-accelerator image (see DESIGN.md substitutions:
 *  resources/Fmax imported from the paper's CAD results). */
struct AccelImage
{
    std::string name;
    FabricResources resources;
    std::uint64_t fmaxMHz = 100;
    RegLayout regLayout = RegLayout::uniform(4, RegKind::Plain);
    /** Soft-cache configuration per memory hub used (pass-through if
     *  enabled=false). Missing entries default to pass-through. */
    std::vector<SoftCacheParams> softCaches;
    bool useTlb = false;
    bool atomics = false;
    /** Spawn the accelerator's logic (coroutines in the eFPGA domain). */
    std::function<void(FpgaContext &)> start;
};

/** Adapter-wide configuration. */
struct AdapterParams
{
    unsigned numMemoryHubs = 1;
    MemoryHubParams hub;
    ControlHubParams ctrl;
    FabricConfig fabric;
    std::size_t scratchpadBytes = 16 * 1024;
    std::uint64_t defaultFpgaMhz = 100;
    /** FPSoC baseline: shadow registers downgraded; the FPGA-side cache
     *  (proxy) is clocked in the slow domain (the system builder arranges
     *  the CDC on its NoC ports). */
    bool fpsocMode = false;
};

/** A Duet Adapter instance. */
class DuetAdapter
{
  public:
    /**
     * @param fast_clk the processor/NoC clock domain
     * @param name     stats prefix
     * @param params   configuration
     * @param mesh     the NoC
     * @param proxies  one Proxy Cache per memory hub (tile L2s of the
     *                 adapter's C-/M-tiles, already NoC-wired)
     * @param ctrl_node NoC endpoint of the Control Hub (C-tile)
     * @param mmio_base base of this adapter's MMIO window
     */
    DuetAdapter(ClockDomain &fast_clk, ClockDomain &fpga_clk,
                std::string name, const AdapterParams &params, Mesh &mesh,
                std::vector<PrivateCache *> proxies, NodeId ctrl_node,
                Addr mmio_base);

    /** Build a sealed bitstream for an image on this fabric. */
    Bitstream makeBitstream(const AccelImage &img) const;

    /**
     * Install a soft accelerator: full programming flow with timing.
     * @param on_done called with success once the fabric is running
     */
    void install(const AccelImage &img, std::function<void(bool)> on_done);

    /** Convenience: install and run the event queue until configured. */
    bool installBlocking(const AccelImage &img);

    ControlHub &ctrl() { return *ctrl_; }
    MemoryHub &hub(unsigned i) { return *hubs_.at(i); }
    unsigned numHubs() const { return static_cast<unsigned>(hubs_.size()); }
    FpgaRegFile *regs() { return regFile_.get(); }
    SoftCache *softCache(unsigned i) { return softCaches_.at(i).get(); }
    ClockDomain &fpgaClock() { return fpgaClk_; }
    Fabric &fabric() { return fabric_; }
    Scratchpad &scratchpad() { return spad_; }
    const AdapterParams &params() const { return params_; }
    const std::string &name() const { return name_; }

    /** Fault injection for tests: next request from soft cache @p i gets a
     *  parity error. */
    void injectParityError(unsigned i);

    /** Fallback latency-attribution sink for soft caches
     *  (`--latency-breakdown`). Soft caches are built per install(), so
     *  the adapter remembers the sink and applies it to each new one. */
    void
    setDefaultTrace(LatencyTrace *t)
    {
        defaultTrace_ = t;
        for (auto &sc : softCaches_)
            sc->setDefaultTrace(t);
    }

    void registerStats(StatRegistry &reg) const;

  private:
    ClockDomain &fastClk_;
    std::string name_;
    AdapterParams params_;
    Mesh &mesh_;
    ClockDomain &fpgaClk_;
    Fabric fabric_;
    Scratchpad spad_;
    std::vector<std::unique_ptr<MemoryHub>> hubs_;
    std::unique_ptr<ControlHub> ctrl_;
    std::unique_ptr<FpgaRegFile> regFile_;
    std::vector<std::unique_ptr<SoftCache>> softCaches_;
    std::vector<PrivateCache *> proxies_;
    LatencyTrace *defaultTrace_ = nullptr;
};

} // namespace duet

#endif // DUET_CORE_ADAPTER_HH
