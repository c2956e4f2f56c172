/**
 * @file
 * The system builder: constructs Dolly-PpMm instances (paper Sec. IV).
 *
 * A Dolly instance has p P-tiles (core + private L2), one C-tile (Control
 * Hub + Memory Hub 0 + proxy L2) when an eFPGA is present, and m-1 M-tiles
 * (one Memory Hub each). Every tile also carries an L3 shard + directory
 * slice and a mesh router (the "P-Mesh socket"). Lines are home-interleaved
 * across all shards.
 *
 * Three modes:
 *  - CpuOnly: processor-only baseline (no adapter tiles)
 *  - Duet: this work — proxy caches and shadow registers in the fast domain
 *  - Fpsoc: the paper's FPSoC baseline — the FPGA-side caches are re-clocked
 *    into the eFPGA domain with CDC on their NoC ports, and all shadow
 *    registers are downgraded to normal soft registers (Sec. V-D)
 */

#ifndef DUET_SYSTEM_SYSTEM_HH
#define DUET_SYSTEM_SYSTEM_HH

#include <memory>
#include <string>
#include <vector>

#include "core/adapter.hh"
#include "cache/l3_shard.hh"
#include "cpu/core.hh"
#include "sim/arena.hh"
#include "sim/inline_function.hh"
#include "sim/latency_trace.hh"
#include "sim/stats.hh"

namespace duet
{

/** Which system flavor to build. */
enum class SystemMode
{
    CpuOnly,
    Duet,
    Fpsoc,
};

/** Base of the adapter's MMIO window. */
constexpr Addr kMmioBase = 0xF0000000ull;

class System;

/** Full system configuration. */
struct SystemConfig
{
    unsigned numCores = 1;   ///< p in Dolly-PpMm
    unsigned numMemHubs = 1; ///< m in Dolly-PpMm
    SystemMode mode = SystemMode::Duet;
    std::uint64_t cpuFreqMhz = 1000; ///< paper boosts cores to 1 GHz
    std::uint64_t fpgaFreqMhz = 100; ///< until an image overrides it
    PrivateCacheParams l2;
    L3ShardParams l3;
    MeshConfig meshTiming; ///< width/height are computed from tile count
    MemoryHubParams hub;
    ControlHubParams ctrl;
    FabricConfig fabric;
    std::size_t scratchpadBytes = 16 * 1024;
    /// Auto mode (default): appConfig() grows the scratchpad to the
    /// workload's computed layout requirement, never below the value
    /// above. An explicit --spm-kib clears the flag and pins the
    /// capacity exactly (a too-small pin trips the scratchpad's OOB
    /// diagnostics).
    bool scratchpadAuto = true;
    Tick maxTicks = 500 * 1000 * kTicksPerUs; ///< watchdog (500 ms sim time)
    /// Run parameter (`--latency-breakdown`), not geometry: route memory
    /// and MMIO ops that carry no LatencyTrace into a system-wide
    /// aggregate, giving Fig. 9-style noc/fast/slow/cdc tick totals.
    /// Attribution only; sim_ticks are unaffected.
    bool latencyBreakdown = false;
    /// Post-run hook: benchmarks hand their System here (via reportRun)
    /// after the timed region completes but before teardown, so callers
    /// can dump the stats registry. A non-owning ref (this header is in
    /// lint R7's hot set, and the config must stay copyable): the
    /// callable must be a named lvalue that outlives the run.
    FunctionRef<void(System &)> observer;
};

/** A fully wired simulated system. */
class System
{
  public:
    explicit System(const SystemConfig &cfg);
    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    // ------------------------- topology -------------------------------
    unsigned numTiles() const { return numTiles_; }
    unsigned cTile() const { return cfg_.numCores; } ///< adapter C-tile

    Core &core(unsigned i) { return *cores_.at(i); }
    unsigned numCores() const { return static_cast<unsigned>(cores_.size()); }
    DuetAdapter &adapter() { return *adapter_; }
    bool hasAdapter() const { return adapter_ != nullptr; }
    FunctionalMemory &memory() { return mem_; }
    EventQueue &eventQueue() { return eq_; }
    ClockDomain &clock() { return *clk_; }
    ClockDomain &fpgaClock() { return *fpgaClk_; }
    Mesh &mesh() { return *mesh_; }
    PrivateCache &l2(unsigned tile) { return *l2s_.at(tile); }
    L3Shard &l3(unsigned tile) { return *l3s_.at(tile); }
    StatRegistry &stats() { return stats_; }
    const SystemConfig &config() const { return cfg_; }

    /** MMIO address of control register @p off (see ctrl_reg). */
    Addr ctrlAddr(Addr off) const { return kMmioBase + off; }
    /** MMIO address of soft register @p idx. */
    Addr regAddr(unsigned idx) const
    {
        return kMmioBase + ctrl_reg::kRegBase + 8ull * idx;
    }

    /** Install an accelerator image (runs the programming flow). */
    bool installAccel(const AccelImage &img);

    /**
     * Run until the event queue drains (all cores finished and all
     * accelerators parked) or the watchdog fires.
     * @return the final simulated tick
     */
    Tick run();

    /** Longest core finish time (the benchmark runtime). */
    Tick lastCoreFinish() const;

    /**
     * Rebuild this system as `System(cfg)` would, through the
     * constructor's own build(), for any @p cfg (scenario warm-start,
     * see SystemLease). The coroutine frames spawned on it, every
     * component, the functional memory and the stats registry are
     * destroyed and replaced. Only the event-queue slab, the one
     * allocator that exists to be reused, survives; the frame arena
     * keeps its place in the thread's chain. If build() panics on a
     * shape the hardware cannot take (see validateRequest), the system
     * may only be reset again or destroyed.
     */
    void reset(const SystemConfig &cfg);

    /** This system's registry of spawned frames (test probe). */
    const FrameArena &frameArena() const { return arena_; }

    /** Aggregate per-category latency totals (valid when the config's
     *  latencyBreakdown flag is set; all zero otherwise). */
    const LatencyTrace &latencyTotals() const { return latTotals_; }

  private:
    /** Build the hardware described by cfg_ (constructor and reset). */
    void build();

    // The arena is declared FIRST: members are destroyed in reverse
    // order, so it outlives every component — including the detached
    // coroutine frames drained in ~System's body — and is current from
    // the start of construction whenever this is the newest System alive
    // on its thread. spawn() registers each detached frame with the
    // current arena, so this system drains only the frames spawned on
    // it.
    FrameArena arena_;
    SystemConfig cfg_;
    unsigned numTiles_;
    EventQueue eq_;
    std::unique_ptr<ClockDomain> clk_;
    std::unique_ptr<ClockDomain> fpgaClk_;
    FunctionalMemory mem_;
    std::unique_ptr<Mesh> mesh_;
    std::vector<std::unique_ptr<PrivateCache>> l2s_;
    std::vector<std::unique_ptr<L3Shard>> l3s_;
    std::vector<std::unique_ptr<Core>> cores_;
    std::unique_ptr<DuetAdapter> adapter_;
    // FPSoC-mode CDC links on proxy NoC ports.
    std::vector<std::unique_ptr<AsyncFifo<Message>>> cdcLinks_;
    StatRegistry stats_;
    LatencyTrace latTotals_;
};

} // namespace duet

#endif // DUET_SYSTEM_SYSTEM_HH
