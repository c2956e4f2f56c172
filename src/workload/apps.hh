/**
 * @file
 * The application-benchmark layer (paper Sec. V-D, Fig. 12).
 *
 * Every benchmark runs in three system flavors — CpuOnly baseline, FPSoC
 * baseline, and Duet — returning the timed-region runtime and a functional
 * correctness verdict (results are checked against host-computed
 * references; accelerated and baseline variants share bit-exact kernels).
 *
 * The benchmarks themselves are registered in the workload registry
 * (registry.hh); this header adds the Fig. 12 table (the thirteen fixed
 * configurations the paper plots) and the helpers the workload
 * implementations share.
 */

#ifndef DUET_WORKLOAD_APPS_HH
#define DUET_WORKLOAD_APPS_HH

#include <memory>
#include <string>
#include <vector>

#include "workload/registry.hh"

namespace duet
{

/**
 * A scoped handle to a System configured by @p cfg — the scenario
 * warm-start entry point every benchmark uses in place of constructing a
 * System directly. Each thread keeps one System in a slot. A lease
 * rebuilds that System for @p cfg through System::reset() whenever the
 * slot is free, whatever geometry it last held, so every lease after a
 * thread's first is warm: it reuses the event-queue slab instead of
 * allocating it again. A nested lease (the slot is in use), or one taken
 * while a System built after the slot's is alive, gets a fresh System of
 * its own.
 */
class SystemLease
{
  public:
    explicit SystemLease(const SystemConfig &cfg);
    ~SystemLease();

    SystemLease(const SystemLease &) = delete;
    SystemLease &operator=(const SystemLease &) = delete;

    System &operator*() { return *sys_; }
    System *operator->() { return sys_; }

    /** True when this lease reused (reset) the thread's System. */
    bool warm() const { return warm_; }

  private:
    std::unique_ptr<System> owned_; ///< set when not serving the cache
    System *sys_ = nullptr;
    bool warm_ = false;
};

/** Cumulative SystemLease activity on the calling thread. The counters
 *  live next to the (thread-local) warm-System slot, so a resident
 *  worker reading them before and after a request learns whether that
 *  request warm-started — the service telemetry's hit-rate source. */
struct LeaseStats
{
    std::uint64_t total = 0; ///< leases taken
    std::uint64_t warm = 0;  ///< leases served by resetting the slot
};

/** This thread's lease counters (monotonic; never reset). */
LeaseStats leaseStats();

/** One Fig. 12 configuration: a registry workload + fixed parameters. */
struct AppSpec
{
    std::string name;     ///< e.g. "sort/64"
    std::string accelKey; ///< Table II row ("sort64", "bfs", ...)
    unsigned p = 1;       ///< cores (Dolly-PpMm)
    unsigned m = 1;       ///< memory hubs
    const Workload *workload = nullptr;
    WorkloadParams params; ///< resolved

    /** Run this configuration under a default system config in @p mode. */
    AppResult run(SystemMode mode) const;
};

/** All thirteen Fig. 12 configurations, in the paper's order (data
 *  derived from the workload registry). */
const std::vector<AppSpec> &allApps();

/**
 * Common system configuration for a benchmark: layers the workload's
 * thread topology and benchmark defaults (no blocking-access watchdog, a
 * fabric large enough for the biggest accelerator) over @p base, which
 * carries the mode and any caller overrides (cache geometry, clocks,
 * observer).
 *
 * @p spad_bytes is the workload's computed scratchpad requirement (from
 * its layout); in auto mode the scratchpad grows to cover it and the
 * fabric's BRAM tile count is derived so accelerator + scratchpad fit
 * Fabric::capacity(). With an explicit --spm-kib the requirement is
 * ignored and the pinned capacity rules.
 */
SystemConfig appConfig(unsigned p, unsigned m, const SystemConfig &base,
                       std::size_t spad_bytes = 0);

/**
 * Largest scratchpad the application fabric can host: the BRAM bits of
 * the biggest fabric appConfig() will build, minus the biggest Table II
 * accelerator image. The registry derives its problem-size ceilings from
 * this (see registry.cc) instead of hand-maintained window comments.
 */
std::size_t maxScratchpadBytes();

/**
 * Hand a finished benchmark System to the observer registered in its
 * SystemConfig (no-op without one). Every workload calls this right
 * before tearing its System down, so the caller can dump the stats
 * registry post-run, pre-teardown.
 */
void reportRun(System &sys);

/** Install an image, aborting the simulation if it does not fit. */
void installOrDie(System &sys, const AccelImage &img);

/**
 * Pop one value from a CPU-bound FIFO register. Under Duet the shadow
 * register blocks the reader until data arrives; under FPSoC the
 * downgraded register returns kFifoEmpty and the software polls.
 */
CoTask<std::uint64_t> popReg(Core &c, Addr reg_addr);

// Per-benchmark entry points (registered in registry.cc; exposed for
// tests). Parameters must be resolved — prefer runApp()/runWorkload().
AppResult runTangent(const WorkloadParams &, const SystemConfig &);
AppResult runPopcount(const WorkloadParams &, const SystemConfig &);
AppResult runSort(const WorkloadParams &, const SystemConfig &);
AppResult runDijkstra(const WorkloadParams &, const SystemConfig &);
AppResult runBarnesHut(const WorkloadParams &, const SystemConfig &);
AppResult runPdes(const WorkloadParams &, const SystemConfig &);
AppResult runBfs(const WorkloadParams &, const SystemConfig &);

} // namespace duet

#endif // DUET_WORKLOAD_APPS_HH
