#include "workload/apps.hh"

#include <algorithm>

#include "core/ctrl_msg.hh"

namespace duet
{

void
reportRun(System &sys)
{
    if (sys.config().observer)
        sys.config().observer(sys);
}

namespace
{

/**
 * The per-thread warm-System slot behind SystemLease. Thread-local on
 * purpose: the chain of live frame arenas is thread-local, so a System
 * must be reset and destroyed on the thread that built it.
 */
struct SystemCache
{
    std::unique_ptr<System> sys;
    bool inUse = false;
};

SystemCache &
systemCache()
{
    thread_local SystemCache cache;
    return cache;
}

/// Thread-local like the cache itself: a lease only ever reuses its own
/// thread's slot, so the hit-rate counters follow the same scoping.
LeaseStats &
leaseCounters()
{
    thread_local LeaseStats stats;
    return stats;
}

} // namespace

LeaseStats
leaseStats()
{
    return leaseCounters();
}

SystemLease::SystemLease(const SystemConfig &cfg)
{
    ++leaseCounters().total;
    SystemCache &cache = systemCache();
    // The slot's arena must be current so the frames this run spawns
    // join that System's own DetachedPool, which its next reset()
    // drains. It is unless a System built after it is still alive.
    if (cache.sys && !cache.inUse && cache.sys->frameArena().isCurrent()) {
        cache.sys->reset(cfg);
        cache.inUse = true;
        sys_ = cache.sys.get();
        warm_ = true;
        ++leaseCounters().warm;
        return;
    }
    owned_ = std::make_unique<System>(cfg);
    sys_ = owned_.get();
}

SystemLease::~SystemLease()
{
    SystemCache &cache = systemCache();
    if (owned_) {
        // Seed the slot when it is free so the next lease starts warm;
        // otherwise the System dies here.
        if (!cache.sys)
            cache.sys = std::move(owned_);
        return;
    }
    if (sys_ == cache.sys.get())
        cache.inUse = false;
}

namespace
{

// The application fabric's BRAM budget. The tile count grows with the
// scratchpad requirement (so layout-driven problem sizes get the BRAM
// they declare) between a floor that keeps default-size runs on the
// seed-era 12-tile fabric and a ceiling modeling the largest eFPGA a
// Dolly adapter can carry.
constexpr unsigned kAppBramTilesFloor = 12;
constexpr unsigned kAppBramTilesMax = 80;
// The biggest Table II image (sort128) — the fabric must host it next to
// the scratchpad regardless of which benchmark is running.
constexpr std::uint64_t kMaxAccelBramBits = 200 * 1024;

} // namespace

std::size_t
maxScratchpadBytes()
{
    const FabricConfig f;
    return static_cast<std::size_t>(
        (std::uint64_t{kAppBramTilesMax} * f.bitsPerBram -
         kMaxAccelBramBits) /
        8);
}

SystemConfig
appConfig(unsigned p, unsigned m, const SystemConfig &base,
          std::size_t spad_bytes)
{
    SystemConfig cfg = base;
    cfg.numCores = p;
    cfg.numMemHubs = m;
    // Application runs disable the blocking-access timeout: the HA widgets
    // legitimately park CPU-bound FIFO readers for long stretches.
    cfg.ctrl.timeoutCycles = 0;
    // A fabric large enough for the biggest accelerator (Barnes-Hut).
    cfg.fabric.clbColumns = 20;
    cfg.fabric.clbRows = 20;
    cfg.fabric.multTiles = 32;
    // Scratchpad: grow to the workload layout's requirement unless an
    // explicit --spm-kib pinned the capacity.
    if (cfg.scratchpadAuto && spad_bytes > cfg.scratchpadBytes)
        cfg.scratchpadBytes = spad_bytes;
    // BRAM tiles: accelerator image + scratchpad must fit
    // Fabric::capacity() (the adapter charges the scratchpad's bits to
    // the installed bitstream).
    const std::uint64_t bits =
        std::uint64_t{cfg.scratchpadBytes} * 8 + kMaxAccelBramBits;
    const std::uint64_t tiles =
        (bits + cfg.fabric.bitsPerBram - 1) / cfg.fabric.bitsPerBram;
    cfg.fabric.bramTiles = static_cast<unsigned>(
        std::clamp<std::uint64_t>(tiles, kAppBramTilesFloor,
                                  kAppBramTilesMax));
    return cfg;
}

CoTask<std::uint64_t>
popReg(Core &c, Addr reg_addr)
{
    while (true) {
        std::uint64_t v = co_await c.mmioRead(reg_addr);
        if (v != kFifoEmpty)
            co_return v;
        co_await c.compute(8); // poll back-off
    }
}

void
installOrDie(System &sys, const AccelImage &img)
{
    bool ok = sys.installAccel(img);
    if (!ok) {
        const Fabric &f = sys.adapter().fabric();
        panic("accelerator image failed to install: " + img.name +
              " (image " + std::to_string(img.resources.bramBits) +
              " + scratchpad " +
              std::to_string(sys.adapter().scratchpad().bramBits()) +
              " BRAM bits vs fabric capacity " +
              std::to_string(f.capacity().bramBits) + ")");
    }
}

AppResult
AppSpec::run(SystemMode mode) const
{
    SystemConfig base;
    base.mode = mode;
    return runWorkload(*workload, params, base);
}

const std::vector<AppSpec> &
allApps()
{
    // One Fig. 12 row: look the workload up in the registry and bake in
    // the paper's parameters (everything else resolves to the defaults).
    auto fig12 = [](const char *display, const char *accel_key,
                    const char *wl, WorkloadParams p) {
        const Workload *w = findWorkload(wl);
        simAssert(w != nullptr, std::string("unregistered workload: ") + wl);
        std::string err;
        simAssert(resolveParams(*w, p, err), err);
        return AppSpec{display, accel_key, p.cores, p.memHubs, w, p};
    };
    static const std::vector<AppSpec> apps = {
        fig12("tangent", "tangent", "tangent", {}),
        fig12("popcount", "popcount", "popcount", {}),
        fig12("sort/32", "sort32", "sort", {.size = 32}),
        fig12("sort/64", "sort64", "sort", {.size = 64}),
        fig12("sort/128", "sort128", "sort", {.size = 128}),
        fig12("dijkstra", "dijkstra", "dijkstra", {}),
        fig12("barnes-hut", "barnes-hut", "barnes_hut", {}),
        fig12("pdes/4", "pdes", "pdes", {.cores = 4}),
        fig12("pdes/8", "pdes", "pdes", {.cores = 8}),
        fig12("pdes/16", "pdes", "pdes", {.cores = 16}),
        fig12("bfs/4", "bfs", "bfs", {.cores = 4}),
        fig12("bfs/8", "bfs", "bfs", {.cores = 8}),
        fig12("bfs/16", "bfs", "bfs", {.cores = 16}),
    };
    return apps;
}

} // namespace duet
