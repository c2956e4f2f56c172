#include "system/system.hh"

#include <cmath>

#include "sim/logging.hh"

namespace duet
{

System::System(const SystemConfig &cfg) : cfg_(cfg) { build(); }

void
System::build()
{
    const SystemConfig &cfg = cfg_;
    const bool has_fpga = cfg.mode != SystemMode::CpuOnly;
    // Tile count: p P-tiles, plus (with an eFPGA) one C-tile and m-1
    // M-tiles. m = 0 still needs the C-tile for the Control Hub.
    const unsigned adapter_tiles =
        has_fpga ? 1 + (cfg.numMemHubs > 0 ? cfg.numMemHubs - 1 : 0) : 0;
    numTiles_ = cfg.numCores + adapter_tiles;
    if (numTiles_ > L3Shard::kMaxTiles) {
        panic("System: " + std::to_string(numTiles_) + " tiles exceed the " +
              std::to_string(L3Shard::kMaxTiles) +
              "-tile directory sharer cap");
    }

    clk_ = std::make_unique<ClockDomain>(eq_, "sys", cfg.cpuFreqMhz);
    fpgaClk_ = std::make_unique<ClockDomain>(eq_, "fpga", cfg.fpgaFreqMhz);

    // Near-square mesh.
    MeshConfig mc = cfg.meshTiming;
    mc.width = static_cast<unsigned>(
        std::ceil(std::sqrt(static_cast<double>(numTiles_))));
    mc.height = (numTiles_ + mc.width - 1) / mc.width;
    mesh_ = std::make_unique<Mesh>(*clk_, mc);

    const unsigned tiles = numTiles_;
    auto home_of = [tiles](Addr la) {
        return NodeId{static_cast<std::uint16_t>(lineNumber(la) % tiles),
                      TilePort::L3};
    };

    // Per-tile L2 + L3 shard. Adapter-tile L2s are the Proxy Caches; in
    // FPSoC mode they run in the eFPGA clock domain.
    for (unsigned t = 0; t < numTiles_; ++t) {
        const bool is_adapter_tile = t >= cfg.numCores;
        const bool slow_cache =
            is_adapter_tile && cfg.mode == SystemMode::Fpsoc;
        ClockDomain &domain = slow_cache ? *fpgaClk_ : *clk_;
        auto cat = slow_cache ? LatencyTrace::Cat::SlowCache
                              : LatencyTrace::Cat::FastCache;
        auto id16 = static_cast<std::uint16_t>(t);
        l2s_.push_back(std::make_unique<PrivateCache>(
            domain, "tile" + std::to_string(t) + ".l2", cfg.l2, mem_,
            NodeId{id16, TilePort::L2}, home_of, cat));
        l3s_.push_back(std::make_unique<L3Shard>(
            *clk_, "tile" + std::to_string(t) + ".l3", cfg.l3, mem_,
            NodeId{id16, TilePort::L3}));
        l3s_.back()->setSendFn(
            [m = mesh_.get()](Message msg) { m->inject(msg); });
        mesh_->registerEndpoint({id16, TilePort::L3},
                                [shard = l3s_.back().get()](const Message &m) {
                                    shard->receive(m);
                                });

        if (!slow_cache) {
            l2s_.back()->setSendFn(
                [m = mesh_.get()](Message msg) { m->inject(msg); });
            mesh_->registerEndpoint({id16, TilePort::L2},
                                    [c = l2s_.back().get()](const Message &m) {
                                        c->receive(m);
                                    });
        } else {
            // FPSoC: the FPGA-side cache's NoC ports cross the CDC in
            // both directions (paper Fig. 5a) *through the centralized
            // AXI-style bridge* of Fig. 1b, modeled as a deeper
            // synchronizer/pipeline than Duet's bare 2-flop CDC.
            auto out = std::make_unique<AsyncFifo<Message>>(
                "tile" + std::to_string(t) + ".cdcOut", *clk_, 64, 4);
            auto in = std::make_unique<AsyncFifo<Message>>(
                "tile" + std::to_string(t) + ".cdcIn", *fpgaClk_, 64, 4);
            out->setDrain([m = mesh_.get()](Message &&msg) {
                m->inject(std::move(msg));
            });
            in->setDrain([c = l2s_.back().get()](Message &&msg) {
                c->receive(msg);
            });
            l2s_.back()->setSendFn(
                [o = out.get()](Message msg) { o->push(std::move(msg)); });
            mesh_->registerEndpoint({id16, TilePort::L2},
                                    [i = in.get()](const Message &m) {
                                        i->push(m);
                                    });
            cdcLinks_.push_back(std::move(out));
            cdcLinks_.push_back(std::move(in));
        }
    }

    // Cores on P-tiles.
    auto mmio_route = [this](Addr) {
        return NodeId{static_cast<std::uint16_t>(cTile()), TilePort::Ctrl};
    };
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        cores_.push_back(std::make_unique<Core>(
            *clk_, "core" + std::to_string(c), c, *l2s_[c], *mesh_,
            mmio_route));
        mesh_->registerEndpoint(
            {static_cast<std::uint16_t>(c), TilePort::Core},
            [core = cores_.back().get()](const Message &m) {
                core->receive(m);
            });
    }

    // The Duet Adapter on the C-/M-tiles.
    if (has_fpga) {
        AdapterParams ap;
        ap.numMemoryHubs = cfg.numMemHubs;
        ap.hub = cfg.hub;
        ap.ctrl = cfg.ctrl;
        ap.fabric = cfg.fabric;
        ap.scratchpadBytes = cfg.scratchpadBytes;
        ap.defaultFpgaMhz = cfg.fpgaFreqMhz;
        ap.fpsocMode = cfg.mode == SystemMode::Fpsoc;
        std::vector<PrivateCache *> proxies;
        for (unsigned h = 0; h < cfg.numMemHubs; ++h)
            proxies.push_back(l2s_[cfg.numCores + h].get());
        adapter_ = std::make_unique<DuetAdapter>(
            *clk_, *fpgaClk_, "adapter", ap, *mesh_, std::move(proxies),
            NodeId{static_cast<std::uint16_t>(cTile()), TilePort::Ctrl},
            kMmioBase);
        mesh_->registerEndpoint(
            {static_cast<std::uint16_t>(cTile()), TilePort::Ctrl},
            [a = adapter_.get()](const Message &m) { a->ctrl().receive(m); });

        // TLB faults interrupt core 0 (the kernel CPU).
        for (unsigned h = 0; h < adapter_->numHubs(); ++h) {
            adapter_->hub(h).setFaultHandler([this, h](Addr vpn) {
                cores_[0]->raiseInterrupt((static_cast<std::uint64_t>(h)
                                           << 56) |
                                          vpn);
            });
        }

        adapter_->registerStats(stats_);
    }

    for (auto &c : cores_)
        c->registerStats(stats_);
    for (auto &l2 : l2s_)
        l2->registerStats(stats_);
    for (auto &l3 : l3s_)
        l3->registerStats(stats_);

    LatencyTrace *sink = cfg.latencyBreakdown ? &latTotals_ : nullptr;
    for (auto &c : cores_)
        c->setDefaultTrace(sink);
    if (adapter_)
        adapter_->setDefaultTrace(sink);
}

System::~System()
{
    // Reclaim simulated threads (accelerator request loops, workload
    // coroutines) still parked at a suspension point. The event queue
    // that could resume them dies with this object, so destroying the
    // frames here — before the members they reference go away — is the
    // single point where it is safe.
    arena_.detached().drain();
}

void
System::reset(const SystemConfig &cfg)
{
    // Parked frames first (they reference components, as in ~System),
    // then the pending events, then the hardware in the order ~System
    // destroys it. Only the event-queue slab and the arena stay.
    arena_.detached().drain();
    eq_.reset();
    cdcLinks_.clear();
    adapter_.reset();
    cores_.clear();
    l3s_.clear();
    l2s_.clear();
    mesh_.reset();
    fpgaClk_.reset();
    clk_.reset();
    mem_ = FunctionalMemory{};
    stats_ = StatRegistry{};
    latTotals_.reset();
    cfg_ = cfg;
    build();
}

bool
System::installAccel(const AccelImage &img)
{
    simAssert(adapter_ != nullptr, "installAccel on a CPU-only system");
    return adapter_->installBlocking(img);
}

Tick
System::run()
{
    bool drained = eq_.run(cfg_.maxTicks);
    if (!drained)
        fatal("system watchdog: simulation exceeded maxTicks (deadlock?)");
    return eq_.now();
}

Tick
System::lastCoreFinish() const
{
    Tick last = 0;
    for (const auto &c : cores_)
        last = std::max(last, c->finishTick());
    return last;
}

} // namespace duet
