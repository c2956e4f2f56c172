#include "core/adapter.hh"

#include "sim/logging.hh"

namespace duet
{

DuetAdapter::DuetAdapter(ClockDomain &fast_clk, ClockDomain &fpga_clk,
                         std::string name, const AdapterParams &params,
                         Mesh &mesh, std::vector<PrivateCache *> proxies,
                         NodeId ctrl_node, Addr mmio_base)
    : fastClk_(fast_clk), name_(std::move(name)), params_(params),
      mesh_(mesh), fpgaClk_(fpga_clk), fabric_(params.fabric),
      spad_(params.scratchpadBytes), proxies_(std::move(proxies))
{
    simAssert(proxies_.size() == params_.numMemoryHubs,
              name_ + ": one proxy cache per memory hub required");

    for (unsigned i = 0; i < params_.numMemoryHubs; ++i) {
        MemoryHubParams hp = params_.hub;
        if (params_.fpsocMode) {
            // The FPGA-side cache already lives in the slow domain; no
            // CDC between the accelerator and the hub (the CDC moved to
            // the cache's NoC ports, wired by the system builder).
            hp.reqSyncStages = 0;
            hp.respSyncStages = 0;
        }
        // The hub logic runs in the proxy's clock domain.
        hubs_.push_back(std::make_unique<MemoryHub>(
            proxies_[i]->clock(), fpgaClk_,
            name_ + ".hub" + std::to_string(i), hp, *proxies_[i]));
    }

    ControlHubParams cp = params_.ctrl;
    if (params_.fpsocMode) {
        cp.shadowEnabled = false;
        // Register accesses traverse the FPSoC's centralized interconnect
        // and AXI bridge before reaching the fabric (Fig. 1b).
        cp.syncStages = 4;
    }
    ctrl_ = std::make_unique<ControlHub>(fast_clk, fpgaClk_,
                                         name_ + ".ctrl", cp, fabric_,
                                         mesh_, ctrl_node, mmio_base);
    std::vector<MemoryHub *> raw;
    for (auto &h : hubs_)
        raw.push_back(h.get());
    ctrl_->setMemoryHubs(std::move(raw));

    // A latched error in any hub deactivates every hub in the adapter
    // (Sec. II-B: prevents accelerator bugs from halting the system).
    for (auto &h : hubs_) {
        h->setErrorHook([this](HubError) {
            for (auto &other : hubs_)
                other->setActive(false);
        });
    }
}

void
DuetAdapter::registerStats(StatRegistry &reg) const
{
    ctrl_->registerStats(reg);
    for (const auto &h : hubs_)
        h->registerStats(reg);
}

Bitstream
DuetAdapter::makeBitstream(const AccelImage &img) const
{
    Bitstream b;
    b.accelName = img.name;
    b.used = img.resources;
    // The scratchpad is BRAM like any other: its bits count against
    // Fabric::capacity(), so an image only fits together with the
    // (possibly layout-grown) non-coherent memory it runs against.
    b.used.bramBits += spad_.bramBits();
    b.fmaxMHz = img.fmaxMHz;
    // A small deterministic payload (the image name) for the integrity
    // check to seal. Load time does not depend on it: ControlHub::program
    // charges at least the fabric's full bitstreamBytes().
    b.bytes.assign(img.name.begin(), img.name.end());
    b.seal();
    return b;
}

void
DuetAdapter::install(const AccelImage &img,
                     std::function<void(bool)> on_done)
{
    // Feature-switch discipline: memory hubs must not accept eFPGA traffic
    // while the fabric reconfigures (Sec. II-B).
    for (auto &h : hubs_)
        h->setActive(false);

    ctrl_->program(makeBitstream(img), [this, img, on_done](bool ok) {
        if (!ok) {
            on_done(false);
            return;
        }
        // eFPGA clock from the synthesized Fmax (capped by request).
        fpgaClk_.setFrequencyMHz(img.fmaxMHz);

        // Build the slow-domain register file and wire the control FIFOs.
        regFile_ = std::make_unique<FpgaRegFile>(
            fpgaClk_, name_ + ".regs", img.regLayout);
        regFile_->bindOut(&ctrl_->fromFpga());
        ctrl_->toFpga().setDrain(
            [rf = regFile_.get()](CtrlMsg &&m) { rf->receive(std::move(m)); });
        ctrl_->attachRegFile(regFile_.get());

        // Build one soft cache (or pass-through port) per memory hub.
        softCaches_.clear();
        std::uint64_t fwd_mask = 0, tlb_mask = 0, amo_mask = 0;
        for (unsigned i = 0; i < numHubs(); ++i) {
            SoftCacheParams scp = i < img.softCaches.size()
                                      ? img.softCaches[i]
                                      : SoftCacheParams{.enabled = false};
            auto sc = std::make_unique<SoftCache>(
                fpgaClk_, name_ + ".softCache" + std::to_string(i), scp,
                proxies_[i]->memoryRef());
            sc->setDefaultTrace(defaultTrace_);
            sc->bindOut(&hubs_[i]->reqFifo());
            hubs_[i]->respFifo().setDrain(
                [p = sc.get()](FpgaMemResp &&r) { p->receive(std::move(r)); });
            if (scp.enabled)
                fwd_mask |= 1ull << i;
            if (img.useTlb)
                tlb_mask |= 1ull << i;
            if (img.atomics)
                amo_mask |= 1ull << i;
            softCaches_.push_back(std::move(sc));
        }
        for (unsigned i = 0; i < numHubs(); ++i) {
            hubs_[i]->setForwardInvs(fwd_mask & (1ull << i));
            hubs_[i]->setTlbEnabled(tlb_mask & (1ull << i));
            hubs_[i]->setAtomicsEnabled(amo_mask & (1ull << i));
            hubs_[i]->setActive(true);
        }

        // Start the accelerator logic.
        if (img.start) {
            std::vector<SoftCache *> ports;
            for (auto &sc : softCaches_)
                ports.push_back(sc.get());
            FpgaContext ctx{fpgaClk_, *regFile_, std::move(ports), spad_,
                            *this};
            img.start(ctx);
        }
        on_done(true);
    });
}

bool
DuetAdapter::installBlocking(const AccelImage &img)
{
    bool ok = false, done = false;
    install(img, [&](bool success) {
        ok = success;
        done = true;
    });
    EventQueue &eq = fastClk_.eventQueue();
    while (!done && !eq.empty())
        eq.run(eq.now() + kTicksPerUs);
    simAssert(done, name_ + ": install never completed");
    return ok;
}

void
DuetAdapter::injectParityError(unsigned i)
{
    FpgaMemReq bad;
    bad.op = FpgaMemOp::Load;
    bad.addr = 0;
    bad.parityOk = false;
    hubs_.at(i)->reqFifo().push(bad);
}

} // namespace duet
