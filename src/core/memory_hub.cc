#include "core/memory_hub.hh"

#include "sim/logging.hh"

namespace duet
{

MemoryHub::MemoryHub(ClockDomain &hub_clk, ClockDomain &fpga_clk,
                     std::string name, const MemoryHubParams &params,
                     PrivateCache &proxy)
    : hubClk_(hub_clk), name_(std::move(name)), params_(params), proxy_(proxy),
      reqFifo_(name_ + ".reqFifo", hub_clk, params.reqFifoDepth,
               params.reqSyncStages),
      respFifo_(name_ + ".respFifo", fpga_clk, params.respFifoDepth,
                params.respSyncStages),
      tlb_(params.tlbEntries)
{
    reqFifo_.setDrain([this](FpgaMemReq &&r) { handleReq(std::move(r)); });

    // Reverse-map invalidations into the (virtually-tagged) soft cache.
    // The VPN was stored in the proxy line's metadata at fill time.
    proxy_.setInvalidateHook([this](Addr pa_line, std::uint64_t vpn) {
        if (!params_.forwardInvs)
            return;
        invsForwarded.inc();
        FpgaMemResp inv;
        inv.type = FpgaMemRespType::Inv;
        inv.paddr = pa_line;
        inv.addr = params_.tlbEnabled
                       ? vpn * kPageBytes + pageOffset(pa_line)
                       : pa_line;
        pushResp(inv);
    });
}

void
MemoryHub::registerStats(StatRegistry &reg) const
{
    reg.registerCounter(name_ + ".reqsAccepted", &reqsAccepted);
    reg.registerCounter(name_ + ".reqsDropped", &reqsDropped);
    reg.registerCounter(name_ + ".invsForwarded", &invsForwarded);
    reg.registerCounter(name_ + ".tlbFaults", &tlbFaults);
    reg.registerCounter(name_ + ".parityErrors", &parityErrors);
    reg.registerCounter(name_ + ".tlbHits", &tlb_.hits);
    reg.registerCounter(name_ + ".tlbMisses", &tlb_.misses);
}

void
MemoryHub::latchError(HubError e)
{
    if (error_ == HubError::None)
        error_ = e;
    active_ = false;
    if (errorHook_)
        errorHook_(e);
}

void
MemoryHub::handleReq(FpgaMemReq &&req)
{
    if (!active_) {
        // Deactivated: stop accepting memory requests from the eFPGA but
        // keep the Proxy Cache answering coherence traffic (Sec. II-B).
        reqsDropped.inc();
        return;
    }
    if (!req.parityOk) {
        // Exception handler: corrupted eFPGA output deactivates all
        // Memory Hubs in this adapter (the adapter wires the broadcast).
        parityErrors.inc();
        latchError(HubError::Parity);
        return;
    }
    if (req.op == FpgaMemOp::Amo && !params_.atomicsEnabled) {
        parityErrors.inc(); // protocol violation: treated like bad parity
        latchError(HubError::Parity);
        return;
    }
    reqsAccepted.inc();

    Addr pa = req.addr;
    if (params_.tlbEnabled) {
        auto translated = tlb_.translate(req.addr);
        if (!translated) {
            tlbFaults.inc();
            bool first_fault_for_page = true;
            for (const auto &f : faulted_)
                if (pageNumber(f.addr) == pageNumber(req.addr))
                    first_fault_for_page = false;
            faulted_.push_back(std::move(req));
            if (first_fault_for_page && faultHandler_)
                faultHandler_(pageNumber(faulted_.back().addr));
            return;
        }
        pa = *translated;
    }
    issue(req, pa);
}

void
MemoryHub::issue(const FpgaMemReq &req, Addr pa)
{
    CacheReq cr;
    cr.addr = pa;
    cr.size = req.size;
    cr.trace = req.trace;
    cr.lineMeta = params_.tlbEnabled ? pageNumber(req.addr) : 0;
    const std::uint32_t id = req.id;
    const Addr va = req.addr;
    LatencyTrace *trace = req.trace;

    switch (req.op) {
      case FpgaMemOp::Load:
        cr.kind = CacheReq::Kind::Load;
        cr.done = [this, id, va, pa, trace](std::uint64_t v) {
            FpgaMemResp r;
            r.type = FpgaMemRespType::LoadAck;
            r.addr = va;
            r.paddr = pa;
            r.data = v;
            r.id = id;
            r.trace = trace;
            pushResp(r);
        };
        break;
      case FpgaMemOp::Store:
        cr.kind = CacheReq::Kind::Store;
        cr.wdata = req.wdata;
        cr.done = [this, id, va, pa, trace](std::uint64_t) {
            FpgaMemResp r;
            r.type = FpgaMemRespType::StoreAck;
            r.addr = va;
            r.paddr = pa;
            r.id = id;
            r.trace = trace;
            pushResp(r);
        };
        break;
      case FpgaMemOp::Amo:
        cr.kind = CacheReq::Kind::Amo;
        cr.amoOp = req.amoOp;
        cr.wdata = req.wdata;
        cr.wdata2 = req.wdata2;
        cr.done = [this, id, va, pa, trace](std::uint64_t old) {
            FpgaMemResp r;
            r.type = FpgaMemRespType::AmoAck;
            r.addr = va;
            r.paddr = pa;
            r.data = old;
            r.id = id;
            r.trace = trace;
            pushResp(r);
        };
        break;
    }
    proxy_.request(std::move(cr));
}

void
MemoryHub::tlbInsert(Addr vpn, Addr ppn)
{
    tlb_.insert(vpn, ppn);
    // Retry everything parked on this page (in order).
    std::deque<FpgaMemReq> rest;
    while (!faulted_.empty()) {
        FpgaMemReq r = std::move(faulted_.front());
        faulted_.pop_front();
        if (pageNumber(r.addr) == vpn) {
            auto pa = tlb_.translate(r.addr);
            simAssert(pa.has_value(), name_ + ": retry missed TLB");
            issue(r, *pa);
        } else {
            rest.push_back(std::move(r));
        }
    }
    faulted_ = std::move(rest);
}

void
MemoryHub::tlbKill(Addr vpn)
{
    std::deque<FpgaMemReq> rest;
    while (!faulted_.empty()) {
        FpgaMemReq r = std::move(faulted_.front());
        faulted_.pop_front();
        if (pageNumber(r.addr) != vpn)
            rest.push_back(std::move(r));
    }
    faulted_ = std::move(rest);
    latchError(HubError::TlbKilled);
}

void
MemoryHub::pushResp(FpgaMemResp resp)
{
    respQ_.push_back(std::move(resp));
    if (!respPumping_)
        pumpResp();
}

void
MemoryHub::pumpResp()
{
    // Preserve order: invalidations, line fills and write acks must reach
    // the soft cache in the order the Proxy Cache emitted them (Sec. II-C).
    while (!respQ_.empty() && !respFifo_.full()) {
        respFifo_.push(std::move(respQ_.front()));
        respQ_.pop_front();
    }
    if (respQ_.empty()) {
        respPumping_ = false;
        return;
    }
    respPumping_ = true;
    hubClk_.scheduleAtEdge(1, [this] { pumpResp(); });
}

} // namespace duet
