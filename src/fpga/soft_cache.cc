#include "fpga/soft_cache.hh"

#include "sim/logging.hh"
#include "sim/trace.hh"

namespace duet
{

SoftCache::SoftCache(ClockDomain &fpga_clk, std::string name,
                     const SoftCacheParams &params, FunctionalMemory &mem)
    : clk_(fpga_clk), name_(std::move(name)), params_(params), mem_(mem),
      array_(std::max(1u, params.sizeBytes / kLineBytes /
                              std::max(1u, params.ways)),
             std::max(1u, params.ways))
{
}

SoftCache::LoadOp::LoadOp(SoftCache &sc, Addr a, unsigned size,
                          LatencyTrace *trace)
{
    if (!trace)
        trace = sc.defaultTrace_;
    PendingOp op;
    op.op = FpgaMemOp::Load;
    op.addr = a;
    op.size = size;
    op.trace = trace;
    op.done = this;
    sc.queue_.push_back(std::move(op));
    sc.schedulePump();
}

SoftCache::StoreOp::StoreOp(SoftCache &sc, Addr a, std::uint64_t v,
                            unsigned size, LatencyTrace *trace)
{
    if (!trace)
        trace = sc.defaultTrace_;
    PendingOp op;
    op.op = FpgaMemOp::Store;
    op.addr = a;
    op.size = size;
    op.wdata = v;
    op.trace = trace;
    op.done = this;
    sc.queue_.push_back(std::move(op));
    sc.schedulePump();
}

SoftCache::AtomicOp::AtomicOp(SoftCache &sc, AmoOp amo_op, Addr a,
                              std::uint64_t operand, std::uint64_t operand2,
                              unsigned size)
{
    PendingOp op;
    op.op = FpgaMemOp::Amo;
    op.addr = a;
    op.size = size;
    op.wdata = operand;
    op.wdata2 = operand2;
    op.amoOp = amo_op;
    op.trace = nullptr;
    op.done = this;
    sc.queue_.push_back(std::move(op));
    sc.schedulePump();
}

SoftCache::DrainOp::DrainOp(SoftCache &sc)
{
    if (sc.wb_.empty() && sc.queue_.empty()) {
        fulfill(); // nothing buffered: pre-resolved, never suspends
        return;
    }
    sc.drainWaiters_.push_back(this);
}

void
SoftCache::checkDrained()
{
    if (!wb_.empty() || !queue_.empty() || drainWaiters_.empty())
        return;
    auto waiters = std::move(drainWaiters_);
    drainWaiters_.clear();
    for (PendingVoid *w : waiters)
        w->fulfill();
}

void
SoftCache::schedulePump()
{
    if (pumping_)
        return;
    pumping_ = true;
    clk_.scheduleAtEdge(params_.hitLatency, [this] { pump(); });
}

void
SoftCache::pump()
{
    obs::profClaim("fpga");
    // Issue at most one operation per eFPGA cycle, in order.
    if (!queue_.empty() && issue(queue_.front()))
        queue_.pop_front();
    if (queue_.empty()) {
        pumping_ = false;
        checkDrained();
        return;
    }
    clk_.scheduleAtEdge(1, [this] { pump(); });
}

std::uint64_t
SoftCache::readWithForwarding(Addr pa, Addr va, unsigned size) const
{
    // Read-after-write forwarding from the write buffer (newest wins).
    std::uint64_t v = mem_.read(pa, size);
    for (const auto &[id, e] : wb_) {
        if (e.addr == va && e.size == size)
            v = e.data;
    }
    return v;
}

bool
SoftCache::issue(PendingOp &op)
{
    simAssert(out_ != nullptr, name_ + ": unbound soft cache");
    const Addr va_line = lineAlign(op.addr);

    if (op.trace)
        op.trace->add(LatencyTrace::Cat::SlowCache,
                      clk_.cyclesToTicks(params_.hitLatency));

    switch (op.op) {
      case FpgaMemOp::Load: {
        if (params_.enabled) {
            SoftLine *line = array_.find(va_line);
            if (line) {
                hits.inc();
                Addr pa = line->paddr + lineOffset(op.addr);
                op.done->fulfill(readWithForwarding(pa, op.addr, op.size));
                return true;
            }
            // Miss: coalesce into an existing fill if one is in flight.
            auto it = mshrs_.find(va_line);
            if (it != mshrs_.end()) {
                it->second.waiters.push_back(std::move(op));
                return true;
            }
            if (mshrs_.size() >= params_.mshrs || out_->full())
                return false; // head-of-line stall; retry next cycle
            misses.inc();
            Mshr &m = mshrs_[va_line];
            m.waiters.push_back(std::move(op));
            FpgaMemReq req;
            req.op = FpgaMemOp::Load;
            req.addr = va_line;
            req.size = 8; // line fill; timing, not data
            req.id = nextId_++;
            req.trace = m.waiters.front().trace;
            out_->push(req);
            return true;
        }
        // Pass-through (no soft cache): per-access load via the hub.
        if (out_->full())
            return false;
        FpgaMemReq req;
        req.op = FpgaMemOp::Load;
        req.addr = op.addr;
        req.size = op.size;
        req.id = nextId_++;
        req.trace = op.trace;
        Mshr &m = mshrs_[op.addr | (static_cast<Addr>(req.id) << 48)];
        m.waiters.push_back(std::move(op));
        out_->push(req);
        return true;
      }

      case FpgaMemOp::Store: {
        if (wb_.size() >= params_.writeBufferEntries || out_->full())
            return false;
        std::uint32_t id = nextId_++;
        wb_[id] = WbEntry{op.addr, op.size, op.wdata};
        wbStores.inc();
        FpgaMemReq req;
        req.op = FpgaMemOp::Store;
        req.addr = op.addr;
        req.size = op.size;
        req.wdata = op.wdata;
        req.id = id;
        req.trace = op.trace;
        out_->push(req);
        // Optionally allocate on store (write-allocate policy).
        if (params_.enabled && params_.writeAllocate &&
            !array_.find(va_line)) {
            // Fill happens lazily via the hub's StoreAck (paddr known then).
        }
        // Posted store: complete now that it is buffered.
        op.done->fulfill(0);
        return true;
      }

      case FpgaMemOp::Amo: {
        if (out_->full())
            return false;
        std::uint32_t id = nextId_++;
        FpgaMemReq req;
        req.op = FpgaMemOp::Amo;
        req.addr = op.addr;
        req.size = op.size;
        req.wdata = op.wdata;
        req.wdata2 = op.wdata2;
        req.amoOp = op.amoOp;
        req.id = id;
        req.trace = op.trace;
        pendingAmos_.emplace(id, std::move(op));
        out_->push(req);
        return true;
      }
    }
    return false;
}

void
SoftCache::receive(FpgaMemResp &&resp)
{
    switch (resp.type) {
      case FpgaMemRespType::Inv: {
        // No acknowledgement is ever sent back (the Duet protocol).
        invsReceived.inc();
        if (params_.enabled)
            array_.erase(lineAlign(resp.addr));
        return;
      }

      case FpgaMemRespType::LoadAck: {
        if (params_.enabled) {
            const Addr va_line = lineAlign(resp.addr);
            auto it = mshrs_.find(va_line);
            if (it == mshrs_.end())
                return; // fill raced with an invalidation epoch; drop
            fills.inc();
            SoftLine *line = array_.find(va_line);
            if (!line) {
                SoftLine &slot = array_.victimFor(va_line);
                array_.install(slot, va_line);
                line = &slot;
            }
            line->paddr = lineAlign(resp.paddr);
            std::vector<PendingOp> waiters = std::move(it->second.waiters);
            mshrs_.erase(it);
            for (PendingOp &w : waiters) {
                Addr pa = line->paddr + lineOffset(w.addr);
                w.done->fulfill(readWithForwarding(pa, w.addr, w.size));
            }
            return;
        }
        // Pass-through: match by (addr | id) key.
        const Addr key = resp.addr | (static_cast<Addr>(resp.id) << 48);
        auto it = mshrs_.find(key);
        simAssert(it != mshrs_.end(), name_ + ": stray LoadAck");
        std::vector<PendingOp> waiters = std::move(it->second.waiters);
        mshrs_.erase(it);
        for (PendingOp &w : waiters)
            w.done->fulfill(resp.data);
        return;
      }

      case FpgaMemRespType::StoreAck: {
        wb_.erase(resp.id);
        checkDrained();
        return;
      }

      case FpgaMemRespType::AmoAck: {
        auto it = pendingAmos_.find(resp.id);
        simAssert(it != pendingAmos_.end(), name_ + ": stray AmoAck");
        PendingOp op = std::move(it->second);
        pendingAmos_.erase(it);
        op.done->fulfill(resp.data);
        return;
      }
    }
}

} // namespace duet
