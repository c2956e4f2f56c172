#include "core/control_hub.hh"

#include "sim/logging.hh"
#include "sim/trace.hh"

namespace duet
{

ControlHub::ControlHub(ClockDomain &fast_clk, ClockDomain &fpga_clk,
                       std::string name, const ControlHubParams &params,
                       Fabric &fabric, Mesh &mesh, NodeId self,
                       Addr mmio_base)
    : fastClk_(fast_clk), fpgaClk_(fpga_clk), name_(std::move(name)),
      params_(params), fabric_(fabric), mesh_(mesh), self_(self),
      mmioBase_(mmio_base),
      toFpga_(name_ + ".toFpga", fpga_clk, params.ctrlFifoDepth,
              params.syncStages),
      fromFpga_(name_ + ".fromFpga", fast_clk, params.ctrlFifoDepth,
                params.syncStages)
{
    fromFpga_.setDrain([this](CtrlMsg &&m) { handleFromFpga(std::move(m)); });
}

void
ControlHub::registerStats(StatRegistry &reg) const
{
    reg.registerCounter(name_ + ".mmioReads", &mmioReads);
    reg.registerCounter(name_ + ".mmioWrites", &mmioWrites);
    reg.registerCounter(name_ + ".timeouts", &timeouts);
    reg.registerCounter(name_ + ".bogusResponses", &bogusResponses);
    reg.registerCounter(name_ + ".programs", &programs);
}

void
ControlHub::attachRegFile(FpgaRegFile *rf)
{
    regFile_ = rf;
    shadows_.clear();
    if (!rf)
        return;
    shadows_.resize(rf->layout().kinds.size());
    for (std::size_t i = 0; i < shadows_.size(); ++i) {
        shadows_[i].kind = params_.shadowEnabled ? rf->layout().kinds[i]
                                                 : RegKind::Normal;
    }
    rf->setShadowed(params_.shadowEnabled);
}

void
ControlHub::receive(const Message &msg)
{
    simAssert(msg.type == MsgType::MmioRead || msg.type == MsgType::MmioWrite,
              name_ + ": unexpected NoC message");
    MmioOp op;
    op.isRead = msg.type == MsgType::MmioRead;
    simAssert(msg.addr >= mmioBase_, name_ + ": MMIO below base");
    op.offset = msg.addr - mmioBase_;
    op.wdata = msg.value;
    op.txnId = msg.txnId;
    op.src = msg.src;
    op.trace = msg.trace;
    op.arrival = fastClk_.eventQueue().now();
    (op.isRead ? mmioReads : mmioWrites).inc();
    queue_.push_back(std::move(op));
    if (!pumping_) {
        pumping_ = true;
        fastClk_.scheduleAtEdge(1, [this] { pump(); });
    }
}

void
ControlHub::respond(const MmioOp &op, std::uint64_t value)
{
    if (TraceSink *ts = obs::trace()) {
        if (ts->enabled(TraceCat::Ctrl)) {
            // One complete span per MMIO op: arrival at the hub through
            // the response injection, on this hub's track.
            ts->complete(TraceCat::Ctrl, name_,
                         op.isRead ? "mmio-read" : "mmio-write",
                         op.arrival, fastClk_.eventQueue().now());
        }
    }
    if (op.trace) {
        // Queue wait + hub processing in the fast domain.
        op.trace->add(LatencyTrace::Cat::FastCache,
                      fastClk_.eventQueue().now() - op.arrival);
    }
    Message m;
    m.type = MsgType::MmioResp;
    m.src = self_;
    m.dst = op.src;
    m.addr = mmioBase_ + op.offset;
    m.value = value;
    m.txnId = op.txnId;
    m.trace = op.trace;
    mesh_.inject(m);
}

void
ControlHub::pump()
{
    obs::profClaim("ctrl");
    if (headBlocked_ || queue_.empty()) {
        pumping_ = false;
        return;
    }
    bool finished = processHead(queue_.front());
    if (finished)
        queue_.pop_front();
    if (queue_.empty() && !headBlocked_) {
        pumping_ = false;
        return;
    }
    if (headBlocked_) {
        // The unblock path restarts the pump.
        pumping_ = false;
        return;
    }
    fastClk_.scheduleAtEdge(1, [this] { pump(); });
}

bool
ControlHub::handleCtrlSpace(MmioOp &op)
{
    switch (op.offset) {
      case ctrl_reg::kHubActive:
        if (op.isRead) {
            std::uint64_t mask = 0;
            for (std::size_t i = 0; i < hubs_.size(); ++i)
                if (hubs_[i]->active())
                    mask |= 1ull << i;
            respond(op, mask);
        } else {
            for (std::size_t i = 0; i < hubs_.size(); ++i)
                hubs_[i]->setActive(op.wdata & (1ull << i));
            respond(op, 0);
        }
        return true;
      case ctrl_reg::kClockMhz:
        if (op.isRead) {
            respond(op, fpgaClk_.frequencyMHz());
        } else {
            setFpgaClockMHz(op.wdata);
            respond(op, 0);
        }
        return true;
      case ctrl_reg::kTimeout:
        if (op.isRead) {
            respond(op, params_.timeoutCycles);
        } else {
            params_.timeoutCycles = op.wdata;
            respond(op, 0);
        }
        return true;
      case ctrl_reg::kReset:
        if (!op.isRead) {
            if (regFile_)
                regFile_->reset();
            for (Shadow &s : shadows_) {
                s.credits = 0;
                s.data.clear();
                s.tokens = 0;
            }
        }
        respond(op, 0);
        return true;
      case ctrl_reg::kErrCode:
        if (op.isRead) {
            respond(op, static_cast<std::uint64_t>(error_));
        } else {
            error_ = HubError::None;
            deactivated_ = false;
            for (MemoryHub *h : hubs_)
                h->clearError();
            respond(op, 0);
        }
        return true;
      case ctrl_reg::kTlbSelect:
        if (op.isRead)
            respond(op, tlbSelect_);
        else {
            tlbSelect_ = op.wdata;
            respond(op, 0);
        }
        return true;
      case ctrl_reg::kTlbVpn:
        if (op.isRead)
            respond(op, tlbVpnLatch_);
        else {
            tlbVpnLatch_ = op.wdata;
            respond(op, 0);
        }
        return true;
      case ctrl_reg::kTlbPpn:
        if (!op.isRead && tlbSelect_ < hubs_.size())
            hubs_[tlbSelect_]->tlbInsert(tlbVpnLatch_, op.wdata);
        respond(op, 0);
        return true;
      case ctrl_reg::kTlbKill:
        if (!op.isRead && tlbSelect_ < hubs_.size())
            hubs_[tlbSelect_]->tlbKill(op.wdata);
        respond(op, 0);
        return true;
      case ctrl_reg::kFwdInvs:
        if (!op.isRead)
            for (std::size_t i = 0; i < hubs_.size(); ++i)
                hubs_[i]->setForwardInvs(op.wdata & (1ull << i));
        respond(op, 0);
        return true;
      case ctrl_reg::kTlbEnable:
        if (!op.isRead)
            for (std::size_t i = 0; i < hubs_.size(); ++i)
                hubs_[i]->setTlbEnabled(op.wdata & (1ull << i));
        respond(op, 0);
        return true;
      case ctrl_reg::kAtomics:
        if (!op.isRead)
            for (std::size_t i = 0; i < hubs_.size(); ++i)
                hubs_[i]->setAtomicsEnabled(op.wdata & (1ull << i));
        respond(op, 0);
        return true;
      case ctrl_reg::kStatus:
        respond(op, static_cast<std::uint64_t>(fabric_.state()));
        return true;
      default:
        respond(op, kBogusData);
        return true;
    }
}

bool
ControlHub::processHead(MmioOp &op)
{
    if (op.offset < ctrl_reg::kRegBase)
        return handleCtrlSpace(op);

    const std::size_t reg = (op.offset - ctrl_reg::kRegBase) / 8;
    if (deactivated_ || !regFile_ || reg >= shadows_.size()) {
        // Deactivated Soft Register Interface: bogus data, never halts.
        bogusResponses.inc();
        respond(op, kBogusData);
        return true;
    }

    Shadow &s = shadows_[reg];
    switch (s.kind) {
      case RegKind::Normal: {
        if (toFpga_.full())
            return false; // retry next cycle (head-of-line)
        CtrlMsg m;
        m.kind = op.isRead ? CtrlMsgKind::NormalRead
                           : CtrlMsgKind::NormalWrite;
        m.reg = static_cast<std::uint16_t>(reg);
        m.data = op.wdata;
        m.txnId = nextFwdTxn_++;
        m.trace = op.trace;
        blockedTxn_ = m.txnId;
        headBlocked_ = true;
        armTimeout(++blockToken_);
        toFpga_.push(m);
        return false; // stays at head until the ack returns
      }

      case RegKind::Plain: {
        if (op.isRead) {
            respond(op, s.value);
            return true;
        }
        if (toFpga_.full())
            return false;
        s.value = op.wdata;
        CtrlMsg m;
        m.kind = CtrlMsgKind::PlainUpdate;
        m.reg = static_cast<std::uint16_t>(reg);
        m.data = op.wdata;
        m.trace = op.trace;
        toFpga_.push(m);
        respond(op, 0); // acked in the fast domain (Fig. 6b)
        return true;
      }

      case RegKind::FpgaFifo: {
        if (op.isRead) {
            respond(op, s.credits); // occupancy probe
            return true;
        }
        if (s.credits >= regFile_->layout().fifoDepth || toFpga_.full())
            return false; // backpressure stalls the pipeline
        ++s.credits;
        CtrlMsg m;
        m.kind = CtrlMsgKind::FifoData;
        m.reg = static_cast<std::uint16_t>(reg);
        m.data = op.wdata;
        m.trace = op.trace;
        toFpga_.push(m);
        respond(op, 0);
        return true;
      }

      case RegKind::CpuFifo: {
        if (!op.isRead) {
            respond(op, 0); // writes to a CPU-bound FIFO are ignored
            return true;
        }
        if (!s.data.empty()) {
            std::uint64_t v = s.data.front();
            s.data.pop_front();
            respond(op, v);
            return true;
        }
        // Blocking read: park it; younger accesses from other cores may
        // proceed (per-core I/O ordering is preserved because the core
        // itself blocks).
        op.arrival = fastClk_.eventQueue().now();
        s.parked.push_back(op);
        armTimeout(++blockToken_);
        return true;
      }

      case RegKind::TokenFifo: {
        if (!op.isRead) {
            respond(op, 0);
            return true;
        }
        if (s.tokens > 0) {
            --s.tokens;
            respond(op, 1);
        } else {
            respond(op, 0); // "empty", non-blocking try_join
        }
        return true;
      }
    }
    return true;
}

void
ControlHub::armTimeout(std::uint64_t token)
{
    if (params_.timeoutCycles == 0)
        return; // timeouts disabled
    fastClk_.scheduleAtEdge(params_.timeoutCycles, [this, token] {
        // Still blocked on the same event?
        if (headBlocked_ && blockToken_ == token) {
            latchTimeout();
            return;
        }
        // A parked CPU-bound read may also be stuck; check ages.
        Tick limit = fastClk_.cyclesToTicks(params_.timeoutCycles);
        Tick now = fastClk_.eventQueue().now();
        for (Shadow &s : shadows_) {
            for (const MmioOp &p : s.parked) {
                if (now - p.arrival >= limit) {
                    latchTimeout();
                    return;
                }
            }
        }
    });
}

void
ControlHub::latchTimeout()
{
    timeouts.inc();
    error_ = HubError::Parity; // generic "eFPGA unresponsive" error code
    deactivated_ = true;
    ++blockToken_;

    // Flush everything that is stuck with bogus data.
    if (headBlocked_) {
        headBlocked_ = false;
        bogusResponses.inc();
        respond(queue_.front(), kBogusData);
        queue_.pop_front();
    }
    for (Shadow &s : shadows_) {
        while (!s.parked.empty()) {
            bogusResponses.inc();
            respond(s.parked.front(), kBogusData);
            s.parked.pop_front();
        }
    }
    if (!pumping_ && !queue_.empty()) {
        pumping_ = true;
        fastClk_.scheduleAtEdge(1, [this] { pump(); });
    }
}

void
ControlHub::handleFromFpga(CtrlMsg &&msg)
{
    switch (msg.kind) {
      case CtrlMsgKind::NormalWriteAck:
      case CtrlMsgKind::NormalReadData: {
        if (!headBlocked_ || msg.txnId != blockedTxn_)
            return; // stale ack after a timeout
        headBlocked_ = false;
        ++blockToken_;
        MmioOp op = queue_.front();
        queue_.pop_front();
        respond(op, msg.kind == CtrlMsgKind::NormalReadData ? msg.data : 0);
        if (!pumping_ && !queue_.empty()) {
            pumping_ = true;
            fastClk_.scheduleAtEdge(1, [this] { pump(); });
        }
        return;
      }
      case CtrlMsgKind::PlainSyncBack:
        if (msg.reg < shadows_.size())
            shadows_[msg.reg].value = msg.data;
        return;
      case CtrlMsgKind::CpuFifoPush: {
        if (msg.reg >= shadows_.size())
            return;
        Shadow &s = shadows_[msg.reg];
        if (!s.parked.empty()) {
            MmioOp op = s.parked.front();
            s.parked.pop_front();
            ++blockToken_;
            respond(op, msg.data);
            return;
        }
        s.data.push_back(msg.data);
        return;
      }
      case CtrlMsgKind::TokenPush:
        if (msg.reg < shadows_.size())
            shadows_[msg.reg].tokens += msg.data;
        return;
      case CtrlMsgKind::FifoCredit:
        if (msg.reg < shadows_.size() && shadows_[msg.reg].credits > 0) {
            --shadows_[msg.reg].credits;
            // A write may have been stalled on credits; restart the pump.
            if (!pumping_ && !headBlocked_ && !queue_.empty()) {
                pumping_ = true;
                fastClk_.scheduleAtEdge(1, [this] { pump(); });
            }
        }
        return;
      default:
        panic(name_ + ": unexpected FPGA->CPU control message");
    }
}

void
ControlHub::program(Bitstream image, std::function<void(bool)> on_done)
{
    programs.inc();
    fabric_.beginProgramming();
    const std::size_t bytes =
        std::max(image.bytes.size(), fabric_.bitstreamBytes());
    Cycles cycles = (bytes + params_.progBytesPerCycle - 1) /
                    params_.progBytesPerCycle;
    fastClk_.scheduleAtEdge(cycles, [this, image = std::move(image),
                                     on_done = std::move(on_done)] {
        bool ok = fabric_.endProgramming(image);
        if (!ok)
            error_ = HubError::Parity; // integrity-check failure
        on_done(ok);
    });
}

void
ControlHub::setFpgaClockMHz(std::uint64_t mhz)
{
    fpgaClk_.setFrequencyMHz(mhz);
}

} // namespace duet
