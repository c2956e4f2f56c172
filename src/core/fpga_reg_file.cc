#include "core/fpga_reg_file.hh"

#include "sim/logging.hh"

namespace duet
{

FpgaRegFile::FpgaRegFile(ClockDomain &fpga_clk, std::string name,
                         const RegLayout &layout)
    : clk_(fpga_clk), name_(std::move(name)), layout_(layout),
      regs_(layout.kinds.size())
{
    for (std::size_t i = 0; i < regs_.size(); ++i)
        regs_[i].kind = layout.kinds[i];
}

void
FpgaRegFile::reset()
{
    for (Reg &r : regs_) {
        r.value = 0;
        r.fifo.clear();
        r.tokens = 0;
        // Parked operations are dropped: a parked pop is never resumed
        // (its frame is reclaimed with the accelerator's threads), and
        // the Control Hub times out a parked read.
        r.poppers.clear();
        r.parkedReads.clear();
    }
    outQ_.clear();
}

void
FpgaRegFile::send(CtrlMsg msg)
{
    msgsOut.inc();
    outQ_.push_back(std::move(msg));
    if (!outPumping_)
        pumpOut();
}

void
FpgaRegFile::pumpOut()
{
    simAssert(out_ != nullptr, name_ + ": unbound reg file");
    while (!outQ_.empty() && !out_->full()) {
        out_->push(std::move(outQ_.front()));
        outQ_.pop_front();
    }
    if (outQ_.empty()) {
        outPumping_ = false;
        return;
    }
    outPumping_ = true;
    clk_.scheduleAtEdge(1, [this] { pumpOut(); });
}

void
FpgaRegFile::ReadReply::operator()(std::uint64_t v)
{
    simAssert(rf_ != nullptr, "ReadReply called twice or after a move");
    CtrlMsg m;
    m.kind = CtrlMsgKind::NormalReadData;
    m.txnId = txn_;
    m.data = v;
    std::exchange(rf_, nullptr)->send(m);
}

void
FpgaRegFile::serveNormalRead(Reg &r, std::uint32_t txn)
{
    if (r.readHandler) {
        r.readHandler(ReadReply(this, txn));
        return;
    }
    switch (r.kind) {
      case RegKind::CpuFifo: {
        // Downgraded-to-normal CPU-bound FIFO: non-blocking empty reply
        // (software polls; see kFifoEmpty).
        if (r.fifo.empty()) {
            CtrlMsg m;
            m.kind = CtrlMsgKind::NormalReadData;
            m.txnId = txn;
            m.data = kFifoEmpty;
            send(m);
            return;
        }
        CtrlMsg m;
        m.kind = CtrlMsgKind::NormalReadData;
        m.txnId = txn;
        m.data = r.fifo.front();
        r.fifo.pop_front();
        send(m);
        return;
      }
      case RegKind::TokenFifo: {
        CtrlMsg m;
        m.kind = CtrlMsgKind::NormalReadData;
        m.txnId = txn;
        if (r.tokens > 0) {
            --r.tokens;
            m.data = 1;
        } else {
            m.data = 0;
        }
        send(m);
        return;
      }
      default: {
        CtrlMsg m;
        m.kind = CtrlMsgKind::NormalReadData;
        m.txnId = txn;
        m.data = r.value;
        send(m);
        return;
      }
    }
}

void
FpgaRegFile::serveNormalWrite(Reg &r, std::uint64_t val, std::uint32_t txn)
{
    if (r.kind == RegKind::FpgaFifo) {
        // Downgraded FPGA-bound FIFO: data lands in the slow-domain queue.
        r.fifo.push_back(val);
        if (!r.poppers.empty()) {
            PopOp *popper = r.poppers.front();
            r.poppers.pop_front();
            std::uint64_t v = r.fifo.front();
            r.fifo.pop_front();
            popper->fulfill(v);
        }
    } else {
        r.value = val;
    }
    CtrlMsg m;
    m.kind = CtrlMsgKind::NormalWriteAck;
    m.txnId = txn;
    send(m);
}

void
FpgaRegFile::receive(CtrlMsg &&msg)
{
    msgsIn.inc();
    simAssert(msg.reg < regs_.size(), name_ + ": register out of range");
    Reg &r = regs_[msg.reg];
    switch (msg.kind) {
      case CtrlMsgKind::NormalRead:
        // Soft register file logic: decode + mux in the slow domain.
        if (msg.trace)
            msg.trace->add(LatencyTrace::Cat::SlowCache,
                           2 * clk_.period());
        clk_.scheduleAtEdge(2, [this, reg = msg.reg, txn = msg.txnId] {
            serveNormalRead(regs_[reg], txn);
        });
        return;
      case CtrlMsgKind::NormalWrite:
        if (msg.trace)
            msg.trace->add(LatencyTrace::Cat::SlowCache,
                           2 * clk_.period());
        clk_.scheduleAtEdge(2, [this, reg = msg.reg, data = msg.data,
                                txn = msg.txnId] {
            serveNormalWrite(regs_[reg], data, txn);
        });
        return;
      case CtrlMsgKind::PlainUpdate:
        r.value = msg.data;
        return;
      case CtrlMsgKind::FifoData: {
        r.fifo.push_back(msg.data);
        if (!r.poppers.empty()) {
            PopOp *popper = r.poppers.front();
            r.poppers.pop_front();
            std::uint64_t v = r.fifo.front();
            r.fifo.pop_front();
            popper->fulfill(v);
            // Shadowed mode: return the credit so the Control Hub can
            // accept another CPU write.
            CtrlMsg credit;
            credit.kind = CtrlMsgKind::FifoCredit;
            credit.reg = msg.reg;
            send(credit);
        }
        return;
      }
      default:
        panic(name_ + ": unexpected control message kind");
    }
}

FpgaRegFile::PopOp::PopOp(FpgaRegFile &rf, unsigned reg)
{
    simAssert(reg < rf.regs_.size(), rf.name_ + ": pop out of range");
    Reg &r = rf.regs_[reg];
    if (r.fifo.empty()) {
        r.poppers.push_back(this);
        return;
    }
    std::uint64_t v = r.fifo.front();
    r.fifo.pop_front();
    if (rf.shadowed_ && r.kind == RegKind::FpgaFifo) {
        CtrlMsg credit;
        credit.kind = CtrlMsgKind::FifoCredit;
        credit.reg = static_cast<std::uint16_t>(reg);
        rf.send(credit);
    }
    // One slow cycle to dequeue.
    rf.clk_.scheduleAtEdge(1, [this, v] { fulfill(v); });
}

void
FpgaRegFile::push(unsigned reg, std::uint64_t v)
{
    simAssert(reg < regs_.size(), name_ + ": push out of range");
    Reg &r = regs_[reg];
    // Shadowed CPU-bound FIFO: ship the data to the fast-domain shadow.
    // Downgraded (normal) mode: serve any parked blocking read, else queue
    // locally.
    if (!r.parkedReads.empty()) {
        std::uint32_t txn = r.parkedReads.front();
        r.parkedReads.pop_front();
        CtrlMsg rd;
        rd.kind = CtrlMsgKind::NormalReadData;
        rd.txnId = txn;
        rd.data = v;
        send(rd);
        return;
    }
    if (!shadowed_) {
        // Downgraded mode: the data stays in the slow domain until a
        // forwarded NormalRead pops it.
        r.fifo.push_back(v);
        return;
    }
    CtrlMsg m;
    m.kind = CtrlMsgKind::CpuFifoPush;
    m.reg = static_cast<std::uint16_t>(reg);
    m.data = v;
    send(m);
}

void
FpgaRegFile::pushTokens(unsigned reg, std::uint64_t n)
{
    simAssert(reg < regs_.size(), name_ + ": token push out of range");
    if (!shadowed_) {
        regs_[reg].tokens += n;
        return;
    }
    CtrlMsg m;
    m.kind = CtrlMsgKind::TokenPush;
    m.reg = static_cast<std::uint16_t>(reg);
    m.data = n;
    send(m);
}

void
FpgaRegFile::writePlain(unsigned reg, std::uint64_t v)
{
    simAssert(reg < regs_.size(), name_ + ": plain write out of range");
    regs_[reg].value = v;
    if (!shadowed_)
        return;
    CtrlMsg m;
    m.kind = CtrlMsgKind::PlainSyncBack;
    m.reg = static_cast<std::uint16_t>(reg);
    m.data = v;
    send(m);
}

} // namespace duet
