#include "cpu/core.hh"

#include "sim/logging.hh"
#include "sim/trace.hh"

namespace duet
{

Core::Core(ClockDomain &clk, std::string name, unsigned tile,
           PrivateCache &l2, Mesh &mesh, MmioRoute mmio_route)
    : clk_(clk), name_(std::move(name)), tile_(tile), l2_(l2), mesh_(mesh),
      mmioRoute_(std::move(mmio_route))
{
    // Keep the L1 inclusive: lines leaving the L2 leave the L1 too.
    l2_.setInvalidateHook(
        [this](Addr a, std::uint64_t) { l1_.invalidateLine(a); });
}

void
Core::registerStats(StatRegistry &reg) const
{
    reg.registerCounter(name_ + ".loads", &loads);
    reg.registerCounter(name_ + ".stores", &stores);
    reg.registerCounter(name_ + ".amos", &amos);
    reg.registerCounter(name_ + ".mmios", &mmios);
    reg.registerCounter(name_ + ".l1Hits", &l1Hits);
    reg.registerCounter(name_ + ".irqs", &irqs);
}

void
Core::start(std::function<CoTask<void>(Core &)> main)
{
    clk_.scheduleAtEdge(0, [this, main = std::move(main)] {
        spawn([](Core &core,
                 std::function<CoTask<void>(Core &)> m) -> CoTask<void> {
            co_await m(core);
            core.finished_ = true;
            core.finishTick_ = core.clk_.eventQueue().now();
        }(*this, std::move(main)));
    });
}

Core::LoadOp::LoadOp(Core &c, Addr a, unsigned size, LatencyTrace *trace)
{
    c.loads.inc();
    if (!trace)
        trace = c.defaultTrace_;
    if (c.l1_.loadHit(a)) {
        c.l1Hits.inc();
        // The co_await that follows queues the frame for this edge; the
        // value is read from functional memory when it resumes.
        hitCore_ = &c;
        due_ = c.clk_.edgeAfterCycles(c.l1_.params().hitLatency);
        addr_ = a;
        size_ = size;
        return;
    }
    CacheReq r;
    r.kind = CacheReq::Kind::Load;
    r.addr = a;
    r.size = size;
    r.trace = trace;
    r.done = [this, cp = &c, a](std::uint64_t v) {
        cp->l1_.fill(a);
        fulfill(v);
    };
    c.l2_.request(std::move(r));
}

void
Core::SpinOp::poll()
{
    Core &c = core_;
    c.loads.inc();
    if (c.l1_.loadHit(addr_)) {
        c.l1Hits.inc();
        fire = &onHit;
        c.clk_.eventQueue().post(
            c.clk_.edgeAfterCycles(c.l1_.params().hitLatency), *this);
        return;
    }
    CacheReq r;
    r.kind = CacheReq::Kind::Load;
    r.addr = addr_;
    r.size = 8;
    r.trace = c.defaultTrace_;
    r.done = [this](std::uint64_t v) {
        core_.l1_.fill(addr_);
        check(v);
    };
    c.l2_.request(std::move(r));
}

void
Core::SpinOp::check(std::uint64_t v)
{
    if ((v != 0) == nonzero_) {
        value_ = v;
        // Tail position: the resumed frame may destroy *this.
        waiter_.resume();
        return;
    }
    fire = &onDelay;
    core_.clk_.eventQueue().post(core_.clk_.edgeAfterCycles(1), *this);
}

void
Core::SpinOp::onHit(EventQueue::Event &e)
{
    obs::profClaim("cpu");
    auto &op = static_cast<SpinOp &>(e);
    op.check(op.core_.l2_.memoryRef().read(op.addr_, 8));
}

void
Core::SpinOp::onDelay(EventQueue::Event &e)
{
    obs::profClaim("cpu");
    static_cast<SpinOp &>(e).poll();
}

Core::StoreOp::StoreOp(Core &c, Addr a, std::uint64_t v, unsigned size,
                       LatencyTrace *trace)
{
    c.stores.inc();
    if (!trace)
        trace = c.defaultTrace_;
    CacheReq r;
    r.kind = CacheReq::Kind::Store;
    r.addr = a;
    r.size = size;
    r.wdata = v;
    r.trace = trace;
    r.done = [this](std::uint64_t) { fulfill(); };
    c.l2_.request(std::move(r));
}

Core::AtomicOp::AtomicOp(Core &c, AmoOp op, Addr a, std::uint64_t operand,
                         std::uint64_t operand2, unsigned size)
{
    c.amos.inc();
    CacheReq r;
    r.kind = CacheReq::Kind::Amo;
    r.amoOp = op;
    r.addr = a;
    r.size = size;
    r.wdata = operand;
    r.wdata2 = operand2;
    r.done = [this](std::uint64_t old) { fulfill(old); };
    c.l2_.request(std::move(r));
}

Core::MmioReadOp::MmioReadOp(Core &c, Addr a, LatencyTrace *trace)
{
    c.mmios.inc();
    if (!trace)
        trace = c.defaultTrace_;
    const std::uint32_t id = c.nextTxn_++;
    c.pendingMmio_.insert(id, this);
    Message m;
    m.type = MsgType::MmioRead;
    m.src = {static_cast<std::uint16_t>(c.tile_), TilePort::Core};
    m.dst = c.mmioRoute_(a);
    m.addr = a;
    m.txnId = id;
    m.trace = trace;
    c.mesh_.inject(m);
}

Core::MmioWriteOp::MmioWriteOp(Core &c, Addr a, std::uint64_t v,
                               LatencyTrace *trace)
{
    c.mmios.inc();
    if (!trace)
        trace = c.defaultTrace_;
    const std::uint32_t id = c.nextTxn_++;
    c.pendingMmio_.insert(id, this);
    Message m;
    m.type = MsgType::MmioWrite;
    m.src = {static_cast<std::uint16_t>(c.tile_), TilePort::Core};
    m.dst = c.mmioRoute_(a);
    m.addr = a;
    m.value = v;
    m.txnId = id;
    m.trace = trace;
    c.mesh_.inject(m);
}

void
Core::receive(const Message &msg)
{
    simAssert(msg.type == MsgType::MmioResp,
              name_ + ": unexpected NoC message at core");
    auto op = pendingMmio_.take(msg.txnId);
    simAssert(op.has_value(), name_ + ": stray MMIO response");
    (*op)->fulfill(msg.value);
}

void
Core::raiseInterrupt(std::uint64_t cause)
{
    irqs.inc();
    simAssert(static_cast<bool>(irqHandler_),
              name_ + ": interrupt with no handler installed");
    // The handler runs as an independent coroutine; a real kernel would
    // preempt the user thread, but for our workloads the handler only
    // competes for the same memory ports, which the model serializes.
    clk_.scheduleAtEdge(1, [this, cause] {
        spawn(irqHandler_(*this, cause));
    });
}

} // namespace duet
