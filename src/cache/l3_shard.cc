#include "cache/l3_shard.hh"

#include <algorithm>
#include <optional>

#include "sim/logging.hh"
#include "sim/trace.hh"

namespace duet
{

L3Shard::L3Shard(ClockDomain &clk, std::string name,
                 const L3ShardParams &params, FunctionalMemory &mem,
                 NodeId self)
    : clk_(clk), name_(std::move(name)), params_(params), mem_(mem),
      self_(self),
      array_(params.sizeBytes / kLineBytes / params.ways, params.ways)
{
}

L3Shard::DirEntry &
L3Shard::DirMap::operator[](Addr la)
{
    if (const std::uint32_t *n = index_.find(la))
        return at(*n);
    std::uint32_t n;
    if (!free_.empty()) {
        n = free_.back();
        free_.pop_back();
        at(n) = DirEntry{};
    } else {
        n = slots_++;
        if (n % kChunk == 0)
            chunks_.push_back(std::make_unique<DirEntry[]>(kChunk));
    }
    index_.insert(la, n);
    return at(n);
}

const L3Shard::DirEntry *
L3Shard::DirMap::find(Addr la) const
{
    const std::uint32_t *n = index_.find(la);
    return n ? &at(*n) : nullptr;
}

void
L3Shard::DirMap::erase(Addr la)
{
    const std::optional<std::uint32_t> n = index_.take(la);
    DUET_ASSERT(n.has_value(), "erasing an absent directory line");
    const DirEntry &e = at(*n);
    DUET_DCHECK(!e.busy && e.head == kNil && e.numSharers == 0 &&
                    e.state == DirState::U,
                "erasing a live directory entry");
    free_.push_back(*n);
}

std::vector<Addr>
L3Shard::DirMap::lines() const
{
    std::vector<Addr> out;
    out.reserve(index_.size());
    index_.forEach([&](Addr la, std::uint32_t) { out.push_back(la); });
    return out;
}

void
L3Shard::registerStats(StatRegistry &reg) const
{
    reg.registerCounter(name_ + ".requests", &requests);
    reg.registerCounter(name_ + ".recallsSent", &recallsSent);
    reg.registerCounter(name_ + ".invsSent", &invsSent);
    reg.registerCounter(name_ + ".l3Hits", &l3Hits);
    reg.registerCounter(name_ + ".l3Misses", &l3Misses);
    reg.registerCounter(name_ + ".memReads", &memReads);
    reg.registerCounter(name_ + ".memWrites", &memWrites);
    reg.registerCounter(name_ + ".atomics", &atomics);
}

std::vector<std::uint16_t>
L3Shard::holders(Addr line_addr) const
{
    const DirEntry *e = dir_.find(lineAlign(line_addr));
    if (!e || e->state == DirState::U)
        return {};
    if (e->state == DirState::EM)
        return {e->owner};
    return {e->sharers, e->sharers + e->numSharers};
}

bool
L3Shard::isOwned(Addr line_addr) const
{
    const DirEntry *e = dir_.find(lineAlign(line_addr));
    return e && e->state == DirState::EM;
}

bool
L3Shard::isBusy(Addr line_addr) const
{
    const DirEntry *e = dir_.find(lineAlign(line_addr));
    return e && e->busy;
}

Tick
L3Shard::startOp()
{
    Tick start = std::max(clk_.nextEdge(), busyUntil_);
    busyUntil_ = start + clk_.period();
    return start;
}

void
L3Shard::receive(const Message &msg)
{
    Tick start = startOp();
    Tick done = start + clk_.cyclesToTicks(params_.dirLatency);
    Tick arrival = clk_.eventQueue().now();
    clk_.eventQueue().schedule(done, [this, msg, arrival] {
        obs::profClaim("l3");
        if (msg.trace) {
            msg.trace->add(LatencyTrace::Cat::FastCache,
                           clk_.eventQueue().now() - arrival);
        }
        DirEntry &e = dir_[lineAlign(msg.addr)];
        switch (msg.type) {
          case MsgType::InvAck:
          case MsgType::RecallAckData:
          case MsgType::RecallAckClean:
            handleTxnResp(e, msg);
            return;
          default:
            break;
        }
        // A new request joins the line's FIFO and is served at once
        // unless the line is mid-transaction.
        enqueue(e, msg);
        if (!e.busy)
            startTxn(e);
    });
}

void
L3Shard::enqueue(DirEntry &e, const Message &msg)
{
    std::uint32_t n = freeNodes_;
    if (n != kNil) {
        freeNodes_ = pool_[n].next;
        pool_[n] = PoolNode{msg, kNil};
    } else {
        n = static_cast<std::uint32_t>(pool_.size());
        pool_.push_back(PoolNode{msg, kNil});
    }
    if (e.head == kNil)
        e.head = n;
    else
        pool_[e.tail].next = n;
    e.tail = n;
}

void
L3Shard::startTxn(DirEntry &e)
{
    const Message msg = pool_[e.head].msg;
    requests.inc();
    e.busy = true;
    switch (msg.type) {
      case MsgType::GetS:   handleGetS(e, msg); return;
      case MsgType::GetM:   handleGetM(e, msg); return;
      case MsgType::Atomic: handleAtomic(e, msg); return;
      case MsgType::PutS:
      case MsgType::PutM:   handlePut(e, msg); return;
      default:
        panic(name_ + ": unexpected request " + msgTypeName(msg.type));
    }
}

void
L3Shard::addSharer(DirEntry &e, std::uint16_t tile)
{
    DUET_ASSERT(tile < kMaxTiles && e.numSharers < kMaxTiles,
                "directory sharer list overflow");
    e.sharers[e.numSharers++] = static_cast<std::uint8_t>(tile);
}

Tick
L3Shard::arrayLatency(Addr line_addr)
{
    if (array_.find(line_addr)) {
        l3Hits.inc();
        return 0;
    }
    l3Misses.inc();
    memReads.inc();
    // Serialize on the memory port, pay DRAM latency, install the line.
    Tick now = clk_.eventQueue().now();
    Tick start = std::max(now, memBusyUntil_);
    Tick done = start + clk_.cyclesToTicks(params_.memLatencyCycles);
    memBusyUntil_ = start + clk_.cyclesToTicks(params_.memBurstCycles);
    L3Line &slot = array_.victimFor(line_addr);
    array_.install(slot, line_addr);
    return done - now;
}

void
L3Shard::sendData(DirEntry &e, MsgType t, const Message &req,
                  bool from_mem_path)
{
    const Addr la = lineAlign(req.addr);
    Tick extra = from_mem_path ? arrayLatency(la) : 0;
    if (extra && req.trace)
        req.trace->add(LatencyTrace::Cat::FastCache, extra);
    Message m;
    m.type = t;
    m.src = self_;
    m.dst = req.src;
    m.addr = la;
    m.txnId = req.txnId;
    m.trace = req.trace;
    // The line stays busy until the response is on the wire so a queued
    // request cannot let a recall overtake this data message.
    clk_.eventQueue().scheduleAfter(extra, [this, m, &e] {
        obs::profClaim("l3");
        send_(m);
        finishTxn(e);
    });
}

void
L3Shard::sendSimple(MsgType t, NodeId dst, Addr addr, LatencyTrace *trace,
                    std::uint64_t value, std::uint32_t txn_id)
{
    Message m;
    m.type = t;
    m.src = self_;
    m.dst = dst;
    m.addr = addr;
    m.value = value;
    m.txnId = txn_id;
    m.trace = trace;
    send_(m);
}

void
L3Shard::sendRecalls(DirEntry &e, MsgType t, Addr line_addr,
                     LatencyTrace *trace)
{
    recallsSent.inc();
    sendSimple(t, NodeId{e.owner, TilePort::L2}, line_addr, trace);
    e.acksNeeded = 1;
}

void
L3Shard::handleGetS(DirEntry &e, const Message &msg)
{
    const Addr la = lineAlign(msg.addr);
    switch (e.state) {
      case DirState::U:
        e.state = DirState::EM;
        e.owner = msg.src.tile;
        sendData(e, MsgType::DataE, msg, true);
        return;
      case DirState::S:
        addSharer(e, msg.src.tile);
        sendData(e, MsgType::DataS, msg, true);
        return;
      case DirState::EM:
        simAssert(e.owner != msg.src.tile,
                  name_ + ": owner re-requested GetS");
        sendRecalls(e, MsgType::RecallS, la, msg.trace);
        return;
    }
}

void
L3Shard::handleGetM(DirEntry &e, const Message &msg)
{
    const Addr la = lineAlign(msg.addr);
    switch (e.state) {
      case DirState::U:
        e.state = DirState::EM;
        e.owner = msg.src.tile;
        sendData(e, MsgType::DataM, msg, true);
        return;
      case DirState::S: {
        // Invalidate every sharer except the upgrading requester.
        std::uint8_t invs = 0;
        for (unsigned i = 0; i < e.numSharers; ++i) {
            const std::uint16_t t = e.sharers[i];
            if (t == msg.src.tile)
                continue;
            ++invs;
            invsSent.inc();
            sendSimple(MsgType::Inv, NodeId{t, TilePort::L2}, la, msg.trace);
        }
        if (invs == 0) {
            e.state = DirState::EM;
            e.owner = msg.src.tile;
            e.numSharers = 0;
            sendData(e, MsgType::DataM, msg, true);
            return;
        }
        e.acksNeeded = invs;
        return;
      }
      case DirState::EM:
        simAssert(e.owner != msg.src.tile,
                  name_ + ": owner re-requested GetM");
        sendRecalls(e, MsgType::RecallM, la, msg.trace);
        return;
    }
}

void
L3Shard::handleAtomic(DirEntry &e, const Message &msg)
{
    const Addr la = lineAlign(msg.addr);
    atomics.inc();
    if (e.state == DirState::EM) {
        sendRecalls(e, MsgType::RecallM, la, msg.trace);
        return;
    }
    if (e.state == DirState::S && e.numSharers != 0) {
        e.acksNeeded = e.numSharers;
        for (unsigned i = 0; i < e.numSharers; ++i) {
            invsSent.inc();
            sendSimple(MsgType::Inv, NodeId{e.sharers[i], TilePort::L2}, la,
                       msg.trace);
        }
        return;
    }
    // Uncached: execute immediately (plus L3/DRAM latency).
    std::uint64_t old =
        mem_.amo(msg.amoOp, msg.addr, msg.size, msg.value, msg.value2);
    Tick extra = arrayLatency(la);
    if (extra && msg.trace)
        msg.trace->add(LatencyTrace::Cat::FastCache, extra);
    Message resp;
    resp.type = MsgType::AtomicResp;
    resp.src = self_;
    resp.dst = msg.src;
    resp.addr = msg.addr;
    resp.value = old;
    resp.txnId = msg.txnId;
    resp.trace = msg.trace;
    clk_.eventQueue().scheduleAfter(extra, [this, resp, &e] {
        obs::profClaim("l3");
        send_(resp);
        finishTxn(e);
    });
}

void
L3Shard::handlePut(DirEntry &e, const Message &msg)
{
    const Addr la = lineAlign(msg.addr);
    if (msg.type == MsgType::PutM) {
        if (e.state == DirState::EM && e.owner == msg.src.tile) {
            e.state = DirState::U;
            // The writeback lands in the L3 (timing only; data is already
            // in functional memory).
            if (!array_.find(la)) {
                L3Line &slot = array_.victimFor(la);
                array_.install(slot, la);
            }
            memWrites.inc();
        }
        // Stale PutM (ownership already transferred): just ack.
    } else { // PutS
        if (e.state == DirState::EM && e.owner == msg.src.tile) {
            // Clean eviction of an E-state line by its owner.
            e.state = DirState::U;
        } else if (e.state == DirState::S) {
            std::uint8_t *end = e.sharers + e.numSharers;
            std::uint8_t *it = std::find(e.sharers, end, msg.src.tile);
            if (it != end) {
                std::copy(it + 1, end, it); // keep arrival order
                if (--e.numSharers == 0)
                    e.state = DirState::U;
            }
        }
    }
    sendSimple(MsgType::WbAck, msg.src, la, msg.trace);
    finishTxn(e);
}

void
L3Shard::handleTxnResp(DirEntry &e, const Message &msg)
{
    const Addr la = lineAlign(msg.addr);
    simAssert(e.busy, name_ + ": txn response while idle");
    simAssert(e.acksNeeded > 0, name_ + ": unexpected extra ack");
    --e.acksNeeded;

    if (msg.type == MsgType::RecallAckData) {
        // Secondary writeback: the dirty line lands in the L3.
        if (!array_.find(la)) {
            L3Line &slot = array_.victimFor(la);
            array_.install(slot, la);
        }
        memWrites.inc();
    }

    if (e.acksNeeded > 0)
        return;

    // All acks in: complete the pending request.
    const Message req = pool_[e.head].msg;
    const bool retained = msg.value2 == 1;
    switch (req.type) {
      case MsgType::GetS: {
        // Previous owner downgraded (retained => sharer), requester joins.
        e.numSharers = 0;
        if (retained)
            addSharer(e, e.owner);
        addSharer(e, req.src.tile);
        e.state = DirState::S;
        sendData(e, MsgType::DataS, req, false);
        break;
      }
      case MsgType::GetM: {
        e.numSharers = 0;
        e.state = DirState::EM;
        e.owner = req.src.tile;
        sendData(e, MsgType::DataM, req, false);
        break;
      }
      case MsgType::Atomic: {
        e.numSharers = 0;
        e.state = DirState::U;
        std::uint64_t old =
            mem_.amo(req.amoOp, req.addr, req.size, req.value, req.value2);
        Message resp;
        resp.type = MsgType::AtomicResp;
        resp.src = self_;
        resp.dst = req.src;
        resp.addr = req.addr;
        resp.value = old;
        resp.txnId = req.txnId;
        resp.trace = req.trace;
        send_(resp);
        finishTxn(e);
        break;
      }
      default:
        panic(name_ + ": bad pending txn type");
    }
}

void
L3Shard::finishTxn(DirEntry &e)
{
    simAssert(e.busy, name_ + ": finishing idle txn");
    e.acksNeeded = 0;
    // Retire the served request; its pool node joins the free list.
    const std::uint32_t done_node = e.head;
    const Addr la = lineAlign(pool_[done_node].msg.addr);
    e.head = pool_[done_node].next;
    pool_[done_node].next = freeNodes_;
    freeNodes_ = done_node;
    if (e.head == kNil) {
        e.tail = kNil;
        e.busy = false;
        // No private cache holds the line and no request waits for it:
        // drop the entry (@p e dangles from here on).
        if (e.state == DirState::U)
            dir_.erase(la);
        return;
    }
    // Keep the line busy while the drained request traverses the pipeline
    // so a newly arriving request cannot jump the queue.
    Tick start = startOp();
    Tick done = start + clk_.cyclesToTicks(params_.dirLatency);
    clk_.eventQueue().schedule(done, [this, &e] {
        obs::profClaim("l3");
        startTxn(e);
    });
}

} // namespace duet
