#include "cache/l3_shard.hh"

#include <algorithm>

#include "sim/logging.hh"

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

L3Shard::DirMap::DirMap()
    : slots_(1024, {kEmpty, 0}), mask_(slots_.size() - 1)
{
}

std::size_t
L3Shard::DirMap::slotOf(Addr la) const
{
    // Fibonacci multiply-shift over the line number; the high product
    // bits spread the sequential line addresses workloads generate.
    const std::uint64_t h = (la >> 6) * 0x9E3779B97F4A7C15ull;
    return static_cast<std::size_t>(h >> 32) & mask_;
}

void
L3Shard::DirMap::grow()
{
    std::vector<std::pair<Addr, std::uint32_t>> old(slots_.size() * 2,
                                                    {kEmpty, 0});
    old.swap(slots_);
    mask_ = slots_.size() - 1;
    for (const auto &[key, idx] : old) {
        if (key == kEmpty)
            continue;
        std::size_t s = slotOf(key);
        while (slots_[s].first != kEmpty)
            s = (s + 1) & mask_;
        slots_[s] = {key, idx};
    }
}

L3Shard::DirEntry &
L3Shard::DirMap::operator[](Addr la)
{
    std::size_t s = slotOf(la);
    while (slots_[s].first != kEmpty) {
        if (slots_[s].first == la)
            return entries_[slots_[s].second];
        s = (s + 1) & mask_;
    }
    // Miss: create. Grow first at 1/2 load so probe runs stay short
    // (the insertion slot may move, so re-probe after).
    if (entries_.size() * 2 >= slots_.size()) {
        grow();
        s = slotOf(la);
        while (slots_[s].first != kEmpty)
            s = (s + 1) & mask_;
    }
    slots_[s] = {la, static_cast<std::uint32_t>(entries_.size())};
    return entries_.emplace_back();
}

const L3Shard::DirEntry *
L3Shard::DirMap::find(Addr la) const
{
    std::size_t s = slotOf(la);
    while (slots_[s].first != kEmpty) {
        if (slots_[s].first == la)
            return &entries_[slots_[s].second];
        s = (s + 1) & mask_;
    }
    return nullptr;
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
    return e->sharers;
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
        if (msg.trace) {
            msg.trace->add(LatencyTrace::Cat::FastCache,
                           clk_.eventQueue().now() - arrival);
        }
        const Addr la = lineAlign(msg.addr);
        DirEntry &e = dir_[la];
        switch (msg.type) {
          case MsgType::InvAck:
          case MsgType::RecallAckData:
          case MsgType::RecallAckClean:
            handleTxnResp(e, msg);
            return;
          default:
            break;
        }
        // A new request: queue it if the line is mid-transaction.
        if (e.busy) {
            e.pending.push_back(msg);
            return;
        }
        startTxn(msg);
    });
}

void
L3Shard::startTxn(const Message &msg)
{
    const Addr la = lineAlign(msg.addr);
    DirEntry &e = dir_[la];
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
L3Shard::sendData(MsgType t, const Message &req, bool from_mem_path)
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
    clk_.eventQueue().scheduleAfter(extra, [this, m, la] {
        send_(m);
        finishTxn(dir_[la], la);
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
        sendData(MsgType::DataE, msg, true);
        return;
      case DirState::S:
        e.sharers.push_back(msg.src.tile);
        sendData(MsgType::DataS, msg, true);
        return;
      case DirState::EM:
        simAssert(e.owner != msg.src.tile,
                  name_ + ": owner re-requested GetS");
        e.cur = msg;
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
        sendData(MsgType::DataM, msg, true);
        return;
      case DirState::S: {
        // Invalidate every sharer except the upgrading requester.
        std::vector<std::uint16_t> to_inv;
        for (std::uint16_t t : e.sharers)
            if (t != msg.src.tile)
                to_inv.push_back(t);
        if (to_inv.empty()) {
            e.state = DirState::EM;
            e.owner = msg.src.tile;
            e.sharers.clear();
            sendData(MsgType::DataM, msg, true);
            return;
        }
        e.cur = msg;
        e.acksNeeded = static_cast<unsigned>(to_inv.size());
        for (std::uint16_t t : to_inv) {
            invsSent.inc();
            sendSimple(MsgType::Inv, NodeId{t, TilePort::L2}, la, msg.trace);
        }
        return;
      }
      case DirState::EM:
        simAssert(e.owner != msg.src.tile,
                  name_ + ": owner re-requested GetM");
        e.cur = msg;
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
        e.cur = msg;
        sendRecalls(e, MsgType::RecallM, la, msg.trace);
        return;
    }
    if (e.state == DirState::S && !e.sharers.empty()) {
        e.cur = msg;
        e.acksNeeded = static_cast<unsigned>(e.sharers.size());
        for (std::uint16_t t : e.sharers) {
            invsSent.inc();
            sendSimple(MsgType::Inv, NodeId{t, TilePort::L2}, la, msg.trace);
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
    clk_.eventQueue().scheduleAfter(extra, [this, resp, la] {
        send_(resp);
        finishTxn(dir_[la], la);
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
            auto it = std::find(e.sharers.begin(), e.sharers.end(),
                                msg.src.tile);
            if (it != e.sharers.end()) {
                e.sharers.erase(it);
                if (e.sharers.empty())
                    e.state = DirState::U;
            }
        }
    }
    sendSimple(MsgType::WbAck, msg.src, la, msg.trace);
    finishTxn(e, la);
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
    const Message req = e.cur;
    const bool retained = msg.value2 == 1;
    switch (req.type) {
      case MsgType::GetS: {
        // Previous owner downgraded (retained => sharer), requester joins.
        std::uint16_t old_owner = e.owner;
        e.sharers.clear();
        if (retained)
            e.sharers.push_back(old_owner);
        e.sharers.push_back(req.src.tile);
        e.state = DirState::S;
        sendData(MsgType::DataS, req, false);
        break;
      }
      case MsgType::GetM: {
        e.sharers.clear();
        e.state = DirState::EM;
        e.owner = req.src.tile;
        sendData(MsgType::DataM, req, false);
        break;
      }
      case MsgType::Atomic: {
        e.sharers.clear();
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
        finishTxn(e, la);
        break;
      }
      default:
        panic(name_ + ": bad pending txn type");
    }
}

void
L3Shard::finishTxn(DirEntry &e, Addr line_addr)
{
    simAssert(e.busy, name_ + ": finishing idle txn");
    e.acksNeeded = 0;
    if (e.pending.empty()) {
        e.busy = false;
        return;
    }
    // Keep the line busy while the drained request traverses the pipeline
    // so a newly arriving request cannot jump the queue.
    Message next = e.pending.front();
    e.pending.pop_front();
    Tick start = startOp();
    Tick done = start + clk_.cyclesToTicks(params_.dirLatency);
    clk_.eventQueue().schedule(done, [this, next, line_addr] {
        dir_[line_addr].busy = false;
        startTxn(next);
    });
}

} // namespace duet
