#include "cache/private_cache.hh"

#include <optional>

#include "sim/logging.hh"
#include "sim/trace.hh"

namespace duet
{

PrivateCache::PrivateCache(ClockDomain &clk, std::string name,
                           const PrivateCacheParams &params,
                           FunctionalMemory &mem, NodeId self,
                           HomeFn home_of,
                           LatencyTrace::Cat domain_cat)
    : clk_(clk), name_(std::move(name)), params_(params), mem_(mem),
      self_(self), homeOf_(std::move(home_of)), domainCat_(domain_cat),
      array_(params.sizeBytes / kLineBytes / params.ways, params.ways),
      mshrs_(params.mshrs)
{
}

void
PrivateCache::registerStats(StatRegistry &reg) const
{
    reg.registerCounter(name_ + ".hits", &hits);
    reg.registerCounter(name_ + ".misses", &misses);
    reg.registerCounter(name_ + ".evictions", &evictions);
    reg.registerCounter(name_ + ".invsReceived", &invsReceived);
    reg.registerCounter(name_ + ".recallsReceived", &recallsReceived);
    reg.registerCounter(name_ + ".spuriousInvs", &spuriousInvs);
    reg.registerCounter(name_ + ".writebacks", &writebacks);
    reg.registerCounter(name_ + ".amosForwarded", &amosForwarded);
}

Tick
PrivateCache::startOp()
{
    Tick start = std::max(clk_.nextEdge(), busyUntil_);
    busyUntil_ = start + clk_.period(); // pipelined: one op per cycle
    return start;
}

void
PrivateCache::addTrace(LatencyTrace *t, Cycles cycles) const
{
    if (t)
        t->add(domainCat_, clk_.cyclesToTicks(cycles));
}

LineState
PrivateCache::stateOf(Addr addr) const
{
    const PrivateLine *l = array_.peek(lineAlign(addr));
    return l ? l->state : LineState::I;
}

void
PrivateCache::request(CacheReq req)
{
    simAssert(req.size <= params_.maxStoreBytes || req.kind == CacheReq::Kind::Load,
              name_ + ": store wider than the cache's store port");
    Tick arrival = clk_.eventQueue().now();
    Tick start = startOp();
    Tick done = start + clk_.cyclesToTicks(params_.hitLatency);
    clk_.eventQueue().schedule(done,
                               [this, req = std::move(req), arrival]() mutable {
                                   process(std::move(req), arrival);
                               });
}

void
PrivateCache::completeLoad(const CacheReq &req)
{
    std::uint64_t v = mem_.read(req.addr, req.size);
    if (req.done)
        req.done(v);
}

void
PrivateCache::completeStore(const CacheReq &req, PrivateLine &line)
{
    line.state = LineState::M;
    line.dirty = true;
    mem_.write(req.addr, req.size, req.wdata);
    if (req.done)
        req.done(0);
}

void
PrivateCache::process(CacheReq req, Tick arrival)
{
    obs::profClaim("cache");
    const Addr la = lineAlign(req.addr);

    // Attribute local pipeline time (queueing + hit latency) to this
    // cache's clock-domain category.
    if (req.trace)
        req.trace->add(domainCat_, clk_.eventQueue().now() - arrival);

    if (req.kind == CacheReq::Kind::Amo) {
        // Atomics execute at the home directory after global invalidation.
        std::uint32_t id = nextTxnId_++;
        amosForwarded.inc();
        Message m;
        m.type = MsgType::Atomic;
        m.src = self_;
        m.dst = homeOf_(la);
        m.addr = req.addr;
        m.value = req.wdata;
        m.value2 = req.wdata2;
        m.size = static_cast<std::uint8_t>(req.size);
        m.amoOp = req.amoOp;
        m.txnId = id;
        m.trace = req.trace;
        // Park the request (it is move-only now — the message above was
        // built from it first) until the AtomicResp comes back.
        outstandingAmos_.insert(id, std::move(req));
        send_(m);
        return;
    }

    PrivateLine *line = array_.find(la);
    const bool is_store = req.kind == CacheReq::Kind::Store;

    if (line) {
        if (!is_store) {
            hits.inc();
            completeLoad(req);
            return;
        }
        if (line->state == LineState::E || line->state == LineState::M) {
            hits.inc();
            line->meta = req.lineMeta ? req.lineMeta : line->meta;
            completeStore(req, *line);
            return;
        }
        // Store hit in S: upgrade via GetM (fall through to miss path).
    }

    // Miss (or upgrade). Coalesce into an existing MSHR if present.
    if (Mshr *m = findMshr(la)) {
        m->waiting.push_back(std::move(req));
        return;
    }
    if (mshrsBusy_ >= params_.mshrs) {
        stalled_.push_back(std::move(req));
        return;
    }

    misses.inc();
    if (TraceSink *ts = obs::trace()) {
        if (ts->enabled(TraceCat::Cache)) {
            ts->instant(TraceCat::Cache, name_,
                        is_store ? "miss-getm" : "miss-gets",
                        clk_.eventQueue().now());
        }
    }
    Mshr &mshr = *findMshr(kNoLine); // a free slot
    mshr.line = la;
    ++mshrsBusy_;
    mshr.waiting.push_back(std::move(req));
    sendToHome(is_store ? MsgType::GetM : MsgType::GetS, la,
               mshr.waiting.back().trace);
}

void
PrivateCache::sendToHome(MsgType t, Addr line_addr, LatencyTrace *trace,
                         std::uint64_t value)
{
    Message m;
    m.type = t;
    m.src = self_;
    m.dst = homeOf_(line_addr);
    m.addr = line_addr;
    m.value = value;
    m.trace = trace;
    send_(m);
}

void
PrivateCache::evictLine(PrivateLine &line)
{
    evictions.inc();
    if (invHook_)
        invHook_(line.addr, line.meta);
    evictBuf_[line.addr] = EvictEntry{line.dirty, line.meta};
    if (line.dirty) {
        writebacks.inc();
        sendToHome(MsgType::PutM, line.addr, nullptr);
    } else {
        sendToHome(MsgType::PutS, line.addr, nullptr);
    }
    array_.invalidate(line);
}

void
PrivateCache::receive(const Message &msg)
{
    Tick start = startOp();
    Tick done = start + clk_.cyclesToTicks(params_.hitLatency);
    Tick arrival = clk_.eventQueue().now();
    clk_.eventQueue().schedule(done, [this, msg, arrival] {
        obs::profClaim("cache");
        if (msg.trace) {
            msg.trace->add(domainCat_,
                           clk_.eventQueue().now() - arrival);
        }
        handle(msg);
    });
}

void
PrivateCache::handle(const Message &msg)
{
    const Addr la = lineAlign(msg.addr);
    switch (msg.type) {
      case MsgType::Inv: {
        invsReceived.inc();
        PrivateLine *line = array_.find(la);
        Message ack;
        ack.type = MsgType::InvAck;
        ack.src = self_;
        ack.dst = msg.src;
        ack.addr = la;
        ack.trace = msg.trace;
        if (line) {
            if (invHook_)
                invHook_(la, line->meta);
            array_.invalidate(*line);
        } else if (!evictBuf_.contains(la)) {
            spuriousInvs.inc();
        }
        send_(ack);
        return;
      }

      case MsgType::RecallS:
      case MsgType::RecallM: {
        recallsReceived.inc();
        PrivateLine *line = array_.find(la);
        Message ack;
        ack.src = self_;
        ack.dst = msg.src;
        ack.addr = la;
        ack.trace = msg.trace;
        bool dirty = false;
        bool retained = false;
        if (line) {
            dirty = line->dirty;
            if (msg.type == MsgType::RecallS) {
                line->state = LineState::S;
                line->dirty = false;
                retained = true;
            } else {
                if (invHook_)
                    invHook_(la, line->meta);
                array_.invalidate(*line);
            }
        } else {
            if (const EvictEntry *ev = evictBuf_.find(la))
                dirty = ev->dirty;
            // Line already gone; never retained.
        }
        ack.type = dirty ? MsgType::RecallAckData : MsgType::RecallAckClean;
        ack.value2 = retained ? 1 : 0;
        send_(ack);
        return;
      }

      case MsgType::DataS:
      case MsgType::DataE:
      case MsgType::DataM:
        fill(msg);
        return;

      case MsgType::WbAck:
        evictBuf_.take(la);
        return;

      case MsgType::AtomicResp: {
        std::optional<CacheReq> req = outstandingAmos_.take(msg.txnId);
        simAssert(req.has_value(), name_ + ": AtomicResp for unknown txn");
        if (req->done)
            req->done(msg.value);
        return;
      }

      default:
        panic(name_ + ": unexpected message " + msgTypeName(msg.type));
    }
}

void
PrivateCache::fill(const Message &msg)
{
    if (TraceSink *ts = obs::trace()) {
        if (ts->enabled(TraceCat::Cache)) {
            ts->instant(TraceCat::Cache, name_, "fill",
                        clk_.eventQueue().now());
        }
    }
    const Addr la = lineAlign(msg.addr);
    Mshr *mshr = findMshr(la);
    simAssert(mshr != nullptr, name_ + ": fill without MSHR");
    std::vector<CacheReq> &waiting = mshr->waiting;

    // Upgrade in place if the line is already resident (S -> M); otherwise
    // allocate on fill, evicting the victim if valid.
    PrivateLine *existing = array_.find(la);
    PrivateLine *slotp = existing;
    if (!existing) {
        PrivateLine &slot = array_.victimFor(la);
        if (slot.valid)
            evictLine(slot);
        array_.install(slot, la);
        slotp = &slot;
    }
    switch (msg.type) {
      case MsgType::DataS: slotp->state = LineState::S; break;
      case MsgType::DataE: slotp->state = LineState::E; break;
      case MsgType::DataM: slotp->state = LineState::M; break;
      default: panic("bad fill type");
    }
    slotp->dirty = false;
    if (!waiting.empty() && waiting.front().lineMeta)
        slotp->meta = waiting.front().lineMeta;

    // Complete / replay the waiting requests in order. Loads and stores
    // that now hit complete immediately (their latency was already paid);
    // a store after an S fill re-enters as an upgrade.
    for (CacheReq &req : waiting) {
        PrivateLine *line = array_.find(la);
        if (!line) {
            // The line was stolen by a replayed store's upgrade path (it
            // cannot be: upgrades keep the line). Defensive re-request.
            request(std::move(req));
            continue;
        }
        if (req.kind == CacheReq::Kind::Load) {
            completeLoad(req);
        } else if (line->state == LineState::E ||
                   line->state == LineState::M) {
            line->meta = req.lineMeta ? req.lineMeta : line->meta;
            completeStore(req, *line);
        } else {
            request(std::move(req)); // upgrade S->M
        }
    }
    // Free the slot only now: the loop above only schedules (request()
    // and the waiters' continuations never re-enter process()), and
    // clear() keeps the vector's capacity for the slot's next miss.
    waiting.clear();
    mshr->line = kNoLine;
    --mshrsBusy_;
    replayPending();
}

void
PrivateCache::replayPending()
{
    // Re-dispatch every stalled request; whatever still cannot allocate
    // an MSHR re-stalls (the pipeline serializes them at one per cycle).
    replayScratch_.swap(stalled_);
    for (CacheReq &r : replayScratch_)
        request(std::move(r));
    replayScratch_.clear();
}

PrivateCache::Mshr *
PrivateCache::findMshr(Addr line_addr)
{
    for (Mshr &m : mshrs_)
        if (m.line == line_addr)
            return &m;
    return nullptr;
}

} // namespace duet
