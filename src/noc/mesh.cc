#include "noc/mesh.hh"

#include "sim/logging.hh"
#include "sim/trace.hh"

namespace duet
{

const char *
msgTypeName(MsgType t)
{
    switch (t) {
      case MsgType::GetS: return "GetS";
      case MsgType::GetM: return "GetM";
      case MsgType::PutS: return "PutS";
      case MsgType::PutM: return "PutM";
      case MsgType::Atomic: return "Atomic";
      case MsgType::Inv: return "Inv";
      case MsgType::RecallS: return "RecallS";
      case MsgType::RecallM: return "RecallM";
      case MsgType::DataS: return "DataS";
      case MsgType::DataE: return "DataE";
      case MsgType::DataM: return "DataM";
      case MsgType::InvAck: return "InvAck";
      case MsgType::RecallAckData: return "RecallAckData";
      case MsgType::RecallAckClean: return "RecallAckClean";
      case MsgType::WbAck: return "WbAck";
      case MsgType::AtomicResp: return "AtomicResp";
      case MsgType::MmioRead: return "MmioRead";
      case MsgType::MmioWrite: return "MmioWrite";
      case MsgType::MmioResp: return "MmioResp";
    }
    return "?";
}

Mesh::Mesh(ClockDomain &clk, const MeshConfig &cfg)
    : clk_(clk), cfg_(cfg), numTiles_(cfg.width * cfg.height),
      routers_(cfg.width * cfg.height), sinks_(cfg.width * cfg.height)
{
    simAssert(cfg.width >= 1 && cfg.height >= 1, "mesh must be non-empty");
    // Precompute the XY routing decision for every (tile, destination)
    // pair; both step() and the express walk read the same table.
    routes_.resize(static_cast<std::size_t>(numTiles_) * numTiles_);
    for (unsigned tile = 0; tile < numTiles_; ++tile) {
        const unsigned x = xOf(tile), y = yOf(tile);
        for (unsigned dst = 0; dst < numTiles_; ++dst) {
            const unsigned dx = xOf(dst), dy = yOf(dst);
            RouteEntry &re = routes_[tile * numTiles_ + dst];
            if (dx > x) {
                re.dir = East;
                re.next = static_cast<std::uint16_t>(tileAt(x + 1, y));
            } else if (dx < x) {
                re.dir = West;
                re.next = static_cast<std::uint16_t>(tileAt(x - 1, y));
            } else if (dy > y) {
                re.dir = North;
                re.next = static_cast<std::uint16_t>(tileAt(x, y + 1));
            } else if (dy < y) {
                re.dir = South;
                re.next = static_cast<std::uint16_t>(tileAt(x, y - 1));
            } else {
                re.dir = Local;
                re.next = static_cast<std::uint16_t>(tile);
            }
        }
    }
}

void
Mesh::registerEndpoint(NodeId id, Sink sink)
{
    simAssert(id.tile < numTiles(), "endpoint tile out of range");
    auto &slot = sinks_[id.tile][static_cast<unsigned>(id.port)];
    simAssert(!slot, "endpoint registered twice");
    slot = std::move(sink);
}

Mesh::Flight &
Mesh::acquireFlight()
{
    if (freeFlights_ == nullptr) {
        flightChunks_.push_back(std::make_unique<Flight[]>(kFlightChunk));
        Flight *chunk = flightChunks_.back().get();
        for (std::size_t i = kFlightChunk; i-- > 0;) {
            chunk[i].mesh = this;
            chunk[i].nextFree = freeFlights_;
            freeFlights_ = &chunk[i];
        }
    }
    Flight &f = *freeFlights_;
    freeFlights_ = f.nextFree;
    return f;
}

void
Mesh::releaseFlight(Flight &f)
{
    f.nextFree = freeFlights_;
    freeFlights_ = &f;
}

void
Mesh::launch(Flight &f, Tick when, void (*fire)(EventQueue::Event &))
{
    f.fire = fire;
    clk_.eventQueue().post(when, f);
}

void
Mesh::onStep(EventQueue::Event &e)
{
    auto &f = static_cast<Flight &>(e);
    f.mesh->step(f);
}

void
Mesh::onArrive(EventQueue::Event &e)
{
    auto &f = static_cast<Flight &>(e);
    f.mesh->expressArrive(f);
}

void
Mesh::onDeliver(EventQueue::Event &e)
{
    auto &f = static_cast<Flight &>(e);
    f.mesh->deliver(f);
}

void
Mesh::inject(const Message &msg)
{
    simAssert(msg.src.tile < numTiles(), "source tile out of range");
    simAssert(msg.dst.tile < numTiles(), "dest tile out of range");
    Flight &f = acquireFlight();
    f.msg = msg;
    f.msg.injectTick = clk_.eventQueue().now();
    if (TraceSink *ts = obs::trace()) {
        if (ts->enabled(TraceCat::Noc)) {
            f.msg.traceId = ts->nextAsyncId();
            ts->asyncBegin(TraceCat::Noc, msgTypeName(f.msg.type),
                           f.msg.traceId, f.msg.injectTick);
        }
    }
    // An outstanding express flight loses its idle-mesh precondition the
    // moment anything else enters: put it back on the hop-by-hop path
    // *before* this message posts anything, so the resumed step event
    // keeps the earlier queue position the original chain would have had.
    if (flight_.rec != nullptr)
        deExpress();
    ++inFlight_;
    if (cfg_.express && inFlight_ == 1 && msg.src.tile != msg.dst.tile) {
        expressInject(f);
        return;
    }
    // Enter the source router at the next clock edge.
    f.tile = msg.src.tile;
    launch(f, clk_.edgeAfterCycles(0), &onStep);
}

void
Mesh::step(Flight &f)
{
    obs::profClaim("noc");
    const Tick now = clk_.eventQueue().now();

    const RouteEntry &re = route(f.tile, f.msg.dst.tile);
    if (re.dir == Local) {
        // Arrived: eject to the local port.
        launch(f,
               clk_.edgeAtOrAfter(now) + clk_.cyclesToTicks(cfg_.ejectCycles),
               &onDeliver);
        return;
    }

    // Router pipeline, then serialize flits onto the output link.
    Router &r = routers_[f.tile];
    const unsigned flits = flitsOf(f.msg.type);
    Tick ready = clk_.edgeAtOrAfter(now) +
                 clk_.cyclesToTicks(cfg_.routerCycles);
    Tick depart = std::max(ready, r.linkFree[re.dir]);
    Tick occupy = clk_.cyclesToTicks(flits);
    r.linkFree[re.dir] = depart + occupy;
    flitCycles_.inc(flits);

    f.tile = re.next;
    launch(f, depart + occupy + clk_.cyclesToTicks(cfg_.linkCycles),
           &onStep);
}

void
Mesh::expressInject(Flight &f)
{
    EventQueue &eq = clk_.eventQueue();
    const Message &msg = f.msg;
    const unsigned flits = flitsOf(msg.type);
    const Tick rc = clk_.cyclesToTicks(cfg_.routerCycles);
    const Tick lc = clk_.cyclesToTicks(cfg_.linkCycles);
    const Tick occupy = clk_.cyclesToTicks(flits);

    // Walk the route with exactly step()'s arithmetic. Every tick in the
    // walk is edge-aligned (the entry edge plus whole-cycle increments),
    // so edgeAtOrAfter() at each virtual hop is the identity and the
    // claims below equal what the per-hop events would have written.
    flight_.hops.clear();
    Tick s = clk_.edgeAtOrAfter(eq.now());
    unsigned tile = msg.src.tile;
    const unsigned dst = msg.dst.tile;
    while (tile != dst) {
        const RouteEntry &re = route(tile, dst);
        Router &r = routers_[tile];
        flight_.hops.push_back({tile, re.dir, r.linkFree[re.dir], s});
        Tick depart = std::max(s + rc, r.linkFree[re.dir]);
        r.linkFree[re.dir] = depart + occupy;
        s = depart + occupy + lc;
        tile = re.next;
    }

    flight_.rec = &f;
    flight_.accountedHops = 0;
    if (TraceSink *ts = obs::trace()) {
        if (ts->enabled(TraceCat::Noc)) {
            ts->instant(TraceCat::Noc, "mesh", "express-collapse",
                        eq.now());
        }
    }
    launch(f, s, &onArrive);
}

void
Mesh::expressArrive(Flight &f)
{
    obs::profClaim("noc");
    if (flight_.rec != &f) {
        // The flight was de-expressed after this arrival was posted.
        releaseFlight(f);
        return;
    }
    flight_.rec = nullptr;
    flitCycles_.inc((flight_.hops.size() - flight_.accountedHops) *
                    flitsOf(f.msg.type));
    // Stand-in for step() at the destination tile: eject locally. The
    // delivery event's queue position is assigned here — at the tick the
    // final hop-by-hop step would have run — so same-tick ordering
    // against unrelated events is preserved, not just the tick value.
    launch(f,
           clk_.edgeAtOrAfter(clk_.eventQueue().now()) +
               clk_.cyclesToTicks(cfg_.ejectCycles),
           &onDeliver);
}

void
Mesh::deExpress()
{
    const Tick now = clk_.eventQueue().now();
    auto &hops = flight_.hops;
    const Flight &arrival = *flight_.rec;

    // Hops whose step tick has passed (or is this very tick) already
    // "ran": their claims stand, exactly as the executed prefix of the
    // original chain would have left them.
    std::size_t k = 0;
    while (k < hops.size() && hops[k].stepTick <= now)
        ++k;
    const unsigned flits = flitsOf(arrival.msg.type);
    if (k > flight_.accountedHops) {
        flitCycles_.inc((k - flight_.accountedHops) * flits);
        flight_.accountedHops = k;
    }
    if (k == hops.size())
        return; // nothing left to unwind; the pending arrival stays exact

    if (TraceSink *ts = obs::trace()) {
        if (ts->enabled(TraceCat::Noc))
            ts->instant(TraceCat::Noc, "mesh", "de-express", now);
    }

    // Unwind the future claims. An XY route crosses each link at most
    // once, so restoring the saved pre-claim values is exact.
    for (std::size_t i = hops.size(); i-- > k;)
        routers_[hops[i].tile].linkFree[hops[i].dir] = hops[i].prevLinkFree;
    flight_.rec = nullptr; // strand the posted arrival

    // Resume the chain with the step() event the original execution
    // would have had in flight: hop k's, at hop k's tick. The stranded
    // arrival record stays queued, so the message moves to a new one.
    Flight &f = acquireFlight();
    f.msg = arrival.msg;
    f.tile = hops[k].tile;
    launch(f, hops[k].stepTick, &onStep);
}

void
Mesh::deliver(Flight &f)
{
    obs::profClaim("noc");
    const Message &msg = f.msg;
    const Sink &sink = sinks_[msg.dst.tile][static_cast<unsigned>(msg.dst.port)];
    simAssert(static_cast<bool>(sink), "message to unregistered endpoint");
    if (msg.traceId != 0) {
        if (TraceSink *ts = obs::trace()) {
            ts->asyncEnd(TraceCat::Noc, msgTypeName(msg.type), msg.traceId,
                         clk_.eventQueue().now());
        }
    }
    if (msg.trace) {
        msg.trace->add(LatencyTrace::Cat::NoC,
                       clk_.eventQueue().now() - msg.injectTick);
    }
    delivered_.inc();
    --inFlight_; // before the sink: it may inject onto the now-idle mesh
    sink(msg);
    releaseFlight(f); // the sink read msg in place
}

} // namespace duet
