/**
 * @file
 * A 2D-mesh network-on-chip with XY dimension-ordered routing.
 *
 * Model: store-and-forward routers clocked in the fast (processor) clock
 * domain. Each hop costs a fixed router pipeline delay plus link
 * serialization of one flit per cycle; each physical link is a serialized
 * resource, so contention shows up as queueing delay. XY routing plus
 * in-order event processing gives point-to-point ordered delivery per
 * (source, destination) pair — a property the Duet Proxy Cache protocol
 * relies on (paper Sec. II-C: "the asynchronous FIFOs deliver messages in
 * order").
 *
 * Express path: when the mesh is otherwise empty at inject time, the
 * per-hop step() event chain collapses into one analytic walk over the
 * precomputed XY route — every link claim (`linkFree`) is applied
 * immediately with the exact tick arithmetic step() would have used, and
 * a single arrival event stands in for the whole chain. If anything else
 * injects while the express flight is outstanding, the not-yet-executed
 * claims are unwound and the flight resumes on the hop-by-hop path at
 * the hop it had reached, so queueing delay, flit-cycle totals, ordering
 * and final ticks are identical to the chain it replaced (the event
 * *count* is smaller; the tracked bench reference carries that).
 *
 * Flights: an in-flight message lives in a Flight record from the mesh's
 * own pool, which is posted to the event queue (EventQueue::post) for
 * each hop, arrival and delivery, so a hop copies no Message and claims
 * no slab slot. A record returns to the pool once its sink has returned.
 */

#ifndef DUET_NOC_MESH_HH
#define DUET_NOC_MESH_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "noc/message.hh"
#include "sim/clock.hh"
#include "sim/inline_function.hh"
#include "sim/stats.hh"

namespace duet
{

/** Mesh configuration knobs. */
struct MeshConfig
{
    unsigned width = 2;         ///< columns
    unsigned height = 1;        ///< rows
    Cycles routerCycles = 2;    ///< per-hop pipeline latency
    Cycles linkCycles = 1;      ///< per-hop wire latency
    Cycles ejectCycles = 1;     ///< local ejection latency
    bool express = true;        ///< single-event delivery on an idle mesh
};

/**
 * The mesh fabric. Endpoints register per-(tile, port) sinks; anyone holding
 * the mesh may inject messages from a registered source.
 */
class Mesh
{
  public:
    using Sink = InlineFunction<void(const Message &), 32>;

    Mesh(ClockDomain &clk, const MeshConfig &cfg);

    /** Register the receive callback for an endpoint. */
    void registerEndpoint(NodeId id, Sink sink);

    /**
     * Inject @p msg at its source tile. Delivery is asynchronous; the
     * destination sink runs at a later tick.
     */
    void inject(const Message &msg);

    unsigned numTiles() const { return numTiles_; }
    const MeshConfig &config() const { return cfg_; }

    /** Total messages delivered. */
    const Counter &delivered() const { return delivered_; }
    /** Total flit-cycles of link occupancy (for utilization stats). */
    const Counter &flitCycles() const { return flitCycles_; }

    /** Messages injected but not yet delivered (test/debug helper). */
    unsigned inFlight() const { return inFlight_; }

    /** Flight records the pool has carved so far (test helper). */
    std::size_t
    flightRecords() const
    {
        return flightChunks_.size() * kFlightChunk;
    }

  private:
    /** Output directions from a router. */
    enum Dir : unsigned { East = 0, West = 1, North = 2, South = 3,
                          Local = 4, kNumDirs = 5 };

    struct Router
    {
        /** Earliest tick each output link is free. */
        std::array<Tick, kNumDirs> linkFree{};
    };

    /** One precomputed XY routing decision: from a tile toward a
     *  destination, which output to take and where it lands. */
    struct RouteEntry
    {
        std::uint16_t next; ///< downstream tile (self when dir == Local)
        std::uint8_t dir;   ///< Dir; Local means eject here
    };

    /** One link claim made by an express walk, kept so an interrupted
     *  flight can be unwound exactly. */
    struct ExpressHop
    {
        std::uint32_t tile;
        std::uint32_t dir;
        Tick prevLinkFree; ///< linkFree[dir] before this claim
        Tick stepTick;     ///< tick step() would have run at this tile
    };

    /** One in-flight message, posted to the event queue at each of its
     *  hops. Pointer-stable: the queue holds its address while it is
     *  pending. */
    struct Flight : EventQueue::Event
    {
        Mesh *mesh = nullptr;
        Message msg{};
        unsigned tile = 0;           ///< router the next step() runs at
        Flight *nextFree = nullptr;  ///< pool free-list link
    };

    unsigned xOf(unsigned tile) const { return tile % cfg_.width; }
    unsigned yOf(unsigned tile) const { return tile / cfg_.width; }
    unsigned tileAt(unsigned x, unsigned y) const
    {
        return y * cfg_.width + x;
    }

    const RouteEntry &route(unsigned tile, unsigned dst) const
    {
        return routes_[tile * numTiles_ + dst];
    }

    /** Take a record from the pool (LIFO), carving a chunk if empty. */
    Flight &acquireFlight();
    /** Return @p f to the pool. */
    void releaseFlight(Flight &f);
    /** Post @p f to run @p fire at @p when. */
    void launch(Flight &f, Tick when, void (*fire)(EventQueue::Event &));

    /// @{ The posted flight's fire functions.
    static void onStep(EventQueue::Event &e);
    static void onArrive(EventQueue::Event &e);
    static void onDeliver(EventQueue::Event &e);
    /// @}

    /** Process @p f at router @p f.tile at the current tick. */
    void step(Flight &f);

    /** Deliver @p f's message to its registered local sink, then
     *  recycle the record. */
    void deliver(Flight &f);

    /** Claim the whole route now and post the single arrival. */
    void expressInject(Flight &f);

    /** The express flight's stand-in for the final-hop step(). */
    void expressArrive(Flight &f);

    /** Unwind the outstanding express flight's future claims and resume
     *  it hop-by-hop (called before a competing inject proceeds). */
    void deExpress();

    ClockDomain &clk_;
    MeshConfig cfg_;
    unsigned numTiles_;
    std::vector<Router> routers_;
    std::vector<RouteEntry> routes_; ///< [tile * numTiles_ + dst]
    // sinks_[tile][port]
    std::vector<std::array<Sink, 4>> sinks_;
    unsigned inFlight_ = 0;

    /// Flight pool: chunks never move, so a pending record's address
    /// stays valid while the pool grows. One chunk holds the peak of
    /// every 4- and 8-core benchmark row (at most 8 in flight); 16-core
    /// bfs peaks at 29 and carves a second.
    static constexpr std::size_t kFlightChunk = 16;
    std::vector<std::unique_ptr<Flight[]>> flightChunks_;
    Flight *freeFlights_ = nullptr;

    // At most one express flight can exist: express requires an empty
    // mesh, and any later inject either de-expresses it or rides the
    // hop-by-hop path.
    struct ExpressFlight
    {
        /// The outstanding express flight's record, or null. A posted
        /// arrival whose record is not this one was stranded by
        /// deExpress() and only recycles itself.
        Flight *rec = nullptr;
        std::size_t accountedHops = 0; ///< hops whose flits are counted
        std::vector<ExpressHop> hops;
    };
    ExpressFlight flight_;

    Counter delivered_;
    Counter flitCycles_;
};

} // namespace duet

#endif // DUET_NOC_MESH_HH
