/**
 * @file
 * Unit tests for the 2D-mesh NoC: routing, latency, ordering, contention,
 * and latency-trace attribution.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <tuple>
#include <utility>
#include <vector>

#include "noc/mesh.hh"
#include "sim/event_queue.hh"

namespace duet
{
namespace
{

struct MeshFixture : public ::testing::Test
{
    EventQueue eq;
    ClockDomain clk{eq, "sys", 1000}; // 1 GHz
};

Message
mkMsg(MsgType t, unsigned src_tile, unsigned dst_tile)
{
    Message m;
    m.type = t;
    m.src = {static_cast<std::uint16_t>(src_tile), TilePort::L2};
    m.dst = {static_cast<std::uint16_t>(dst_tile), TilePort::L3};
    return m;
}

TEST_F(MeshFixture, DeliversToRegisteredSink)
{
    Mesh mesh(clk, MeshConfig{2, 1});
    std::vector<Message> got;
    mesh.registerEndpoint({1, TilePort::L3},
                          [&](const Message &m) { got.push_back(m); });
    mesh.inject(mkMsg(MsgType::GetS, 0, 1));
    eq.run();
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].type, MsgType::GetS);
    EXPECT_EQ(mesh.delivered().value(), 1u);
}

TEST_F(MeshFixture, LocalDeliveryWithinTile)
{
    Mesh mesh(clk, MeshConfig{2, 2});
    Tick when = 0;
    mesh.registerEndpoint({0, TilePort::L3},
                          [&](const Message &) { when = eq.now(); });
    mesh.inject(mkMsg(MsgType::GetS, 0, 0));
    eq.run();
    // Same tile: just the ejection latency (1 cycle).
    EXPECT_EQ(when, 1000u);
}

TEST_F(MeshFixture, OneHopLatency)
{
    MeshConfig cfg{2, 1};
    Mesh mesh(clk, cfg);
    Tick when = 0;
    mesh.registerEndpoint({1, TilePort::L3},
                          [&](const Message &) { when = eq.now(); });
    mesh.inject(mkMsg(MsgType::GetS, 0, 1)); // 1 flit
    eq.run();
    // router(2) + serialize(1) + link(1) + eject(1) = 5 cycles.
    EXPECT_EQ(when, 5000u);
}

TEST_F(MeshFixture, DataMessagesSerializeMoreFlits)
{
    Mesh mesh(clk, MeshConfig{2, 1});
    Tick when = 0;
    mesh.registerEndpoint({1, TilePort::L3},
                          [&](const Message &) { when = eq.now(); });
    mesh.inject(mkMsg(MsgType::DataM, 0, 1)); // 3 flits
    eq.run();
    // router(2) + serialize(3) + link(1) + eject(1) = 7 cycles.
    EXPECT_EQ(when, 7000u);
}

TEST_F(MeshFixture, XYRoutingHopCount)
{
    // 4x4 mesh, corner to corner: 3 X hops + 3 Y hops.
    Mesh mesh(clk, MeshConfig{4, 4});
    Tick when = 0;
    mesh.registerEndpoint({15, TilePort::L3},
                          [&](const Message &) { when = eq.now(); });
    mesh.inject(mkMsg(MsgType::GetS, 0, 15));
    eq.run();
    // 6 hops * (2 router + 1 serialize + 1 link) + 1 eject = 25 cycles.
    EXPECT_EQ(when, 25'000u);
}

TEST_F(MeshFixture, PointToPointOrderingPreserved)
{
    Mesh mesh(clk, MeshConfig{4, 1});
    std::vector<std::uint32_t> order;
    mesh.registerEndpoint({3, TilePort::L3}, [&](const Message &m) {
        order.push_back(m.txnId);
    });
    for (std::uint32_t i = 0; i < 8; ++i) {
        auto m = mkMsg(i % 2 ? MsgType::DataM : MsgType::GetS, 0, 3);
        m.txnId = i;
        mesh.inject(m);
    }
    eq.run();
    ASSERT_EQ(order.size(), 8u);
    for (std::uint32_t i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST_F(MeshFixture, LinkContentionAddsQueueingDelay)
{
    Mesh mesh(clk, MeshConfig{2, 1});
    std::vector<Tick> arrivals;
    mesh.registerEndpoint({1, TilePort::L3}, [&](const Message &) {
        arrivals.push_back(eq.now());
    });
    // Two 3-flit messages injected back to back from the same tile.
    mesh.inject(mkMsg(MsgType::DataM, 0, 1));
    mesh.inject(mkMsg(MsgType::DataM, 0, 1));
    eq.run();
    ASSERT_EQ(arrivals.size(), 2u);
    // Second message waits for the first's 3 flits on the link.
    EXPECT_EQ(arrivals[1] - arrivals[0], 3000u);
}

TEST_F(MeshFixture, IndependentLinksDoNotContend)
{
    Mesh mesh(clk, MeshConfig{3, 1});
    std::vector<Tick> arrivals(2, 0);
    mesh.registerEndpoint({0, TilePort::L3}, [&](const Message &) {
        arrivals[0] = eq.now();
    });
    mesh.registerEndpoint({2, TilePort::L3}, [&](const Message &) {
        arrivals[1] = eq.now();
    });
    // Tile 1 sends west and east simultaneously: different links.
    mesh.inject(mkMsg(MsgType::DataM, 1, 0));
    mesh.inject(mkMsg(MsgType::DataM, 1, 2));
    eq.run();
    EXPECT_EQ(arrivals[0], arrivals[1]);
}

TEST_F(MeshFixture, TraceAccumulatesNocLatency)
{
    Mesh mesh(clk, MeshConfig{2, 1});
    LatencyTrace trace;
    mesh.registerEndpoint({1, TilePort::L3}, [&](const Message &) {});
    auto m = mkMsg(MsgType::GetS, 0, 1);
    m.trace = &trace;
    mesh.inject(m);
    eq.run();
    EXPECT_EQ(trace.get(LatencyTrace::Cat::NoC), 5000u);
    EXPECT_EQ(trace.get(LatencyTrace::Cat::Cdc), 0u);
}

TEST_F(MeshFixture, MultipleEndpointsPerTile)
{
    Mesh mesh(clk, MeshConfig{2, 1});
    int l2_hits = 0, l3_hits = 0;
    mesh.registerEndpoint({1, TilePort::L2},
                          [&](const Message &) { ++l2_hits; });
    mesh.registerEndpoint({1, TilePort::L3},
                          [&](const Message &) { ++l3_hits; });
    auto a = mkMsg(MsgType::GetS, 0, 1);
    a.dst.port = TilePort::L2;
    auto b = mkMsg(MsgType::GetS, 0, 1);
    b.dst.port = TilePort::L3;
    mesh.inject(a);
    mesh.inject(b);
    eq.run();
    EXPECT_EQ(l2_hits, 1);
    EXPECT_EQ(l3_hits, 1);
}

TEST_F(MeshFixture, VNetClassification)
{
    EXPECT_EQ(vnetOf(MsgType::GetS), VNet::Req);
    EXPECT_EQ(vnetOf(MsgType::GetM), VNet::Req);
    EXPECT_EQ(vnetOf(MsgType::Atomic), VNet::Req);
    EXPECT_EQ(vnetOf(MsgType::MmioRead), VNet::Req);
    EXPECT_EQ(vnetOf(MsgType::Inv), VNet::Fwd);
    EXPECT_EQ(vnetOf(MsgType::RecallM), VNet::Fwd);
    EXPECT_EQ(vnetOf(MsgType::DataS), VNet::Resp);
    EXPECT_EQ(vnetOf(MsgType::InvAck), VNet::Resp);
    EXPECT_EQ(vnetOf(MsgType::MmioResp), VNet::Resp);
}

TEST_F(MeshFixture, FlitSizes)
{
    EXPECT_EQ(flitsOf(MsgType::GetS), 1u);
    EXPECT_EQ(flitsOf(MsgType::Inv), 1u);
    EXPECT_EQ(flitsOf(MsgType::DataM), 3u);   // 16B line = 2 flits + header
    EXPECT_EQ(flitsOf(MsgType::PutM), 3u);
    EXPECT_EQ(flitsOf(MsgType::MmioWrite), 2u);
}

TEST_F(MeshFixture, InjectStormPreservesPerPairOrdering)
{
    // A seeded pseudo-random storm: bursts from random sources to random
    // destinations at staggered ticks, heavy enough to exercise link
    // queueing, express interruption, and same-tick bursts. XY routing
    // plus in-order event processing must keep every (src, dst) stream
    // in injection order regardless of everything else in flight.
    Mesh mesh(clk, MeshConfig{4, 4});
    std::map<std::pair<unsigned, unsigned>, std::vector<std::uint32_t>>
        got;
    for (unsigned t = 0; t < 16; ++t) {
        mesh.registerEndpoint(
            {static_cast<std::uint16_t>(t), TilePort::L3},
            [&got, t](const Message &m) {
                got[{m.src.tile, t}].push_back(m.txnId);
            });
    }
    std::mt19937 rng(0xd0e7'5eedu);
    std::uniform_int_distribution<unsigned> tile(0, 15);
    std::uniform_int_distribution<unsigned> gap(0, 30);
    std::map<std::pair<unsigned, unsigned>, std::uint32_t> next_txn;
    Tick when = 0;
    for (unsigned i = 0; i < 400; ++i) {
        const unsigned src = tile(rng);
        const unsigned dst = tile(rng);
        auto m = mkMsg(i % 3 ? MsgType::GetS : MsgType::DataM, src, dst);
        m.txnId = next_txn[{src, dst}]++;
        when += clk.cyclesToTicks(gap(rng));
        eq.schedule(when, [&mesh, m] { mesh.inject(m); });
    }
    eq.run();
    std::size_t delivered = 0;
    for (const auto &[pair, txns] : got) {
        delivered += txns.size();
        EXPECT_EQ(txns.size(), next_txn[pair]);
        for (std::uint32_t i = 0; i < txns.size(); ++i)
            EXPECT_EQ(txns[i], i) << "pair " << pair.first << "->"
                                  << pair.second;
    }
    EXPECT_EQ(delivered, 400u);
    EXPECT_EQ(mesh.delivered().value(), 400u);
    EXPECT_EQ(mesh.inFlight(), 0u);
}

TEST_F(MeshFixture, FlitCycleAccountingPerLinkHop)
{
    // flitCycles counts link occupancy: flits x link-serializing hops.
    // Local delivery never touches a link, and the express path must
    // account exactly what the hop-by-hop chain would have.
    Mesh mesh(clk, MeshConfig{4, 4});
    for (unsigned t = 0; t < 16; ++t)
        mesh.registerEndpoint({static_cast<std::uint16_t>(t),
                               TilePort::L3},
                              [](const Message &) {});
    mesh.inject(mkMsg(MsgType::DataM, 0, 15)); // 3 flits, 6 link hops
    eq.run();
    EXPECT_EQ(mesh.flitCycles().value(), 18u);
    mesh.inject(mkMsg(MsgType::GetS, 0, 3)); // 1 flit, 3 link hops
    eq.run();
    EXPECT_EQ(mesh.flitCycles().value(), 21u);
    mesh.inject(mkMsg(MsgType::DataM, 5, 5)); // local: no link occupancy
    eq.run();
    EXPECT_EQ(mesh.flitCycles().value(), 21u);
}

/** A self-contained mesh stack for cross-configuration comparisons. */
struct Net
{
    EventQueue eq;
    ClockDomain clk{eq, "sys", 1000};
    Mesh mesh;
    /// (arrival tick, destination tile, txnId), in delivery order.
    std::vector<std::tuple<Tick, unsigned, std::uint32_t>> arrivals;

    explicit Net(bool express) : mesh(clk, MeshConfig{4, 4, 2, 1, 1,
                                                      express})
    {
        for (unsigned t = 0; t < 16; ++t) {
            mesh.registerEndpoint(
                {static_cast<std::uint16_t>(t), TilePort::L3},
                [this, t](const Message &m) {
                    arrivals.emplace_back(eq.now(), t, m.txnId);
                });
        }
    }
};

TEST_F(MeshFixture, ExpressMatchesHopByHopUnderContention)
{
    // The express path is a pure event-count optimization: the same
    // traffic on an express and a hop-by-hop mesh must produce the same
    // arrival ticks, order, and flit-cycle totals — with fewer events.
    // The plan mixes idle singles (express engages and completes),
    // same-tick bursts (express never engages), and injections timed to
    // land mid-flight (express engages, then de-expresses).
    struct Planned
    {
        Tick when;
        Message msg;
    };
    std::vector<Planned> plan;
    std::mt19937 rng(20260808u);
    std::uniform_int_distribution<unsigned> tile(0, 15);
    std::uniform_int_distribution<unsigned> burst(1, 3);
    std::uniform_int_distribution<unsigned> gap(0, 40);
    Tick when = 0;
    std::uint32_t txn = 0;
    for (unsigned i = 0; i < 120; ++i) {
        when += clk.cyclesToTicks(gap(rng));
        const unsigned n = burst(rng);
        for (unsigned j = 0; j < n; ++j) {
            auto m = mkMsg(j % 2 ? MsgType::DataM : MsgType::GetS,
                           tile(rng), tile(rng));
            m.txnId = txn++;
            plan.push_back({when, m});
        }
    }
    Net express(true), hopbyhop(false);
    for (Net *net : {&express, &hopbyhop}) {
        for (const Planned &p : plan) {
            net->eq.schedule(p.when, [net, msg = p.msg] {
                net->mesh.inject(msg);
            });
        }
        net->eq.run();
    }
    EXPECT_EQ(express.arrivals, hopbyhop.arrivals);
    EXPECT_EQ(express.mesh.delivered().value(),
              hopbyhop.mesh.delivered().value());
    EXPECT_EQ(express.mesh.flitCycles().value(),
              hopbyhop.mesh.flitCycles().value());
    // The whole point: identical semantics from strictly fewer events.
    EXPECT_LT(express.eq.executed(), hopbyhop.eq.executed());
}

TEST_F(MeshFixture, SteadyTrafficReusesFlightRecords)
{
    // Each delivery returns its flight record to the pool, so a steady
    // inject/deliver loop never carves past the peak number in flight:
    // here 40 messages in flight per round, 50 rounds.
    Mesh mesh(clk, MeshConfig{4, 4});
    unsigned got = 0;
    for (unsigned t = 0; t < 16; ++t) {
        mesh.registerEndpoint({static_cast<std::uint16_t>(t), TilePort::L3},
                              [&got](const Message &) { ++got; });
    }
    unsigned peak = 0;
    for (unsigned round = 0; round < 50; ++round) {
        for (unsigned i = 0; i < 40; ++i)
            mesh.inject(mkMsg(i % 2 ? MsgType::DataM : MsgType::GetS,
                              (i + round) % 16, (7 * i + 3) % 16));
        peak = std::max(peak, mesh.inFlight());
        eq.run();
        EXPECT_EQ(mesh.inFlight(), 0u);
    }
    EXPECT_EQ(got, 50u * 40u);
    EXPECT_EQ(peak, 40u);
    EXPECT_GE(mesh.flightRecords(), peak);
    // Records come in chunks, so the pool may round the peak up; one
    // record per message would be 2000.
    EXPECT_LE(mesh.flightRecords(), 2 * std::size_t{peak});
}

TEST_F(MeshFixture, UnregisteredEndpointPanics)
{
    Mesh mesh(clk, MeshConfig{2, 1});
    mesh.inject(mkMsg(MsgType::GetS, 0, 1));
    EXPECT_THROW(eq.run(), SimPanic);
}

} // namespace
} // namespace duet
