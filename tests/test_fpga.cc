/**
 * @file
 * Unit tests for the eFPGA substrate: async FIFO CDC timing, scratchpad,
 * fabric resource model, and bitstream integrity.
 */

#include <gtest/gtest.h>

#include <vector>

#include "fpga/async_fifo.hh"
#include "fpga/fabric.hh"
#include "fpga/mem_if.hh"
#include "fpga/scratchpad.hh"
#include "sim/event_queue.hh"

namespace duet
{
namespace
{

struct Item
{
    int v = 0;
    LatencyTrace *trace = nullptr;
};

TEST(AsyncFifo, SynchronizerDelayTwoReaderEdges)
{
    EventQueue eq;
    ClockDomain slow(eq, "fpga", 100); // 10 ns period
    AsyncFifo<Item> fifo("f", slow, 8, 2);
    std::vector<Tick> deliveries;
    fifo.setDrain([&](Item &&) { deliveries.push_back(eq.now()); });
    eq.schedule(1000, [&] { fifo.push(Item{1}); }); // pushed at 1 ns
    eq.run();
    ASSERT_EQ(deliveries.size(), 1u);
    // Reader edges after 1 ns: 10 ns (1st), 20 ns (2nd).
    EXPECT_EQ(deliveries[0], 20'000u);
}

TEST(AsyncFifo, ZeroSyncStagesIsSameDomainWiring)
{
    EventQueue eq;
    ClockDomain clkd(eq, "fpga", 100);
    AsyncFifo<Item> fifo("f", clkd, 8, 0);
    Tick delivered = kMaxTick;
    fifo.setDrain([&](Item &&) { delivered = eq.now(); });
    eq.schedule(1000, [&] { fifo.push(Item{1}); });
    eq.run();
    EXPECT_EQ(delivered, 1000u); // no CDC delay
}

TEST(AsyncFifo, OneItemPerReaderCycle)
{
    EventQueue eq;
    ClockDomain slow(eq, "fpga", 100); // 10 ns
    AsyncFifo<Item> fifo("f", slow, 8, 2);
    std::vector<Tick> deliveries;
    fifo.setDrain([&](Item &&) { deliveries.push_back(eq.now()); });
    eq.schedule(0, [&] {
        fifo.push(Item{1});
        fifo.push(Item{2});
        fifo.push(Item{3});
    });
    eq.run();
    ASSERT_EQ(deliveries.size(), 3u);
    EXPECT_EQ(deliveries[1] - deliveries[0], 10'000u);
    EXPECT_EQ(deliveries[2] - deliveries[1], 10'000u);
}

TEST(AsyncFifo, BackpressureViaFull)
{
    EventQueue eq;
    ClockDomain slow(eq, "fpga", 100);
    AsyncFifo<Item> fifo("f", slow, 2, 2);
    fifo.setDrain([](Item &&) {});
    eq.schedule(0, [&] {
        fifo.push(Item{1});
        fifo.push(Item{2});
        EXPECT_TRUE(fifo.full());
        EXPECT_THROW(fifo.push(Item{3}), SimPanic);
    });
    eq.run();
    EXPECT_FALSE(fifo.full()); // drained
}

TEST(AsyncFifo, CdcWaitAttributedToTrace)
{
    EventQueue eq;
    ClockDomain slow(eq, "fpga", 100);
    AsyncFifo<Item> fifo("f", slow, 8, 2);
    LatencyTrace trace;
    fifo.setDrain([](Item &&) {});
    eq.schedule(1000, [&] { fifo.push(Item{1, &trace}); });
    eq.run();
    EXPECT_EQ(trace.get(LatencyTrace::Cat::Cdc), 19'000u);
    EXPECT_EQ(trace.get(LatencyTrace::Cat::NoC), 0u);
}

TEST(AsyncFifo, FasterReaderClockLowersLatency)
{
    EventQueue eq;
    ClockDomain slow(eq, "fpga", 500); // 2 ns period
    AsyncFifo<Item> fifo("f", slow, 8, 2);
    Tick delivered = 0;
    fifo.setDrain([&](Item &&) { delivered = eq.now(); });
    eq.schedule(1000, [&] { fifo.push(Item{1}); });
    eq.run();
    EXPECT_EQ(delivered, 4000u); // edges at 2ns, 4ns
}

TEST(Scratchpad, ReadWriteAndBounds)
{
    Scratchpad sp(64);
    sp.write(0, 0x1122334455667788ull);
    EXPECT_EQ(sp.read(0), 0x1122334455667788ull);
    EXPECT_EQ(sp.read(4, 4), 0x11223344u);
    sp.write(60, 0xffff, 4);
    EXPECT_EQ(sp.read(60, 4), 0xffffu);
    EXPECT_THROW(sp.read(64, 8), SimPanic);
    EXPECT_EQ(sp.bramBits(), 64u * 8u);
}

TEST(Fabric, CapacityFromGeometry)
{
    FabricConfig cfg;
    cfg.clbColumns = 4;
    cfg.clbRows = 4;
    cfg.lutsPerClb = 10;
    cfg.ffsPerClb = 20;
    cfg.bramTiles = 2;
    cfg.bitsPerBram = 1024;
    cfg.multTiles = 3;
    Fabric f(cfg);
    auto cap = f.capacity();
    EXPECT_EQ(cap.luts, 160u);
    EXPECT_EQ(cap.ffs, 320u);
    EXPECT_EQ(cap.bramBits, 2048u);
    EXPECT_EQ(cap.mults, 3u);
}

TEST(Fabric, FitAndUtilization)
{
    Fabric f(FabricConfig{});
    FabricResources r;
    r.luts = f.capacity().luts / 2;
    r.ffs = f.capacity().ffs / 4;
    r.bramBits = f.capacity().bramBits;
    EXPECT_TRUE(f.fits(r));
    EXPECT_DOUBLE_EQ(f.clbUtilization(r), 0.5); // max(LUT, FF) pressure
    EXPECT_DOUBLE_EQ(f.bramUtilization(r), 1.0);
    r.mults = f.capacity().mults + 1;
    EXPECT_FALSE(f.fits(r));
}

TEST(Fabric, ProgrammingStateMachine)
{
    Fabric f;
    EXPECT_EQ(f.state(), Fabric::State::Unconfigured);
    Bitstream b;
    b.accelName = "popcount";
    b.used = FabricResources{10, 10, 0, 0};
    b.bytes = {1, 2, 3, 4};
    b.seal();
    f.beginProgramming();
    EXPECT_EQ(f.state(), Fabric::State::Programming);
    EXPECT_TRUE(f.endProgramming(b));
    EXPECT_EQ(f.state(), Fabric::State::Configured);
    EXPECT_EQ(f.accelName(), "popcount");
}

TEST(Fabric, CorruptedBitstreamRejected)
{
    Fabric f;
    Bitstream b;
    b.used = FabricResources{1, 1, 0, 0};
    b.bytes = {1, 2, 3, 4};
    b.seal();
    b.bytes[2] ^= 0x40; // corruption after sealing
    f.beginProgramming();
    EXPECT_FALSE(f.endProgramming(b));
    EXPECT_EQ(f.state(), Fabric::State::Unconfigured);
}

TEST(Fabric, OversizedImageRejected)
{
    Fabric f;
    Bitstream b;
    b.used.luts = f.capacity().luts + 1;
    b.seal();
    f.beginProgramming();
    EXPECT_FALSE(f.endProgramming(b));
}

} // namespace
} // namespace duet
