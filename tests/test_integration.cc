/**
 * @file
 * End-to-end integration and property tests: determinism, TLB capacity
 * behaviour, adapter reconfiguration under traffic, FPGA-bound FIFO
 * backpressure, multi-hub parallelism, and the P1M0 (register-only)
 * configuration.
 */

#include <gtest/gtest.h>

#include <deque>

#include "core/tlb.hh"
#include "workload/apps.hh"

namespace duet
{
namespace
{

TEST(Determinism, IdenticalRunsProduceIdenticalTiming)
{
    // The simulator must be bit-deterministic: same inputs, same ticks.
    AppResult a = runApp("popcount", SystemMode::Duet);
    AppResult b = runApp("popcount", SystemMode::Duet);
    EXPECT_EQ(a.runtime, b.runtime);
    EXPECT_TRUE(a.correct);
    AppResult c = runApp("bfs", SystemMode::CpuOnly, {.cores = 4});
    AppResult d = runApp("bfs", SystemMode::CpuOnly, {.cores = 4});
    EXPECT_EQ(c.runtime, d.runtime);
}

TEST(Tlb, LruEvictionAtCapacity)
{
    Tlb tlb(4);
    for (Addr vpn = 0; vpn < 4; ++vpn)
        tlb.insert(vpn, 100 + vpn);
    // Touch 0 so 1 becomes LRU.
    EXPECT_TRUE(tlb.translate(0 * kPageBytes).has_value());
    tlb.insert(9, 109);
    EXPECT_EQ(tlb.size(), 4u);
    EXPECT_FALSE(tlb.translate(1 * kPageBytes).has_value()); // evicted
    EXPECT_TRUE(tlb.translate(0 * kPageBytes).has_value());
    EXPECT_TRUE(tlb.translate(9 * kPageBytes).has_value());
    tlb.invalidate(9);
    EXPECT_FALSE(tlb.translate(9 * kPageBytes).has_value());
    tlb.flush();
    EXPECT_EQ(tlb.size(), 0u);
}

TEST(Tlb, TranslationComposesPpnAndOffset)
{
    Tlb tlb(8);
    tlb.insert(0x7, 0x42);
    auto pa = tlb.translate(0x7 * kPageBytes + 0xabc);
    ASSERT_TRUE(pa.has_value());
    EXPECT_EQ(*pa, 0x42 * kPageBytes + 0xabc);
    EXPECT_EQ(tlb.hits.value(), 1u);
    EXPECT_EQ(tlb.misses.value(), 0u);
}

AccelImage
counterImage(std::uint64_t step)
{
    AccelImage img;
    img.name = "counter" + std::to_string(step);
    img.resources = FabricResources{60, 90, 0, 0};
    img.fmaxMHz = 200;
    img.regLayout.kinds = {RegKind::FpgaFifo, RegKind::CpuFifo};
    img.start = [step](FpgaContext &ctx) {
        spawn([](FpgaContext ctx, std::uint64_t step) -> CoTask<void> {
            while (true) {
                std::uint64_t v = co_await ctx.regs.pop(0);
                ctx.regs.push(1, v + step);
            }
        }(ctx, step));
    };
    return img;
}

TEST(Reconfiguration, SequentialImagesKeepWorking)
{
    SystemConfig cfg;
    cfg.numCores = 1;
    cfg.numMemHubs = 1;
    System sys(cfg);
    for (std::uint64_t step : {1ull, 10ull, 100ull}) {
        ASSERT_TRUE(sys.installAccel(counterImage(step)));
        std::uint64_t got = 0;
        sys.core(0).start([&](Core &c) -> CoTask<void> {
            co_await c.mmioWrite(sys.regAddr(0), 5);
            got = co_await c.mmioRead(sys.regAddr(1));
        });
        sys.run();
        EXPECT_EQ(got, 5 + step) << "after installing step=" << step;
        EXPECT_GE(sys.adapter().ctrl().programs.value(), 1u);
    }
    EXPECT_EQ(sys.adapter().ctrl().programs.value(), 3u);
}

TEST(ShadowFifo, BackpressureStallsWriterWithoutLoss)
{
    // A slow consumer: pops one value every 64 eFPGA cycles. The
    // FPGA-bound FIFO's credits must stall the 100 writes without
    // dropping or reordering anything.
    SystemConfig cfg;
    cfg.numCores = 1;
    cfg.numMemHubs = 1;
    cfg.ctrl.timeoutCycles = 0;
    System sys(cfg);
    AccelImage img;
    img.name = "slowpop";
    img.resources = FabricResources{60, 90, 0, 0};
    img.fmaxMHz = 100;
    img.regLayout = RegLayout::uniform(2, RegKind::FpgaFifo, 4);
    img.regLayout.kinds[1] = RegKind::CpuFifo;
    auto sum = std::make_shared<std::uint64_t>(0);
    img.start = [sum](FpgaContext &ctx) {
        spawn([](FpgaContext ctx,
                 std::shared_ptr<std::uint64_t> sum) -> CoTask<void> {
            for (int i = 0; i < 100; ++i) {
                co_await ClockDelay(ctx.clk, 64);
                *sum += co_await ctx.regs.pop(0);
            }
            ctx.regs.push(1, *sum);
        }(ctx, sum));
    };
    ASSERT_TRUE(sys.installAccel(img));
    std::uint64_t got = 0;
    sys.core(0).start([&](Core &c) -> CoTask<void> {
        for (std::uint64_t i = 1; i <= 100; ++i)
            co_await c.mmioWrite(sys.regAddr(0), i);
        got = co_await c.mmioRead(sys.regAddr(1));
    });
    sys.run();
    EXPECT_EQ(got, 5050u); // every write arrived exactly once
}

TEST(MultiHub, TwoHubsStreamInParallel)
{
    // One accelerator reading through hub 0 while writing through hub 1
    // (the sort configuration) must outperform funneling everything
    // through a single hub — this checks the hubs really are independent
    // NoC endpoints.
    auto run = [](bool two_hubs) -> Tick {
        SystemConfig cfg;
        cfg.numCores = 1;
        cfg.numMemHubs = two_hubs ? 2 : 1;
        cfg.ctrl.timeoutCycles = 0;
        System sys(cfg);
        for (unsigned i = 0; i < 256; ++i)
            sys.memory().write(0x10000 + 8 * i, 8, i);
        AccelImage img;
        img.name = "copier";
        img.resources = FabricResources{80, 120, 1024, 0};
        img.fmaxMHz = 200;
        img.regLayout.kinds = {RegKind::FpgaFifo, RegKind::CpuFifo};
        SoftCacheParams pass;
        pass.enabled = false;
        pass.mshrs = 8;
        img.softCaches.assign(cfg.numMemHubs, pass);
        img.start = [two_hubs](FpgaContext &ctx) {
            spawn([](FpgaContext ctx, bool two_hubs) -> CoTask<void> {
                co_await ctx.regs.pop(0);
                SoftCache &in = *ctx.mem[0];
                SoftCache &out = two_hubs ? *ctx.mem[1] : *ctx.mem[0];
                // Streaming copy: loads pipelined on the read port while
                // stores flow through the write port.
                std::deque<SoftCache::LoadOp> loads;
                for (unsigned i = 0; i < 256; ++i)
                    loads.emplace_back(in, 0x10000 + 8 * i);
                unsigned i = 0;
                for (auto &f : loads) {
                    std::uint64_t v = co_await f;
                    co_await out.store(0x20000 + 8 * i++, v);
                }
                co_await out.drainWrites();
                ctx.regs.push(1, 1);
            }(ctx, two_hubs));
        };
        EXPECT_TRUE(sys.installAccel(img));
        Tick t0 = sys.eventQueue().now();
        sys.core(0).start([&sys](Core &c) -> CoTask<void> {
            co_await c.mmioWrite(sys.regAddr(0), 1);
            co_await c.mmioRead(sys.regAddr(1));
        });
        sys.run();
        // Functional check: the copy landed.
        for (unsigned i = 0; i < 256; ++i)
            EXPECT_EQ(sys.memory().read(0x20000 + 8 * i, 8), i);
        return sys.lastCoreFinish() - t0;
    };
    Tick one = run(false);
    Tick two = run(true);
    EXPECT_LT(two, one);
}

TEST(P1M0, RegisterOnlyAdapterWorks)
{
    // M0 instances (tangent, BFS) have a Control Hub but no Memory Hub.
    SystemConfig cfg;
    cfg.numCores = 1;
    cfg.numMemHubs = 0;
    System sys(cfg);
    ASSERT_TRUE(sys.installAccel(counterImage(7)));
    EXPECT_EQ(sys.adapter().numHubs(), 0u);
    std::uint64_t got = 0;
    sys.core(0).start([&](Core &c) -> CoTask<void> {
        co_await c.mmioWrite(sys.regAddr(0), 1);
        got = co_await c.mmioRead(sys.regAddr(1));
    });
    sys.run();
    EXPECT_EQ(got, 8u);
}

TEST(TileCap, SystemPastTheDirectorySharerCapPanics)
{
    // A directory line lists at most L3Shard::kMaxTiles sharers, so a
    // larger System is refused at build time.
    SystemConfig cfg;
    cfg.mode = SystemMode::CpuOnly;
    cfg.numCores = L3Shard::kMaxTiles;
    EXPECT_NO_THROW(System{cfg});
    cfg.numCores = L3Shard::kMaxTiles + 1;
    EXPECT_THROW(System{cfg}, SimPanic);
}

TEST(ClockSweep, FrequencyChangesThroughMmioTakeEffect)
{
    SystemConfig cfg;
    cfg.numCores = 1;
    cfg.numMemHubs = 1;
    System sys(cfg);
    ASSERT_TRUE(sys.installAccel(counterImage(1)));
    sys.core(0).start([&](Core &c) -> CoTask<void> {
        co_await c.mmioWrite(sys.ctrlAddr(ctrl_reg::kClockMhz), 50);
        std::uint64_t f = co_await c.mmioRead(
            sys.ctrlAddr(ctrl_reg::kClockMhz));
        EXPECT_EQ(f, 50u);
    });
    sys.run();
    EXPECT_EQ(sys.fpgaClock().frequencyMHz(), 50u);
    EXPECT_EQ(sys.fpgaClock().period(), periodFromMHz(50));
}

} // namespace
} // namespace duet
