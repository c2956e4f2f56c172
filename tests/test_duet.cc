/**
 * @file
 * System-level tests of the Duet Adapter: accelerator installation,
 * shadow/normal soft registers (one-shot read replies, pops dropped by
 * an accelerator reset), accelerator threads that outlive another
 * System's teardown, Systems torn down out of build order, memory hubs
 * + proxy cache coherence, soft caches with forwarded invalidations, the
 * TLB fault flow, exception handling (parity, timeout), and FPSoC-mode
 * downgrades.
 */

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <type_traits>
#include <utility>

#include "mem/page_table.hh"
#include "system/system.hh"

namespace duet
{
namespace
{

/** An echo accelerator: pops reg0 (FPGA-bound), pushes v+1 to reg1
 *  (CPU-bound) after one eFPGA cycle. */
AccelImage
echoImage()
{
    AccelImage img;
    img.name = "echo";
    img.resources = FabricResources{50, 80, 0, 0};
    img.fmaxMHz = 100;
    img.regLayout.kinds = {RegKind::FpgaFifo, RegKind::CpuFifo,
                           RegKind::Plain, RegKind::TokenFifo};
    img.start = [](FpgaContext &ctx) {
        spawn([](FpgaContext ctx) -> CoTask<void> {
            while (true) {
                std::uint64_t v = co_await ctx.regs.pop(0);
                co_await ClockDelay(ctx.clk, 1);
                ctx.regs.push(1, v + 1);
            }
        }(ctx));
    };
    return img;
}

SystemConfig
smallDuet(SystemMode mode = SystemMode::Duet, unsigned cores = 1,
          unsigned hubs = 1)
{
    SystemConfig cfg;
    cfg.mode = mode;
    cfg.numCores = cores;
    cfg.numMemHubs = hubs;
    return cfg;
}

TEST(Install, ProgrammingFlowConfiguresFabricAndClock)
{
    System sys(smallDuet());
    Tick before = sys.eventQueue().now();
    ASSERT_TRUE(sys.installAccel(echoImage()));
    EXPECT_EQ(sys.adapter().fabric().state(), Fabric::State::Configured);
    EXPECT_EQ(sys.adapter().fabric().accelName(), "echo");
    EXPECT_EQ(sys.fpgaClock().frequencyMHz(), 100u);
    // Programming is not free: the bitstream load took real cycles.
    EXPECT_GT(sys.eventQueue().now(), before);
}

TEST(Install, OversizedAcceleratorFailsCleanly)
{
    System sys(smallDuet());
    AccelImage img = echoImage();
    img.resources.luts = 1u << 30;
    EXPECT_FALSE(sys.installAccel(img));
    EXPECT_EQ(sys.adapter().fabric().state(), Fabric::State::Unconfigured);
}

TEST(Install, ReconfigurationReplacesAccelerator)
{
    System sys(smallDuet());
    ASSERT_TRUE(sys.installAccel(echoImage()));
    AccelImage other = echoImage();
    other.name = "echo2";
    other.fmaxMHz = 200;
    ASSERT_TRUE(sys.installAccel(other));
    EXPECT_EQ(sys.adapter().fabric().accelName(), "echo2");
    EXPECT_EQ(sys.fpgaClock().frequencyMHz(), 200u);
}

TEST(ShadowRegs, FifoEchoRoundtrip)
{
    System sys(smallDuet());
    ASSERT_TRUE(sys.installAccel(echoImage()));
    std::uint64_t got = 0;
    sys.core(0).start([&](Core &c) -> CoTask<void> {
        co_await c.mmioWrite(sys.regAddr(0), 41);
        got = co_await c.mmioRead(sys.regAddr(1)); // blocks until push
    });
    sys.run();
    EXPECT_TRUE(sys.core(0).finished());
    EXPECT_EQ(got, 42u);
}

TEST(ShadowRegs, PlainParameterPropagatesBothWays)
{
    System sys(smallDuet());
    AccelImage img = echoImage();
    img.start = [](FpgaContext &ctx) {
        spawn([](FpgaContext ctx) -> CoTask<void> {
            // Wait for the parameter, then publish its double.
            std::uint64_t v = 0;
            while ((v = ctx.regs.readPlain(2)) == 0)
                co_await ClockDelay(ctx.clk, 1);
            ctx.regs.writePlain(2, v * 2);
        }(ctx));
    };
    ASSERT_TRUE(sys.installAccel(img));
    std::uint64_t got = 0;
    sys.core(0).start([&](Core &c) -> CoTask<void> {
        co_await c.mmioWrite(sys.regAddr(2), 21);
        // Poll the shadow until the accelerator syncs back.
        while (true) {
            std::uint64_t v = co_await c.mmioRead(sys.regAddr(2));
            if (v == 42) {
                got = v;
                break;
            }
            co_await c.compute(10);
        }
    });
    sys.run();
    EXPECT_EQ(got, 42u);
}

TEST(ShadowRegs, TokenFifoTryJoinSemantics)
{
    System sys(smallDuet());
    AccelImage img = echoImage();
    img.start = [](FpgaContext &ctx) {
        spawn([](FpgaContext ctx) -> CoTask<void> {
            co_await ClockDelay(ctx.clk, 50);
            ctx.regs.pushTokens(3, 2);
        }(ctx));
    };
    ASSERT_TRUE(sys.installAccel(img));
    std::vector<std::uint64_t> reads;
    sys.core(0).start([&](Core &c) -> CoTask<void> {
        // Immediately: empty (non-blocking).
        reads.push_back(co_await c.mmioRead(sys.regAddr(3)));
        co_await c.compute(2000); // let the tokens arrive
        reads.push_back(co_await c.mmioRead(sys.regAddr(3)));
        reads.push_back(co_await c.mmioRead(sys.regAddr(3)));
        reads.push_back(co_await c.mmioRead(sys.regAddr(3)));
    });
    sys.run();
    ASSERT_EQ(reads.size(), 4u);
    EXPECT_EQ(reads[0], 0u); // empty, returned immediately
    EXPECT_EQ(reads[1], 1u);
    EXPECT_EQ(reads[2], 1u);
    EXPECT_EQ(reads[3], 0u); // both tokens consumed
}

TEST(ShadowRegs, ShadowReadFasterThanNormalRead)
{
    // Same accelerator, one plain shadowed register vs one normal register.
    auto run_one = [](RegKind kind) -> Tick {
        System sys(smallDuet());
        AccelImage img = echoImage();
        img.regLayout.kinds = {kind};
        img.fmaxMHz = 50; // slow eFPGA makes the difference stark
        EXPECT_TRUE(sys.installAccel(img));
        Tick t0 = 0, t1 = 0;
        sys.core(0).start([&](Core &c) -> CoTask<void> {
            co_await c.compute(5);
            t0 = c.clock().eventQueue().now();
            co_await c.mmioRead(sys.regAddr(0));
            t1 = c.clock().eventQueue().now();
        });
        sys.run();
        return t1 - t0;
    };
    Tick shadow = run_one(RegKind::Plain);
    Tick normal = run_one(RegKind::Normal);
    // The paper reports 50-80% latency reduction; require at least 40%.
    EXPECT_LT(shadow, normal);
    EXPECT_LT(static_cast<double>(shadow), 0.6 * normal);
}

TEST(MemoryHub, AcceleratorLoadsAndStoresCoherently)
{
    System sys(smallDuet());
    AccelImage img = echoImage();
    // Pop a source address, load 8 bytes, store the doubled value at
    // addr+64, push done.
    img.start = [](FpgaContext &ctx) {
        spawn([](FpgaContext ctx) -> CoTask<void> {
            while (true) {
                Addr a = co_await ctx.regs.pop(0);
                std::uint64_t v = co_await ctx.mem[0]->load(a, 8);
                co_await ctx.mem[0]->store(a + 64, v * 2, 8);
                ctx.regs.push(1, 1);
            }
        }(ctx));
    };
    ASSERT_TRUE(sys.installAccel(img));
    std::uint64_t out = 0;
    sys.core(0).start([&](Core &c) -> CoTask<void> {
        co_await c.store(0x1000, 55);
        co_await c.mmioWrite(sys.regAddr(0), 0x1000);
        co_await c.mmioRead(sys.regAddr(1));
        out = co_await c.load(0x1040);
    });
    sys.run();
    EXPECT_EQ(out, 110u);
    // The proxy cache participated in coherence.
    EXPECT_GT(sys.adapter().hub(0).reqsAccepted.value(), 0u);
}

TEST(MemoryHub, CpuPullRecallsProxyOwnedLine)
{
    System sys(smallDuet());
    AccelImage img = echoImage();
    img.start = [](FpgaContext &ctx) {
        spawn([](FpgaContext ctx) -> CoTask<void> {
            Addr a = co_await ctx.regs.pop(0);
            co_await ctx.mem[0]->store(a, 0x77);
            co_await ctx.mem[0]->drainWrites();
            ctx.regs.push(1, 1);
        }(ctx));
    };
    ASSERT_TRUE(sys.installAccel(img));
    std::uint64_t got = 0;
    sys.core(0).start([&](Core &c) -> CoTask<void> {
        co_await c.mmioWrite(sys.regAddr(0), 0x2000);
        co_await c.mmioRead(sys.regAddr(1));
        got = co_await c.load(0x2000); // recall from the proxy cache
    });
    sys.run();
    EXPECT_EQ(got, 0x77u);
    // The proxy owned the line in M and was recalled in the fast domain.
    EXPECT_GE(sys.l2(sys.cTile()).recallsReceived.value(), 1u);
}

TEST(SoftCache, HitsAfterFillAndInvalidatedByCpuStore)
{
    System sys(smallDuet());
    AccelImage img = echoImage();
    SoftCacheParams scp;
    scp.enabled = true;
    img.softCaches = {scp};
    img.start = [](FpgaContext &ctx) {
        spawn([](FpgaContext ctx) -> CoTask<void> {
            while (true) {
                Addr a = co_await ctx.regs.pop(0);
                std::uint64_t v = co_await ctx.mem[0]->load(a, 8);
                ctx.regs.push(1, v);
            }
        }(ctx));
    };
    ASSERT_TRUE(sys.installAccel(img));
    std::vector<std::uint64_t> got;
    sys.core(0).start([&](Core &c) -> CoTask<void> {
        co_await c.store(0x3000, 5);
        co_await c.mmioWrite(sys.regAddr(0), 0x3000);
        got.push_back(co_await c.mmioRead(sys.regAddr(1)));
        // Second access: should hit in the soft cache.
        co_await c.mmioWrite(sys.regAddr(0), 0x3000);
        got.push_back(co_await c.mmioRead(sys.regAddr(1)));
        // CPU store invalidates the proxy line -> forwarded into the
        // soft cache -> third access re-fetches the new value.
        co_await c.store(0x3000, 9);
        co_await c.mmioWrite(sys.regAddr(0), 0x3000);
        got.push_back(co_await c.mmioRead(sys.regAddr(1)));
    });
    sys.run();
    ASSERT_EQ(got.size(), 3u);
    EXPECT_EQ(got[0], 5u);
    EXPECT_EQ(got[1], 5u);
    EXPECT_EQ(got[2], 9u);
    SoftCache *sc = sys.adapter().softCache(0);
    EXPECT_GE(sc->hits.value(), 1u);
    EXPECT_GE(sc->invsReceived.value(), 1u);
    EXPECT_GE(sys.adapter().hub(0).invsForwarded.value(), 1u);
}

TEST(Tlb, FaultInterruptsKernelWhichFillsTheTlb)
{
    System sys(smallDuet());
    AccelImage img = echoImage();
    img.useTlb = true;
    img.start = [](FpgaContext &ctx) {
        spawn([](FpgaContext ctx) -> CoTask<void> {
            Addr va = co_await ctx.regs.pop(0);
            std::uint64_t v = co_await ctx.mem[0]->load(va, 8);
            ctx.regs.push(1, v);
        }(ctx));
    };
    ASSERT_TRUE(sys.installAccel(img));

    // "OS" page table: VPN 0x10 -> PPN 0x20.
    PageTable pt;
    pt.map(0x10, 0x20);
    sys.memory().write(0x20 * kPageBytes + 0x18, 8, 0xfeed);

    int faults_handled = 0;
    sys.core(0).setInterruptHandler(
        [&](Core &c, std::uint64_t cause) -> CoTask<void> {
            ++faults_handled;
            Addr vpn = cause & 0xffffffffffffull;
            unsigned hub = static_cast<unsigned>(cause >> 56);
            auto entry = pt.lookup(vpn);
            EXPECT_TRUE(entry.has_value()) << "kernel: invalid page";
            co_await c.mmioWrite(sys.ctrlAddr(ctrl_reg::kTlbSelect), hub);
            co_await c.mmioWrite(sys.ctrlAddr(ctrl_reg::kTlbVpn), vpn);
            co_await c.mmioWrite(sys.ctrlAddr(ctrl_reg::kTlbPpn),
                                 entry->ppn);
        });

    std::uint64_t got = 0;
    sys.core(0).start([&](Core &c) -> CoTask<void> {
        co_await c.mmioWrite(sys.regAddr(0), 0x10 * kPageBytes + 0x18);
        got = co_await c.mmioRead(sys.regAddr(1));
    });
    sys.run();
    EXPECT_EQ(faults_handled, 1);
    EXPECT_EQ(got, 0xfeedu);
    EXPECT_EQ(sys.adapter().hub(0).tlbFaults.value(), 1u);
    EXPECT_EQ(sys.adapter().hub(0).tlb().size(), 1u);
}

TEST(Exceptions, ParityErrorDeactivatesAllHubsButProxyStaysCoherent)
{
    System sys(smallDuet(SystemMode::Duet, 1, 2));
    ASSERT_TRUE(sys.installAccel(echoImage()));
    sys.adapter().injectParityError(0);
    sys.run();
    EXPECT_EQ(sys.adapter().hub(0).errorCode(), HubError::Parity);
    EXPECT_FALSE(sys.adapter().hub(0).active());
    EXPECT_FALSE(sys.adapter().hub(1).active()); // adapter-wide broadcast
    // The proxy cache still answers coherence: a CPU access to a line the
    // proxy could own must not hang.
    std::uint64_t v = 0;
    sys.core(0).start([&](Core &c) -> CoTask<void> {
        co_await c.store(0x4000, 3);
        v = co_await c.load(0x4000);
    });
    sys.run();
    EXPECT_EQ(v, 3u);
    // Software clears the error via MMIO.
    sys.core(0).start([&](Core &c) -> CoTask<void> {
        co_await c.mmioWrite(sys.ctrlAddr(ctrl_reg::kErrCode), 0);
    });
    sys.run();
    EXPECT_TRUE(sys.adapter().hub(0).active());
}

TEST(Exceptions, UnresponsiveAcceleratorTimesOutWithBogusData)
{
    SystemConfig cfg = smallDuet();
    cfg.ctrl.timeoutCycles = 2000; // short timeout
    System sys(cfg);
    AccelImage img = echoImage();
    img.regLayout.kinds = {RegKind::Normal};
    img.start = [](FpgaContext &ctx) {
        // Install a read handler that never completes (RTL bug model).
        ctx.regs.setReadHandler(
            0, [](FpgaRegFile::ReadReply) { /* never replies */ });
    };
    ASSERT_TRUE(sys.installAccel(img));
    std::uint64_t got = 0;
    sys.core(0).start([&](Core &c) -> CoTask<void> {
        got = co_await c.mmioRead(sys.regAddr(0));
    });
    sys.run();
    EXPECT_EQ(got, kBogusData);
    EXPECT_TRUE(sys.adapter().ctrl().deactivated());
    EXPECT_EQ(sys.adapter().ctrl().timeouts.value(), 1u);
}

TEST(RegFile, ReadReplyIsOneShot)
{
    static_assert(!std::is_copy_constructible_v<FpgaRegFile::ReadReply>);
    System sys(smallDuet());
    AccelImage img = echoImage();
    img.regLayout.kinds = {RegKind::Normal};
    img.start = [](FpgaContext &ctx) {
        ctx.regs.setReadHandler(0, [](FpgaRegFile::ReadReply reply) {
            FpgaRegFile::ReadReply held = std::move(reply);
            EXPECT_THROW(reply(1), SimPanic); // moved from
            held(7);
            EXPECT_THROW(held(8), SimPanic); // already answered
        });
    };
    ASSERT_TRUE(sys.installAccel(img));
    std::uint64_t got = 0;
    sys.core(0).start([&](Core &c) -> CoTask<void> {
        got = co_await c.mmioRead(sys.regAddr(0));
    });
    sys.run();
    EXPECT_EQ(got, 7u);
    EXPECT_FALSE(sys.adapter().ctrl().deactivated());
}

TEST(RegFile, PopParkedAcrossAcceleratorResetIsNeverResumed)
{
    // An accelerator thread parked in pop() when software resets the
    // accelerator (ctrl_reg::kReset) stays parked: the reset drops the
    // parked op, so data written afterwards queues instead of resuming
    // it. The System::reset and the destruction that follow reclaim the
    // parked frame.
    const SystemConfig cfg = smallDuet();
    System sys(cfg);
    unsigned resumed = 0;
    AccelImage img = echoImage();
    img.start = [&resumed](FpgaContext &ctx) {
        spawn([](FpgaContext ctx, unsigned &n) -> CoTask<void> {
            co_await ctx.regs.pop(0);
            ++n;
        }(ctx, resumed));
    };
    ASSERT_TRUE(sys.installAccel(img));
    sys.core(0).start([&](Core &c) -> CoTask<void> {
        co_await c.mmioWrite(sys.ctrlAddr(ctrl_reg::kReset), 1);
        co_await c.mmioWrite(sys.regAddr(0), 5);
    });
    sys.run();
    EXPECT_EQ(resumed, 0u);
    ASSERT_NE(sys.adapter().regs(), nullptr);
    EXPECT_TRUE(sys.adapter().regs()->hasData(0)); // queued, not popped

    // The rebuilt system runs a fresh accelerator normally.
    sys.reset(cfg);
    ASSERT_TRUE(sys.installAccel(echoImage()));
    std::uint64_t got = 0;
    sys.core(0).start([&](Core &c) -> CoTask<void> {
        co_await c.mmioWrite(sys.regAddr(0), 41);
        got = co_await c.mmioRead(sys.regAddr(1));
    });
    sys.run();
    EXPECT_EQ(got, 42u);
    EXPECT_EQ(resumed, 0u);
}

TEST(MultiSystem, AnotherSystemsTeardownKeepsThisOnesParkedThreads)
{
    // Each System reclaims only the coroutine frames spawned on it.
    // Building, resetting and destroying a second System must leave the
    // first one's accelerator loop, parked in pop(), alive to resume.
    System a(smallDuet());
    ASSERT_TRUE(a.installAccel(echoImage()));
    {
        System b(smallDuet());
        ASSERT_TRUE(b.installAccel(echoImage()));
        b.reset(smallDuet());
        ASSERT_TRUE(b.installAccel(echoImage()));
    }
    std::uint64_t got = 0;
    a.core(0).start([&](Core &c) -> CoTask<void> {
        co_await c.mmioWrite(a.regAddr(0), 41);
        got = co_await c.mmioRead(a.regAddr(1));
    });
    a.run();
    EXPECT_EQ(got, 42u);
}

TEST(MultiSystem, OutOfOrderTeardownKeepsTheNewestLiveSystemCurrent)
{
    // Build S, then E; destroy S first. E must stay current, so its
    // accelerator thread joins E's own pool and E runs it. Once E is
    // gone too, no System is current and a bare spawn() runs against
    // the thread's own pool. A fresh thread keeps any System an earlier
    // test left in this thread's lease slot out of the chain.
    std::thread([] {
        auto s = std::make_unique<System>(smallDuet());
        {
            System e(smallDuet());
            EXPECT_FALSE(s->frameArena().isCurrent());
            s.reset();
            EXPECT_TRUE(e.frameArena().isCurrent());
            ASSERT_TRUE(e.installAccel(echoImage()));
            std::uint64_t got = 0;
            e.core(0).start([&](Core &c) -> CoTask<void> {
                co_await c.mmioWrite(e.regAddr(0), 41);
                got = co_await c.mmioRead(e.regAddr(1));
            });
            e.run();
            EXPECT_EQ(got, 42u);
        }
        bool ran = false;
        spawn([](bool &r) -> CoTask<void> {
            r = true;
            co_return;
        }(ran));
        EXPECT_TRUE(ran);
    }).join();
}

TEST(MultiSystem, TeardownInTheMiddleOfTheChainUnlinksOnlyThatSystem)
{
    // A, B, C built in order; B dies first, then C. Each teardown hands
    // currency to the newest System still alive.
    std::thread([] {
        System a(smallDuet());
        auto b = std::make_unique<System>(smallDuet());
        auto c = std::make_unique<System>(smallDuet());
        b.reset();
        EXPECT_TRUE(c->frameArena().isCurrent());
        c.reset();
        EXPECT_TRUE(a.frameArena().isCurrent());
    }).join();
}

TEST(Fpsoc, DowngradedRegistersStillWork)
{
    System sys(smallDuet(SystemMode::Fpsoc));
    ASSERT_TRUE(sys.installAccel(echoImage()));
    std::uint64_t got = 0;
    sys.core(0).start([&](Core &c) -> CoTask<void> {
        co_await c.mmioWrite(sys.regAddr(0), 41);
        got = co_await c.mmioRead(sys.regAddr(1));
    });
    sys.run();
    EXPECT_EQ(got, 42u);
}

TEST(Fpsoc, RegisterWriteSlowerThanDuet)
{
    auto write_latency = [](SystemMode mode) -> Tick {
        System sys(smallDuet(mode));
        AccelImage img = echoImage();
        img.fmaxMHz = 50;
        EXPECT_TRUE(sys.installAccel(img));
        Tick t0 = 0, t1 = 0;
        sys.core(0).start([&](Core &c) -> CoTask<void> {
            co_await c.compute(5);
            t0 = c.clock().eventQueue().now();
            co_await c.mmioWrite(sys.regAddr(2), 7); // plain reg
            t1 = c.clock().eventQueue().now();
        });
        sys.run();
        return t1 - t0;
    };
    Tick duet = write_latency(SystemMode::Duet);
    Tick fpsoc = write_latency(SystemMode::Fpsoc);
    EXPECT_LT(duet, fpsoc);
}

TEST(Fpsoc, CpuPullPaysCdcAndSlowCycles)
{
    // The same CPU-pull sequence is slower when the FPGA-side cache lives
    // in the slow clock domain (paper Fig. 5a vs 5c).
    auto pull_latency = [](SystemMode mode) -> Tick {
        System sys(smallDuet(mode));
        AccelImage img = echoImage();
        img.fmaxMHz = 100;
        img.start = [](FpgaContext &ctx) {
            spawn([](FpgaContext ctx) -> CoTask<void> {
                Addr a = co_await ctx.regs.pop(0);
                co_await ctx.mem[0]->store(a, 123);
                co_await ctx.mem[0]->drainWrites();
                ctx.regs.push(1, 1);
            }(ctx));
        };
        EXPECT_TRUE(sys.installAccel(img));
        Tick t0 = 0, t1 = 0;
        sys.core(0).start([&](Core &c) -> CoTask<void> {
            co_await c.mmioWrite(sys.regAddr(0), 0x5000);
            co_await c.mmioRead(sys.regAddr(1));
            t0 = c.clock().eventQueue().now();
            co_await c.load(0x5000); // pull from the FPGA-side cache
            t1 = c.clock().eventQueue().now();
        });
        sys.run();
        return t1 - t0;
    };
    Tick duet = pull_latency(SystemMode::Duet);
    Tick fpsoc = pull_latency(SystemMode::Fpsoc);
    EXPECT_LT(duet, fpsoc);
    // Paper: 42-82% reduction; require a meaningful gap.
    EXPECT_LT(static_cast<double>(duet), 0.7 * fpsoc);
}

} // namespace
} // namespace duet
