/**
 * @file
 * google-benchmark micro-benchmarks of the simulated-access hot path:
 * core load round trips (L1 hit and miss), the ClockDelay wait loop and
 * the MMIO write path. These guard the payload diet — the intrusive
 * awaitables and the queue's resume nodes must keep simulation speed,
 * not just tick identity.
 */

#include <cstdint>

#include <benchmark/benchmark.h>

#include "accel/images.hh"
#include "system/system.hh"

namespace
{

using namespace duet;

SystemConfig
coreOnlyConfig()
{
    SystemConfig cfg;
    cfg.numCores = 1;
    cfg.numMemHubs = 0;
    cfg.ctrl.timeoutCycles = 0;
    return cfg;
}

void
BM_CoreLoadL1Hit(benchmark::State &state)
{
    // Same line every time: after the first fill each load resolves in
    // the L1 and completes through a single scheduled edge — the fast
    // path the intrusive awaitable is built for.
    System sys(coreOnlyConfig());
    sys.memory().write(0x1000, 8, 42);
    for (auto _ : state) {
        std::uint64_t sink = 0;
        sys.core(0).start([&](Core &c) -> CoTask<void> {
            for (int i = 0; i < 1024; ++i)
                sink += co_await c.load(0x1000);
        });
        sys.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_CoreLoadL1Hit);

void
BM_CoreLoadL1Miss(benchmark::State &state)
{
    // Stride over more lines than the L1 holds: every load takes the
    // MSHR/fill path, parking the awaitable until the line returns.
    System sys(coreOnlyConfig());
    for (auto _ : state) {
        std::uint64_t sink = 0;
        sys.core(0).start([&](Core &c) -> CoTask<void> {
            for (int i = 0; i < 1024; ++i)
                sink += co_await c.load(0x100000 + kLineBytes * i);
        });
        sys.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_CoreLoadL1Miss);

void
BM_ClockDelayLoop(benchmark::State &state)
{
    // Every iteration queues one resume node: no slab slot, no
    // callback, the queue resumes the frame itself.
    for (auto _ : state) {
        EventQueue eq;
        ClockDomain clk(eq, "clk", 1000);
        spawn([](ClockDomain &c) -> CoTask<void> {
            for (int i = 0; i < 4096; ++i)
                co_await ClockDelay(c, 1);
        }(clk));
        eq.run();
        drainDetachedTasks();
        benchmark::DoNotOptimize(eq.executed());
    }
    state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_ClockDelayLoop);

void
BM_MmioWriteRoundTrip(benchmark::State &state)
{
    // Posted MMIO writes into an always-draining FPGA-bound FIFO: the
    // direct value->void awaitable replaces the old per-write adapter
    // coroutine.
    System sys(coreOnlyConfig());
    AccelImage img;
    img.name = "sink";
    img.resources = FabricResources{60, 90, 0, 0};
    img.fmaxMHz = 200;
    img.regLayout.kinds = {RegKind::FpgaFifo};
    img.start = [](FpgaContext &ctx) {
        spawn([](FpgaContext c) -> CoTask<void> {
            while (true)
                benchmark::DoNotOptimize(co_await c.regs.pop(0));
        }(ctx));
    };
    if (!sys.installAccel(img))
        state.SkipWithError("accelerator image did not fit");
    for (auto _ : state) {
        sys.core(0).start([&](Core &c) -> CoTask<void> {
            for (std::uint64_t i = 0; i < 256; ++i)
                co_await c.mmioWrite(sys.regAddr(0), i);
        });
        sys.run();
    }
    state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_MmioWriteRoundTrip);

} // namespace
