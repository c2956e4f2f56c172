/**
 * @file
 * google-benchmark micro-benchmarks of the simulator substrate itself:
 * event-queue throughput, cache-array lookups, functional memory, and
 * end-to-end NoC message delivery. These guard the simulator's own
 * performance (simulation speed), not the modeled system.
 */

#include <cstdint>
#include <vector>

#include <benchmark/benchmark.h>

#include "cache/cache_array.hh"
#include "cache/l1_cache.hh"
#include "mem/functional_mem.hh"
#include "noc/mesh.hh"
#include "sim/event_queue.hh"

namespace
{

using namespace duet;

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        int sink = 0;
        for (int i = 0; i < 1024; ++i)
            eq.schedule(static_cast<Tick>(i * 7 % 97), [&] { ++sink; });
        eq.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueueScheduleRun);

/**
 * The queue at the depths the simulator runs: k actors that each
 * reschedule themselves one cycle later, or 20 cycles later one firing
 * in eight (a seeded mix), so the pending depth holds at k. k = 64 runs
 * past the queue's 32-node sorted front, so the heap tier carries the
 * traffic.
 */
void
BM_EventQueueSteadyState(benchmark::State &state)
{
    constexpr Tick kCycle = 1000;
    struct Actor
    {
        EventQueue *eq;
        std::uint64_t rng;

        void
        fire()
        {
            rng = rng * 6364136223846793005ull + 1442695040888963407ull;
            const Tick cycles = (rng >> 61) == 0 ? 20 : 1;
            eq->scheduleAfter(cycles * kCycle, [this] { fire(); });
        }
    };
    EventQueue eq;
    std::vector<Actor> actors(static_cast<std::size_t>(state.range(0)));
    std::uint64_t seed = 0x5eed;
    for (Actor &a : actors) {
        a = Actor{&eq, seed++};
        a.fire();
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(eq.run(eq.now() + 64 * kCycle));
    state.SetItemsProcessed(static_cast<std::int64_t>(eq.executed()));
}
BENCHMARK(BM_EventQueueSteadyState)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

void
BM_CacheArrayFind(benchmark::State &state)
{
    CacheArray<L1Line> arr(128, 4);
    for (Addr a = 0; a < 512 * kLineBytes; a += kLineBytes) {
        L1Line &slot = arr.victimFor(a);
        arr.install(slot, a);
    }
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(arr.find(a));
        a = (a + kLineBytes) % (512 * kLineBytes);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheArrayFind);

void
BM_FunctionalMemoryReadWrite(benchmark::State &state)
{
    FunctionalMemory mem;
    Addr a = 0;
    for (auto _ : state) {
        mem.write(a, 8, a);
        benchmark::DoNotOptimize(mem.read(a, 8));
        a = (a + 8) % (1 << 20);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FunctionalMemoryReadWrite);

void
BM_MeshDelivery(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        ClockDomain clk(eq, "sys", 1000);
        Mesh mesh(clk, MeshConfig{4, 4});
        int delivered = 0;
        for (unsigned t = 0; t < 16; ++t) {
            mesh.registerEndpoint(
                {static_cast<std::uint16_t>(t), TilePort::L3},
                [&](const Message &) { ++delivered; });
        }
        for (unsigned i = 0; i < 256; ++i) {
            Message m;
            m.type = MsgType::GetS;
            m.src = {static_cast<std::uint16_t>(i % 16), TilePort::L2};
            m.dst = {static_cast<std::uint16_t>((i * 7) % 16),
                     TilePort::L3};
            mesh.inject(m);
        }
        eq.run();
        benchmark::DoNotOptimize(delivered);
    }
    state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_MeshDelivery);

} // namespace

BENCHMARK_MAIN();
