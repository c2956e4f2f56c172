/**
 * @file
 * Unit tests for the simulation kernel: event queue, clock domains,
 * coroutine tasks, stats, latency traces, the flat hash table.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <random>
#include <vector>

#include "sim/clock.hh"
#include "sim/event_queue.hh"
#include "sim/flat_table.hh"
#include "sim/latency_trace.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/task.hh"

namespace duet
{
namespace
{

TEST(EventQueue, RunsEventsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
    EXPECT_EQ(eq.executed(), 3u);
}

TEST(EventQueue, SameTickRunsInInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        eq.schedule(100, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue eq;
    int count = 0;
    std::function<void()> chain = [&] {
        if (++count < 5)
            eq.scheduleAfter(10, chain);
    };
    eq.schedule(0, chain);
    eq.run();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(eq.now(), 40u);
}

TEST(EventQueue, RunRespectsLimit)
{
    EventQueue eq;
    int hits = 0;
    eq.schedule(10, [&] { ++hits; });
    eq.schedule(50, [&] { ++hits; });
    EXPECT_FALSE(eq.run(20));
    EXPECT_EQ(hits, 1);
    EXPECT_EQ(eq.now(), 20u);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(hits, 2);
}

TEST(EventQueue, SchedulingInPastPanics)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    EXPECT_THROW(eq.schedule(50, [] {}), SimPanic);
}

TEST(Clock, PeriodFromFrequency)
{
    EXPECT_EQ(periodFromMHz(1000), 1000u); // 1 GHz -> 1000 ps
    EXPECT_EQ(periodFromMHz(500), 2000u);
    EXPECT_EQ(periodFromMHz(100), 10000u);
    EXPECT_EQ(periodFromMHz(20), 50000u);
    EXPECT_EQ(mhzFromPeriod(1000), 1000u);
    EXPECT_EQ(mhzFromPeriod(50000), 20u);
}

TEST(Clock, EdgeAlignment)
{
    EventQueue eq;
    ClockDomain clk(eq, "sys", 1000); // 1 GHz -> 1000 ps period
    EXPECT_EQ(clk.edgeAtOrAfter(0), 0u);
    EXPECT_EQ(clk.edgeAtOrAfter(1), 1000u);
    EXPECT_EQ(clk.edgeAtOrAfter(999), 1000u);
    EXPECT_EQ(clk.edgeAtOrAfter(1000), 1000u);
    EXPECT_EQ(clk.edgeAfter(1000), 2000u);
}

TEST(Clock, FrequencyChangeRealignsEdges)
{
    EventQueue eq;
    ClockDomain clk(eq, "fpga", 100); // 10 ns period
    eq.schedule(3'500, [&] { clk.setFrequencyMHz(500); });
    eq.run();
    // Origin moved to t=3500; next edges at 3500 + k*2000.
    EXPECT_EQ(clk.period(), 2000u);
    EXPECT_EQ(clk.edgeAtOrAfter(3500), 3500u);
    EXPECT_EQ(clk.edgeAtOrAfter(3501), 5500u);
}

TEST(Clock, EdgeAtOrAfterMatchesTheDivisionFormula)
{
    // edgeAtOrAfter() answers most queries from its edge cache and
    // divides only on a far jump. Both paths must equal ceil-division
    // for seeded random periods, origins and queries, from a 1 MHz
    // clock to a one-tick period, past 2^50, and after setFrequencyMHz
    // moves the origin.
    auto reference = [](Tick origin, Tick period, Tick t) -> Tick {
        if (t <= origin)
            return origin;
        return origin + (t - origin + period - 1) / period * period;
    };
    std::mt19937_64 rng(20261020);
    std::vector<std::uint64_t> mhzs = {1, 3, 7, 20, 333, 1000, 999'999,
                                       1'000'000};
    for (int i = 0; i < 24; ++i)
        mhzs.push_back(1 + rng() % 1'000'000);
    std::uint64_t checked = 0;
    for (std::uint64_t mhz : mhzs) {
        for (const Tick start : {Tick{0}, Tick{rng() % 1'000'000'000},
                                 (Tick{1} << 50) + rng() % (Tick{1} << 40)}) {
            EventQueue eq;
            ClockDomain clk(eq, "clk", 1 + rng() % 1'000'000);
            // setFrequencyMHz() at tick `start` moves the origin there.
            eq.schedule(start, [&] { clk.setFrequencyMHz(mhz); });
            eq.run();
            const Tick period = clk.period();
            Tick t = start;
            for (int q = 0; q < 400; ++q) {
                switch (rng() % 4) {
                  case 0: t += rng() % (2 * period + 1); break;
                  case 1: t += rng() % (Tick{1} << 20); break;
                  case 2: t = start + rng() % (Tick{1} << 52); break;
                  default: t = start + (rng() % 64) * period; break;
                }
                ASSERT_EQ(clk.edgeAtOrAfter(t), reference(start, period, t))
                    << "mhz " << mhz << " origin " << start << " t " << t;
                ++checked;
            }
        }
    }
    EXPECT_EQ(checked, mhzs.size() * 3 * 400);
}

TEST(Clock, ScheduleAtEdge)
{
    EventQueue eq;
    ClockDomain clk(eq, "sys", 100); // 10 ns
    Tick fired = 0;
    eq.schedule(12'345, [&] {
        clk.scheduleAtEdge(2, [&] { fired = eq.now(); });
    });
    eq.run();
    // Next edge at-or-after 12,345 is 20,000; +2 cycles = 40,000.
    EXPECT_EQ(fired, 40'000u);
}

CoTask<int>
fib(EventQueue &eq, int n)
{
    if (n <= 1)
        co_return n;
    int a = co_await fib(eq, n - 1);
    int b = co_await fib(eq, n - 2);
    co_return a + b;
}

TEST(Task, DeepNestedSubtasks)
{
    EventQueue eq;
    int result = 0;
    spawn([](EventQueue &eq, int &result) -> CoTask<void> {
        result = co_await fib(eq, 12);
    }(eq, result));
    eq.run();
    EXPECT_EQ(result, 144);
}

TEST(Task, ClockDelayAdvancesTime)
{
    EventQueue eq;
    ClockDomain clk(eq, "sys", 1000);
    std::vector<Tick> stamps;
    spawn([](EventQueue &eq, ClockDomain &clk,
             std::vector<Tick> &stamps) -> CoTask<void> {
        stamps.push_back(eq.now());
        co_await ClockDelay(clk, 5);
        stamps.push_back(eq.now());
        co_await ClockDelay(clk, 3);
        stamps.push_back(eq.now());
    }(eq, clk, stamps));
    eq.run();
    ASSERT_EQ(stamps.size(), 3u);
    EXPECT_EQ(stamps[0], 0u);
    EXPECT_EQ(stamps[1], 5000u);
    EXPECT_EQ(stamps[2], 8000u);
}

TEST(Task, TwoThreadsInterleaveDeterministically)
{
    EventQueue eq;
    ClockDomain fast(eq, "fast", 1000); // 1 ns
    ClockDomain slow(eq, "slow", 200);  // 5 ns
    std::vector<std::pair<char, Tick>> log;
    auto thread = [](ClockDomain &clk, char id, int iters,
                     std::vector<std::pair<char, Tick>> &log,
                     EventQueue &eq) -> CoTask<void> {
        for (int i = 0; i < iters; ++i) {
            co_await ClockDelay(clk, 1);
            log.emplace_back(id, eq.now());
        }
    };
    spawn(thread(fast, 'F', 10, log, eq));
    spawn(thread(slow, 'S', 2, log, eq));
    eq.run();
    EXPECT_EQ(log.size(), 12u);
    // Slow thread ticks at 5 ns and 10 ns; fast at 1..10 ns.
    int slow_count = 0;
    for (auto &[id, t] : log)
        if (id == 'S') {
            ++slow_count;
            EXPECT_EQ(t % 5000, 0u);
        }
    EXPECT_EQ(slow_count, 2);
}

TEST(Stats, CounterAndSample)
{
    Counter c;
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
}

TEST(Stats, RegistryLookupAndDump)
{
    StatRegistry reg;
    Counter c;
    c.inc(7);
    reg.registerCounter("l2.hits", &c);
    ASSERT_NE(reg.findCounter("l2.hits"), nullptr);
    EXPECT_EQ(reg.findCounter("l2.hits")->value(), 7u);
    EXPECT_EQ(reg.findCounter("nope"), nullptr);

    std::ostringstream os;
    reg.dump(os);
    EXPECT_NE(os.str().find("l2.hits 7"), std::string::npos);
}

TEST(LatencyTrace, AccumulatesPerCategory)
{
    LatencyTrace t;
    t.add(LatencyTrace::Cat::NoC, 10);
    t.add(LatencyTrace::Cat::NoC, 5);
    t.add(LatencyTrace::Cat::Cdc, 20);
    EXPECT_EQ(t.get(LatencyTrace::Cat::NoC), 15u);
    EXPECT_EQ(t.get(LatencyTrace::Cat::Cdc), 20u);
    EXPECT_EQ(t.get(LatencyTrace::Cat::FastCache), 0u);
    EXPECT_EQ(t.total(), 35u);
    t.reset();
    EXPECT_EQ(t.total(), 0u);
}

/** Sends every key to slot 0: the whole table is one probe run. */
struct OneHomeHash
{
    std::uint64_t operator()(std::uint32_t) const { return 0; }
};

TEST(FlatTable, CollidingKeysSurviveInterleavedTakes)
{
    // Every key shares one home slot, so each take() from the middle of
    // the run must backward-shift the later keys closed, across several
    // doublings from 16 slots, without stranding any of them.
    FlatTable<std::uint32_t, std::uint64_t, 0, OneHomeHash> t;
    std::map<std::uint32_t, std::uint64_t> model;
    std::mt19937 rng(7);
    std::uint32_t next = 1;
    for (int step = 0; step < 400; ++step) {
        if (model.empty() || rng() % 3 != 0) {
            t.insert(next, next * 10ull);
            model[next] = next * 10ull;
            ++next;
        } else {
            auto victim = model.begin();
            std::advance(victim, rng() % model.size());
            std::optional<std::uint64_t> v = t.take(victim->first);
            ASSERT_TRUE(v.has_value()) << "key " << victim->first;
            EXPECT_EQ(*v, victim->second);
            model.erase(victim);
        }
        ASSERT_EQ(t.size(), model.size());
    }
    for (std::uint32_t k = 1; k < next; ++k) {
        auto it = model.find(k);
        const std::uint64_t *v = t.find(k);
        if (it == model.end()) {
            EXPECT_EQ(v, nullptr) << "taken key " << k << " still found";
            EXPECT_FALSE(t.take(k).has_value());
        } else {
            ASSERT_NE(v, nullptr) << "surviving key " << k << " lost";
            EXPECT_EQ(*v, it->second);
        }
    }

    // Get-or-create agrees with find().
    EXPECT_EQ(t[next], 0u);
    t[next] = 5;
    EXPECT_EQ(*t.find(next), 5u);
    EXPECT_EQ(t.take(next), std::optional<std::uint64_t>(5));
    EXPECT_FALSE(t.contains(next));
}

TEST(FlatTable, EmptyKeyIsNeverFound)
{
    // A stray id equal to the empty key (a response with txn id 0) must
    // read as unknown, not hit a free slot and corrupt the count.
    FlatTable<std::uint32_t, std::uint64_t, 0> t;
    EXPECT_EQ(t.find(0), nullptr);
    EXPECT_FALSE(t.take(0).has_value());
    t.insert(1, 10);
    t.insert(2, 20);
    EXPECT_EQ(t.find(0), nullptr);
    EXPECT_FALSE(t.contains(0));
    EXPECT_FALSE(t.take(0).has_value());
    EXPECT_EQ(t.size(), 2u);
    EXPECT_EQ(*t.find(1), 10u);
    EXPECT_EQ(*t.find(2), 20u);
}

} // namespace
} // namespace duet
