/**
 * @file
 * Integration tests of the application benchmarks: functional correctness
 * in every system mode, plus the headline performance shapes of Fig. 12
 * (Duet beats FPSoC; HA baselines degrade under contention).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/config.hh"
#include "system/system.hh"
#include "workload/apps.hh"

namespace duet
{
namespace
{

TEST(AppRegistry, ThirteenConfigsInPaperOrder)
{
    const auto &apps = allApps();
    ASSERT_EQ(apps.size(), 13u);
    EXPECT_EQ(apps.front().name, "tangent");
    EXPECT_EQ(apps.back().name, "bfs/16");
    EXPECT_EQ(apps[6].name, "barnes-hut");
    EXPECT_EQ(apps[6].p, 4u);
    EXPECT_EQ(apps[6].m, 1u);
}

TEST(AppRegistry, SpecsCarryResolvedRegistryParams)
{
    for (const AppSpec &spec : allApps()) {
        ASSERT_NE(spec.workload, nullptr) << spec.name;
        EXPECT_EQ(spec.p, spec.params.cores) << spec.name;
        EXPECT_EQ(spec.m, spec.params.memHubs) << spec.name;
        EXPECT_GT(spec.params.size, 0u) << spec.name;
    }
}

struct ModeTriple
{
    AppResult cpu, fpsoc, duet;
};

ModeTriple
runAll(const std::string &name, WorkloadParams p = {})
{
    return {runApp(name, SystemMode::CpuOnly, p),
            runApp(name, SystemMode::Fpsoc, p),
            runApp(name, SystemMode::Duet, p)};
}

void
expectShape(const ModeTriple &t, bool duet_beats_cpu = true)
{
    EXPECT_TRUE(t.cpu.correct);
    EXPECT_TRUE(t.fpsoc.correct);
    EXPECT_TRUE(t.duet.correct);
    // Duet always beats the FPSoC baseline (the paper's core claim).
    EXPECT_LT(t.duet.runtime, t.fpsoc.runtime);
    if (duet_beats_cpu) {
        EXPECT_LT(t.duet.runtime, t.cpu.runtime);
    }
}

TEST(Apps, Tangent)
{
    expectShape(runAll("tangent"));
}

TEST(Apps, Popcount)
{
    expectShape(runAll("popcount"));
}

TEST(Apps, Sort32)
{
    expectShape(runAll("sort", {.size = 32}));
}

TEST(Apps, Sort128)
{
    expectShape(runAll("sort", {.size = 128}));
}

TEST(Apps, SortSpeedupGrowsWithSliceSize)
{
    // Paper: sort/128 > sort/64 > sort/32 (fewer merge levels).
    Tick t32 = runApp("sort", SystemMode::Duet, {.size = 32}).runtime;
    Tick t64 = runApp("sort", SystemMode::Duet, {.size = 64}).runtime;
    Tick t128 = runApp("sort", SystemMode::Duet, {.size = 128}).runtime;
    EXPECT_LT(t64, t32);
    EXPECT_LT(t128, t64);
}

TEST(Apps, Dijkstra)
{
    expectShape(runAll("dijkstra"));
}

TEST(Apps, BarnesHut)
{
    expectShape(runAll("barnes_hut"));
}

TEST(Apps, Pdes4)
{
    expectShape(runAll("pdes", {.cores = 4}));
}

TEST(Apps, PdesBaselineDegradesWithCores)
{
    // The MCS-lock convoy makes the software baseline *slower* with more
    // cores while the widget-dispatch runtime stays flat.
    Tick b4 = runApp("pdes", SystemMode::CpuOnly, {.cores = 4}).runtime;
    Tick b16 = runApp("pdes", SystemMode::CpuOnly, {.cores = 16}).runtime;
    EXPECT_GT(b16, b4);
    Tick d4 = runApp("pdes", SystemMode::Duet, {.cores = 4}).runtime;
    Tick d16 = runApp("pdes", SystemMode::Duet, {.cores = 16}).runtime;
    EXPECT_LT(d16, 2 * d4);
}

TEST(Apps, Bfs4)
{
    expectShape(runAll("bfs", {.cores = 4}));
}

TEST(Apps, BfsSuperlinearScalingFromBaselineContention)
{
    // Paper Sec. V-D: superlinear speedup scaling 4 -> 8 cores because
    // the baseline degrades under lock contention.
    AppResult c4 = runApp("bfs", SystemMode::CpuOnly, {.cores = 4});
    AppResult c8 = runApp("bfs", SystemMode::CpuOnly, {.cores = 8});
    AppResult d4 = runApp("bfs", SystemMode::Duet, {.cores = 4});
    AppResult d8 = runApp("bfs", SystemMode::Duet, {.cores = 8});
    ASSERT_TRUE(c4.correct && c8.correct && d4.correct && d8.correct);
    double s4 = double(c4.runtime) / d4.runtime;
    double s8 = double(c8.runtime) / d8.runtime;
    EXPECT_GT(s8, 1.5 * s4); // superlinear in core count
}

TEST(WarmStart, LeaseReusesCompatibleSystem)
{
    // Two leases with identical geometry, taken back to back: whatever
    // the cache held before, the second lease must reuse (reset) the
    // System the first one parked.
    SystemConfig base;
    base.mode = SystemMode::Duet;
    const SystemConfig cfg = appConfig(1, 1, base);
    {
        SystemLease lease(cfg);
        EXPECT_NE(&*lease, nullptr);
    }
    {
        SystemLease lease(cfg);
        EXPECT_TRUE(lease.warm());
    }
}

TEST(WarmStart, LeaseIsColdWhileASystemBuiltAfterTheSlotsIsAlive)
{
    // A warm lease needs the slot's System current, or the frames its
    // run spawns would join another System's pool and outlive the next
    // reset(). While a System built after the slot's is alive, a lease
    // gets a fresh System; once that System is gone, the next is warm.
    SystemConfig base;
    base.mode = SystemMode::Duet;
    const SystemConfig cfg = appConfig(1, 1, base);
    std::thread([&] {
        {
            SystemLease seed(cfg);
            EXPECT_FALSE(seed.warm());
        }
        {
            System newer(cfg);
            SystemLease lease(cfg);
            EXPECT_FALSE(lease.warm());
        }
        SystemLease lease(cfg);
        EXPECT_TRUE(lease.warm());
    }).join();
}

TEST(WarmStart, LeaseStaysWarmAfterAnOlderSystemIsDestroyed)
{
    // Destroying a System built before the slot's leaves the slot's
    // System current, so the next lease still reuses it.
    SystemConfig base;
    base.mode = SystemMode::Duet;
    const SystemConfig cfg = appConfig(1, 1, base);
    std::thread([&] {
        auto older = std::make_unique<System>(cfg);
        {
            SystemLease seed(cfg);
            EXPECT_FALSE(seed.warm());
        }
        older.reset();
        SystemLease lease(cfg);
        EXPECT_TRUE(lease.warm());
    }).join();
}

TEST(WarmStart, ResetRunIsByteIdenticalToColdRun)
{
    // The warm-start contract: a run on a reset System is
    // indistinguishable from a run on a fresh one. Run the same scenario
    // twice on this thread — the second run rides the thread-local warm
    // cache — and compare the final tick and the complete stats dump
    // byte for byte.
    std::vector<std::string> dumps;
    auto observe = [&](System &sys) {
        std::ostringstream os;
        sys.stats().dump(os);
        dumps.push_back(os.str());
    };
    SystemConfig base;
    base.mode = SystemMode::Duet;
    base.observer = observe;
    const Workload *w = findWorkload("sort");
    ASSERT_NE(w, nullptr);
    WorkloadParams p{.size = 64};
    std::string err;
    ASSERT_TRUE(resolveParams(*w, p, err)) << err;
    const AppResult cold = runWorkload(*w, p, base);
    const AppResult warm = runWorkload(*w, p, base);
    EXPECT_TRUE(cold.correct);
    EXPECT_TRUE(warm.correct);
    EXPECT_EQ(cold.runtime, warm.runtime);
    ASSERT_EQ(dumps.size(), 2u);
    EXPECT_EQ(dumps[0], dumps[1]);
}

TEST(WarmStart, LeaseOfAnyGeometryIsByteIdenticalToAColdRun)
{
    // A lease rebuilds the thread's System through System::reset()
    // whatever geometry it held before. On one thread, run the 21
    // default Fig. 12 rows and the four serve_mix cache-ladder rungs in
    // a seeded shuffled order: every lease after the first must be
    // warm, and each run must match the same scenario run on a fresh
    // thread, whose empty lease slot builds the System cold.
    struct Scenario
    {
        const Workload *w;
        SystemMode mode;
        unsigned l2KiB = 0;
        unsigned l3KiB = 0;
    };
    std::vector<Scenario> scenarios;
    for (const Workload &w : workloadRegistry())
        for (SystemMode m :
             {SystemMode::Duet, SystemMode::CpuOnly, SystemMode::Fpsoc})
            scenarios.push_back({&w, m});
    ASSERT_EQ(scenarios.size(), 21u);
    const std::pair<unsigned, unsigned> rungs[] = {
        {4, 32}, {4, 256}, {16, 32}, {16, 256}};
    for (std::size_t k = 0; k < std::size(rungs); ++k) {
        Scenario sc = scenarios[k];
        sc.l2KiB = rungs[k].first;
        sc.l3KiB = rungs[k].second;
        scenarios.push_back(sc);
    }
    std::mt19937 rng(20231);
    std::shuffle(scenarios.begin(), scenarios.end(), rng);

    struct Outcome
    {
        Tick runtime = 0;
        bool correct = false;
        std::string stats;
    };
    auto run = [](const Scenario &sc) {
        Outcome out;
        auto observe = [&out](System &sys) {
            std::ostringstream os;
            sys.stats().dump(os);
            out.stats = os.str();
        };
        SystemConfig base;
        base.mode = sc.mode;
        if (sc.l2KiB != 0)
            base.l2.sizeBytes = sc.l2KiB * 1024;
        if (sc.l3KiB != 0)
            base.l3.sizeBytes = sc.l3KiB * 1024;
        base.observer = observe;
        WorkloadParams p;
        std::string err;
        EXPECT_TRUE(resolveParams(*sc.w, p, err)) << err;
        const AppResult res = runWorkload(*sc.w, p, base);
        out.runtime = res.runtime;
        out.correct = res.correct;
        return out;
    };

    std::vector<Outcome> warm;
    LeaseStats leases;
    std::thread([&] {
        for (const Scenario &sc : scenarios)
            warm.push_back(run(sc));
        leases = leaseStats();
    }).join();
    EXPECT_GE(leases.total, scenarios.size());
    EXPECT_EQ(leases.warm, leases.total - 1);

    ASSERT_EQ(warm.size(), scenarios.size());
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        const Scenario &sc = scenarios[i];
        const std::string name = sc.w->name + "/" +
                                 systemModeName(sc.mode) + " l2=" +
                                 std::to_string(sc.l2KiB) + " l3=" +
                                 std::to_string(sc.l3KiB);
        Outcome cold;
        std::thread([&] { cold = run(sc); }).join();
        EXPECT_TRUE(cold.correct) << name;
        EXPECT_TRUE(warm[i].correct) << name;
        EXPECT_EQ(warm[i].runtime, cold.runtime) << name;
        EXPECT_EQ(warm[i].stats, cold.stats) << name;
    }
}

TEST(WarmStart, LeaseAfterAPanickingRebuildIsWarmAndCorrect)
{
    // A shape the hardware cannot take (3 L2 ways: 170 sets) panics in
    // build(). The slot stays free, so the next lease rebuilds the same
    // System from its half-built state and runs like a cold one.
    const Workload *w = findWorkload("tangent");
    ASSERT_NE(w, nullptr);
    WorkloadParams p;
    std::string err;
    ASSERT_TRUE(resolveParams(*w, p, err)) << err;
    SystemConfig bad;
    bad.l2.ways = 3;
    AppResult before, after;
    LeaseStats leases;
    std::thread([&] {
        before = runWorkload(*w, p, SystemConfig{});
        EXPECT_THROW(SystemLease lease(bad), SimPanic);
        after = runWorkload(*w, p, SystemConfig{});
        leases = leaseStats();
    }).join();
    // Cold, panicked (not counted warm), warm.
    EXPECT_EQ(leases.total, 3u);
    EXPECT_EQ(leases.warm, 1u);
    EXPECT_TRUE(after.correct);
    EXPECT_EQ(before.runtime, after.runtime);
}

TEST(Apps, ProblemSizeScalesRuntime)
{
    // Doubling the BFS graph roughly scales the baseline's work; the
    // point here is that --size reaches the workload at all.
    Tick small = runApp("bfs", SystemMode::CpuOnly, {.size = 64}).runtime;
    Tick large = runApp("bfs", SystemMode::CpuOnly, {.size = 512}).runtime;
    EXPECT_GT(large, small);
}

/** What a cpu-only row sized to spill its L2s leaves behind, read by the
 *  observer before teardown the way perfbench reads it. */
struct SpillOutcome
{
    bool correct = false;
    std::uint64_t events = 0;
    Tick ticks = 0;
    std::size_t dirEntries = 0; ///< live directory entries, all shards
    std::size_t l2Lines = 0;    ///< line capacity of all L2s
    std::size_t unheld = 0;     ///< live entries no private cache holds
};

SpillOutcome
runSpillingRow(const char *name, unsigned size)
{
    const Workload *w = findWorkload(name);
    EXPECT_NE(w, nullptr) << name;
    if (w == nullptr)
        return {};
    WorkloadParams p{.size = size};
    std::string err;
    EXPECT_TRUE(resolveParams(*w, p, err)) << err;
    SpillOutcome out;
    auto observe = [&out](System &sys) {
        out.events += sys.eventQueue().executed();
        out.ticks = sys.eventQueue().now();
        for (unsigned t = 0; t < sys.numTiles(); ++t) {
            out.l2Lines += sys.config().l2.sizeBytes / kLineBytes;
            const L3Shard &shard = sys.l3(t);
            for (Addr la : shard.dirEntries()) {
                ++out.dirEntries;
                if (shard.holders(la).empty())
                    ++out.unheld;
            }
        }
    };
    SystemConfig cfg;
    cfg.mode = SystemMode::CpuOnly;
    cfg.observer = observe;
    out.correct = runWorkload(*w, p, cfg).correct;
    return out;
}

// Two cpu_spill rows (perfbench/reference.json) pinned in ctest: the
// Fig. 12 goldens run default sizes, where the directory hardly churns.
// Lines evicted from every L2 leave the directory, so at the end it
// holds no more entries than the L2s hold lines, each one cached.
TEST(SpillingRows, PopcountCpu8192MatchesReferenceWithAHeldDirectory)
{
    const SpillOutcome r = runSpillingRow("popcount", 8192);
    EXPECT_TRUE(r.correct);
    EXPECT_EQ(r.events, 1'614'065u);
    EXPECT_EQ(r.ticks, 5'548'176'000u);
    EXPECT_GT(r.dirEntries, 0u);
    EXPECT_LE(r.dirEntries, r.l2Lines);
    EXPECT_EQ(r.unheld, 0u);
}

TEST(SpillingRows, DijkstraCpu2048MatchesReferenceWithAHeldDirectory)
{
    const SpillOutcome r = runSpillingRow("dijkstra", 2048);
    EXPECT_TRUE(r.correct);
    EXPECT_EQ(r.events, 810'267u);
    EXPECT_EQ(r.ticks, 2'191'234'000u);
    EXPECT_GT(r.dirEntries, 0u);
    EXPECT_LE(r.dirEntries, r.l2Lines);
    EXPECT_EQ(r.unheld, 0u);
}

} // namespace
} // namespace duet
