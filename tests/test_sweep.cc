/**
 * @file
 * Tests of the workload registry and the `--sweep` batch runner:
 * range-list parsing, cross-product expansion, CSV / JSON-lines
 * aggregation, registry lookup and parameter resolution, seed
 * plumbing, and the Fig. 12 table surviving the registry refactor
 * byte-identical in names and order.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/config.hh"
#include "sim/sweep.hh"
#include "workload/apps.hh"

namespace duet
{
namespace
{

// ------------------------- range parsing ------------------------------

TEST(RangeList, CommaList)
{
    std::vector<unsigned> out;
    std::string err;
    ASSERT_TRUE(parseRangeList("4,8,16", out, err)) << err;
    EXPECT_EQ(out, (std::vector<unsigned>{4, 8, 16}));
}

TEST(RangeList, LinearRange)
{
    std::vector<unsigned> out;
    std::string err;
    ASSERT_TRUE(parseRangeList("4:16:4", out, err)) << err;
    EXPECT_EQ(out, (std::vector<unsigned>{4, 8, 12, 16}));
}

TEST(RangeList, RangeWithDefaultStep)
{
    std::vector<unsigned> out;
    std::string err;
    ASSERT_TRUE(parseRangeList("2:5", out, err)) << err;
    EXPECT_EQ(out, (std::vector<unsigned>{2, 3, 4, 5}));
}

TEST(RangeList, MixedElements)
{
    std::vector<unsigned> out;
    std::string err;
    ASSERT_TRUE(parseRangeList("1,4:8:2,32", out, err)) << err;
    EXPECT_EQ(out, (std::vector<unsigned>{1, 4, 6, 8, 32}));
}

TEST(RangeList, MalformedInputsAreRejectedWithDiagnostics)
{
    std::vector<unsigned> out;
    std::string err;
    EXPECT_FALSE(parseRangeList("", out, err));
    EXPECT_FALSE(parseRangeList("4,,8", out, err));
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(parseRangeList("abc", out, err));
    EXPECT_FALSE(parseRangeList("4:", out, err));
    EXPECT_FALSE(parseRangeList("8:4", out, err)); // descending
    EXPECT_FALSE(parseRangeList("4:8:0", out, err)); // zero step
    EXPECT_FALSE(parseRangeList("1:2:3:4", out, err)); // too many colons
    EXPECT_FALSE(parseRangeList("-4", out, err));
}

TEST(RangeList, HugeRangesAreRejectedNotExpanded)
{
    // Overflow-adjacent ranges must terminate (the naive `v += step`
    // loop wraps at 2^64) and oversized axes must be rejected before
    // expansion eats memory.
    std::vector<std::uint64_t> out;
    std::string err;
    const std::string max = std::to_string(~0ull);
    ASSERT_TRUE(parseSeedList(max + ":" + max, out, err)) << err;
    EXPECT_EQ(out, (std::vector<std::uint64_t>{~0ull}));

    out.clear();
    EXPECT_FALSE(parseSeedList("0:" + max, out, err));
    EXPECT_NE(err.find("expands past"), std::string::npos);

    std::vector<unsigned> narrow;
    EXPECT_FALSE(parseRangeList("1:1000000", narrow, err));
}

// ------------------------- registry -----------------------------------

TEST(Registry, LookupFindsEveryRegisteredWorkload)
{
    EXPECT_EQ(workloadRegistry().size(), 7u);
    for (const Workload &w : workloadRegistry()) {
        const Workload *found = findWorkload(w.name);
        ASSERT_NE(found, nullptr) << w.name;
        EXPECT_EQ(found, &w);
    }
    EXPECT_EQ(findWorkload("no-such-benchmark"), nullptr);
    EXPECT_EQ(findWorkload(""), nullptr);
}

TEST(Registry, ResolveFillsDefaults)
{
    const Workload *bfs = findWorkload("bfs");
    ASSERT_NE(bfs, nullptr);
    WorkloadParams p;
    std::string err;
    ASSERT_TRUE(resolveParams(*bfs, p, err)) << err;
    EXPECT_EQ(p.cores, 4u);
    EXPECT_EQ(p.memHubs, 0u);
    EXPECT_EQ(p.size, 256u);
    EXPECT_EQ(p.seed, 777u);
}

TEST(Registry, ResolveRejectsOutOfBoundsSize)
{
    const Workload *sort = findWorkload("sort");
    ASSERT_NE(sort, nullptr);
    WorkloadParams p{0, 0, 57, 0};
    std::string err;
    EXPECT_FALSE(resolveParams(*sort, p, err));
    EXPECT_NE(err.find("57"), std::string::npos);

    const Workload *bfs = findWorkload("bfs");
    WorkloadParams q{0, 0, 1 << 20, 0};
    EXPECT_FALSE(resolveParams(*bfs, q, err));
}

TEST(Registry, ResolveIgnoresInapplicableAxes)
{
    // Fixed-topology workloads absorb a sweep's cores axis; workloads
    // with deterministic inputs absorb its seed axis.
    const Workload *sort = findWorkload("sort");
    WorkloadParams p{8, 0, 0, 0};
    std::string err;
    ASSERT_TRUE(resolveParams(*sort, p, err)) << err;
    EXPECT_EQ(p.cores, 1u);

    const Workload *pdes = findWorkload("pdes");
    WorkloadParams q{0, 0, 0, 12345};
    ASSERT_TRUE(resolveParams(*pdes, q, err)) << err;
    EXPECT_EQ(q.seed, 0u);
}

TEST(Registry, Fig12TableSurvivesRefactorByteIdentical)
{
    // The full 13-entry Fig. 12 table: names, order, accel keys and the
    // Dolly-PpMm shapes exactly as the seed hard-coded them.
    struct Row
    {
        const char *name, *accelKey;
        unsigned p, m;
    };
    const Row want[] = {
        {"tangent", "tangent", 1, 0},   {"popcount", "popcount", 1, 1},
        {"sort/32", "sort32", 1, 2},    {"sort/64", "sort64", 1, 2},
        {"sort/128", "sort128", 1, 2},  {"dijkstra", "dijkstra", 1, 1},
        {"barnes-hut", "barnes-hut", 4, 1}, {"pdes/4", "pdes", 4, 1},
        {"pdes/8", "pdes", 8, 1},       {"pdes/16", "pdes", 16, 1},
        {"bfs/4", "bfs", 4, 0},         {"bfs/8", "bfs", 8, 0},
        {"bfs/16", "bfs", 16, 0},
    };
    const auto &apps = allApps();
    ASSERT_EQ(apps.size(), std::size(want));
    for (std::size_t i = 0; i < apps.size(); ++i) {
        EXPECT_EQ(apps[i].name, want[i].name) << i;
        EXPECT_EQ(apps[i].accelKey, want[i].accelKey) << i;
        EXPECT_EQ(apps[i].p, want[i].p) << i;
        EXPECT_EQ(apps[i].m, want[i].m) << i;
    }
}

// ------------------------- expansion ----------------------------------

TEST(Expand, CrossProductOrderAndCount)
{
    SweepSpec spec;
    spec.workloads = "bfs,sort";
    spec.modes = "duet,cpu";
    spec.cores = "4,8";
    std::vector<SweepScenario> out;
    std::string err;
    ASSERT_TRUE(expandSweep(spec, out, err)) << err;
    // Workload-major, then mode, then cores: 2 x 2 x 2 = 8 scenarios.
    ASSERT_EQ(out.size(), 8u);
    EXPECT_EQ(out[0].workload->name, "bfs");
    EXPECT_EQ(out[0].mode, SystemMode::Duet);
    EXPECT_EQ(out[0].params.cores, 4u);
    EXPECT_EQ(out[1].params.cores, 8u);
    EXPECT_EQ(out[2].mode, SystemMode::CpuOnly);
    EXPECT_EQ(out[4].workload->name, "sort");
    // sort's topology is fixed: the cores axis resolves to 1 core.
    EXPECT_EQ(out[4].params.cores, 1u);
    EXPECT_EQ(out[4].params.size, 64u); // default slice size
}

TEST(Expand, ModeAllAndDefaults)
{
    SweepSpec spec;
    spec.workloads = "tangent";
    spec.modes = "all";
    std::vector<SweepScenario> out;
    std::string err;
    ASSERT_TRUE(expandSweep(spec, out, err)) << err;
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0].params.size, 400u); // registry default
    EXPECT_EQ(out[0].params.seed, 12345u);
}

TEST(Expand, RejectsUnknownWorkloadAndMode)
{
    std::vector<SweepScenario> out;
    std::string err;
    SweepSpec spec;
    spec.workloads = "bfs,frobnicate";
    EXPECT_FALSE(expandSweep(spec, out, err));
    EXPECT_NE(err.find("frobnicate"), std::string::npos);

    spec = SweepSpec{};
    spec.modes = "duet,warp";
    out.clear();
    EXPECT_FALSE(expandSweep(spec, out, err));
    EXPECT_NE(err.find("warp"), std::string::npos);

    // 'all' already expands to every mode; inside a list it would
    // duplicate scenarios, so it must be rejected with a clear message.
    spec = SweepSpec{};
    spec.modes = "all,cpu";
    out.clear();
    EXPECT_FALSE(expandSweep(spec, out, err));
    EXPECT_NE(err.find("all"), std::string::npos);
}

TEST(SweepRun, OnRowCallbackStreamsEveryRow)
{
    SweepSpec spec;
    spec.workloads = "popcount";
    spec.modes = "duet,cpu";
    spec.sizes = "4";
    std::vector<SweepScenario> scenarios;
    std::string err;
    ASSERT_TRUE(expandSweep(spec, scenarios, err)) << err;

    SystemConfig base;
    std::ostringstream streamed;
    writeCsvHeader(streamed);
    std::vector<SweepRow> rows =
        runSweep(scenarios, base, nullptr, [&](const SweepRow &row) {
            writeCsvRow(streamed, row);
        });
    // The streamed output matches the batch writer byte for byte.
    std::ostringstream batch;
    writeCsv(batch, rows);
    EXPECT_EQ(streamed.str(), batch.str());
}

TEST(Expand, RejectsOutOfBoundsSizeCombination)
{
    SweepSpec spec;
    spec.workloads = "sort";
    spec.sizes = "32,500";
    std::vector<SweepScenario> out;
    std::string err;
    EXPECT_FALSE(expandSweep(spec, out, err));
    EXPECT_NE(err.find("500"), std::string::npos);
}

TEST(Expand, SeedZeroIsRejected)
{
    // 0 is the "workload default" sentinel; accepting it would silently
    // rerun the default seed instead of a user-chosen one.
    SweepSpec spec;
    spec.workloads = "popcount";
    spec.seeds = "0,1";
    std::vector<SweepScenario> out;
    std::string err;
    EXPECT_FALSE(expandSweep(spec, out, err));
    EXPECT_NE(err.find("reserved"), std::string::npos);
}

TEST(Expand, ZeroAxisValuesAreRejected)
{
    // An explicit 0 would resolve to the workload default and silently
    // duplicate scenarios.
    SweepSpec spec;
    spec.workloads = "bfs";
    spec.cores = "0:16:4";
    std::vector<SweepScenario> out;
    std::string err;
    EXPECT_FALSE(expandSweep(spec, out, err));
    EXPECT_NE(err.find("--cores"), std::string::npos);

    spec = SweepSpec{};
    spec.workloads = "bfs";
    spec.sizes = "0,64";
    out.clear();
    EXPECT_FALSE(expandSweep(spec, out, err));
    EXPECT_NE(err.find("--size"), std::string::npos);
}

TEST(Expand, CrossProductIsCapped)
{
    SweepSpec spec;
    spec.workloads = "bfs";
    spec.modes = "all";
    spec.cores = "1:16";
    spec.sizes = "2:1024";
    spec.seeds = "1:4096";
    std::vector<SweepScenario> out;
    std::string err;
    EXPECT_FALSE(expandSweep(spec, out, err));
    EXPECT_NE(err.find("scenarios"), std::string::npos);
    EXPECT_TRUE(out.empty());
}

TEST(Expand, SeedAxisMultipliesScenarios)
{
    SweepSpec spec;
    spec.workloads = "popcount";
    spec.seeds = "1,2,3";
    std::vector<SweepScenario> out;
    std::string err;
    ASSERT_TRUE(expandSweep(spec, out, err)) << err;
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0].params.seed, 1u);
    EXPECT_EQ(out[2].params.seed, 3u);
}

// ------------------------- CLI flag layer -----------------------------

ParseStatus
parseArgs(std::vector<const char *> args, SimOptions &opts,
          std::string &err)
{
    args.insert(args.begin(), "duet_sim");
    return parseSimOptions(static_cast<int>(args.size()),
                           const_cast<char **>(args.data()), opts, err);
}

TEST(Flags, SingleRunRejectsListsAndSweepOnlyFlags)
{
    SimOptions opts;
    std::string err;
    EXPECT_EQ(parseArgs({"--cores", "4,8"}, opts, err), ParseStatus::Error);
    EXPECT_NE(err.find("--sweep"), std::string::npos);

    opts = SimOptions{};
    EXPECT_EQ(parseArgs({"--csv", "x.csv"}, opts, err), ParseStatus::Error);

    opts = SimOptions{};
    EXPECT_EQ(parseArgs({"--seed", "0"}, opts, err), ParseStatus::Error);
}

TEST(Flags, SweepRejectsSingleRunOutputFlags)
{
    // Silently printing the table would break a consumer expecting JSON.
    SimOptions opts;
    std::string err;
    EXPECT_EQ(parseArgs({"--sweep", "--json"}, opts, err),
              ParseStatus::Error);
    opts = SimOptions{};
    EXPECT_EQ(parseArgs({"--sweep", "--stats"}, opts, err),
              ParseStatus::Error);
    opts = SimOptions{};
    EXPECT_EQ(parseArgs({"--sweep", "--csv", "-", "--cores", "4,8"}, opts,
                        err),
              ParseStatus::Ok)
        << err;
    EXPECT_EQ(opts.coresSpec, "4,8");
}

TEST(Flags, DeriveRejectsSimulationFlagsAndSweep)
{
    // Derive mode simulates nothing: a scenario-selection or system-
    // shape flag could only mislead, so both are hard errors.
    SimOptions opts;
    std::string err;
    EXPECT_EQ(parseArgs({"--derive", "x.jsonl", "--workload", "bfs"},
                        opts, err),
              ParseStatus::Error);
    opts = SimOptions{};
    EXPECT_EQ(parseArgs({"--derive", "x.jsonl", "--l2-kib", "64"}, opts,
                        err),
              ParseStatus::Error);
    EXPECT_NE(err.find("--derive"), std::string::npos);
    opts = SimOptions{};
    EXPECT_EQ(parseArgs({"--derive", "x.jsonl", "--sweep"}, opts, err),
              ParseStatus::Error);
    opts = SimOptions{};
    EXPECT_EQ(parseArgs({"--derive", "x.jsonl", "--csv", "out.csv"},
                        opts, err),
              ParseStatus::Ok)
        << err;
    EXPECT_EQ(opts.derivePath, "x.jsonl");
}

TEST(Flags, JobsAndTimeoutAreSweepOnlyAndBounded)
{
    SimOptions opts;
    std::string err;
    EXPECT_EQ(parseArgs({"--jobs", "4"}, opts, err), ParseStatus::Error);
    EXPECT_NE(err.find("--sweep"), std::string::npos);
    opts = SimOptions{};
    EXPECT_EQ(parseArgs({"--sweep", "--jobs", "0"}, opts, err),
              ParseStatus::Error);
    opts = SimOptions{};
    EXPECT_EQ(parseArgs({"--scenario-timeout-s", "5"}, opts, err),
              ParseStatus::Error);
    opts = SimOptions{};
    EXPECT_EQ(parseArgs({"--sweep", "--jobs", "8",
                         "--scenario-timeout-s", "30"},
                        opts, err),
              ParseStatus::Ok)
        << err;
    EXPECT_EQ(opts.jobs, 8u);
    EXPECT_EQ(opts.scenarioTimeoutS, 30u);
}

TEST(Flags, FiguresRejectsOtherModesAndFlags)
{
    // The artifacts are the paper's fixed configurations: any mode,
    // selection, shape, output or pool flag would change what a figure
    // means, so everything but --paranoid is an error, on either side.
    const std::vector<std::vector<const char *>> others = {
        {"--sweep"},           {"--bench"},         {"--csv", "x.csv"},
        {"--workload", "bfs"}, {"--l2-kib", "64"}, {"--jobs", "4"}};
    for (const auto &extra : others) {
        for (bool before : {true, false}) {
            std::vector<const char *> args{"--figures", "figs"};
            args.insert(before ? args.begin() : args.end(), extra.begin(),
                        extra.end());
            SimOptions opts;
            std::string err;
            EXPECT_EQ(parseArgs(args, opts, err), ParseStatus::Error)
                << extra[0];
            EXPECT_NE(err.find("--figures"), std::string::npos) << err;
            EXPECT_NE(err.find(extra[0]), std::string::npos) << err;
        }
    }
    SimOptions opts;
    std::string err;
    EXPECT_EQ(parseArgs({"--paranoid", "--figures", "figs"}, opts, err),
              ParseStatus::Ok)
        << err;
    EXPECT_EQ(opts.figuresDir, "figs");
    EXPECT_TRUE(opts.paranoid);
    opts = SimOptions{};
    EXPECT_EQ(parseArgs({"--figures", ""}, opts, err), ParseStatus::Error);
}

// ------------------------- aggregation --------------------------------

SweepRow
makeRow(const char *workload, const char *app, const char *mode,
        unsigned cores, unsigned hubs, unsigned size, std::uint64_t seed,
        Tick runtime, bool correct)
{
    SweepRow r;
    r.workload = workload;
    r.app = app;
    r.mode = mode;
    r.cores = cores;
    r.memHubs = hubs;
    r.size = size;
    r.seed = seed;
    r.runtime = runtime;
    r.correct = correct;
    return r;
}

std::vector<SweepRow>
sampleRows()
{
    return {makeRow("bfs", "bfs/4", "duet", 4, 0, 256, 777,
                    123 * kTicksPerNs, true),
            makeRow("sort", "sort/64", "cpu", 1, 2, 64, 7,
                    456 * kTicksPerNs, false)};
}

TEST(Aggregate, CsvHasHeaderAndOneRowPerScenario)
{
    std::ostringstream os;
    writeCsv(os, sampleRows());
    std::istringstream is(os.str());
    std::string line;
    ASSERT_TRUE(std::getline(is, line));
    EXPECT_EQ(line,
              "workload,app,mode,cores,mem_hubs,size,seed,runtime_ticks,"
              "runtime_ns,speedup,area_mm2,adp_norm,correct");
    ASSERT_TRUE(std::getline(is, line));
    EXPECT_EQ(line, "bfs,bfs/4,duet,4,0,256,777," +
                        std::to_string(123 * kTicksPerNs) +
                        ",123,0.0000,0.0000,0.0000,true");
    ASSERT_TRUE(std::getline(is, line));
    EXPECT_EQ(line.substr(0, 9), "sort,sort");
    EXPECT_NE(line.find(",false"), std::string::npos);
    EXPECT_FALSE(std::getline(is, line)); // exactly header + 2 rows
}

TEST(Aggregate, TableEndsWithOneGeomeanLinePerMode)
{
    // Known speedups: duet 2x and 8x (geomean 4x, adp 0.5 and 0.125 ->
    // 0.25), one fpsoc row, and a duet row without a cpu partner that
    // must not enter the duet geomean.
    auto derived = [](SweepRow r, double speedup, double adp) {
        r.speedup = speedup;
        r.adpNorm = adp;
        return r;
    };
    const std::vector<SweepRow> rows{
        derived(makeRow("bfs", "bfs/4", "duet", 4, 0, 256, 777, 1, true),
                2.0, 0.5),
        derived(makeRow("bfs", "bfs/4", "cpu", 4, 0, 256, 777, 2, true),
                1.0, 1.0),
        derived(makeRow("sort", "sort/64", "duet", 1, 2, 64, 7, 1, true),
                8.0, 0.125),
        derived(makeRow("sort", "sort/64", "cpu", 1, 2, 64, 7, 8, true),
                1.0, 1.0),
        derived(makeRow("tangent", "tangent", "fpsoc", 1, 0, 400, 1, 1,
                        true),
                3.0, 0.75),
        makeRow("popcount", "popcount", "duet", 1, 1, 96, 99, 5, true)};
    std::ostringstream os;
    writeTable(os, rows);
    std::vector<std::string> lines;
    std::istringstream is(os.str());
    for (std::string line; std::getline(is, line);)
        lines.push_back(line);
    ASSERT_EQ(lines.size(), 1 + rows.size() + 3);
    // The metrics sit right-aligned under the speedup/adp_norm columns.
    const std::string pad(6 + 6 + 12 + 14 + 9 - 6, ' ');
    EXPECT_EQ(lines[7], "geomean     n=2         duet   " + pad + "4.0000" +
                            "    0.2500");
    EXPECT_EQ(lines[8], "geomean     n=2         cpu    " + pad + "1.0000" +
                            "    1.0000");
    EXPECT_EQ(lines[9], "geomean     n=1         fpsoc  " + pad + "3.0000" +
                            "    0.7500");

    // Rows without derived metrics (a sweep with no cpu rows) get no
    // geomean line: the table is the rows alone.
    std::ostringstream plain;
    writeTable(plain, sampleRows());
    EXPECT_EQ(plain.str().find("geomean"), std::string::npos);
}

// ------------------------- derived metrics ----------------------------

TEST(Derived, SpeedupAndAdpJoinTheMatchingCpuRow)
{
    // A duet/cpu pair and an odd-one-out (different size: no partner).
    std::vector<SweepRow> rows{
        makeRow("bfs", "bfs/4", "duet", 4, 0, 256, 777,
                100 * kTicksPerNs, true),
        makeRow("bfs", "bfs/4", "cpu", 4, 0, 256, 777,
                400 * kTicksPerNs, true),
        makeRow("bfs", "bfs/4", "duet", 4, 0, 512, 777,
                100 * kTicksPerNs, true)};
    addDerivedMetrics(rows);

    EXPECT_DOUBLE_EQ(rows[0].speedup, 4.0);
    EXPECT_DOUBLE_EQ(rows[1].speedup, 1.0); // the cpu row vs itself
    EXPECT_DOUBLE_EQ(rows[2].speedup, 0.0); // no partner -> n/a
    // Every row gets a silicon area; the Duet system carries the
    // adapter, so its area exceeds the CPU baseline's.
    EXPECT_GT(rows[1].areaMm2, 0.0);
    EXPECT_GT(rows[0].areaMm2, rows[1].areaMm2);
    // ADP normalized to the cpu row: cpu == 1 by construction; the duet
    // row ran 4x faster on a bigger system.
    EXPECT_DOUBLE_EQ(rows[1].adpNorm, 1.0);
    double expect = rows[0].areaMm2 * 100 / (rows[1].areaMm2 * 400);
    EXPECT_NEAR(rows[0].adpNorm, expect, 1e-12);
    EXPECT_DOUBLE_EQ(rows[2].adpNorm, 0.0);
}

TEST(Derived, AccelKeyTracksSizeDependentTableRows)
{
    const Workload *sort = findWorkload("sort");
    ASSERT_NE(sort, nullptr);
    EXPECT_EQ(sort->accelKeyFor(32), "sort32");
    EXPECT_EQ(sort->accelKeyFor(128), "sort128");
    const Workload *bfs = findWorkload("bfs");
    ASSERT_NE(bfs, nullptr);
    EXPECT_EQ(bfs->accelKeyFor(16384), "bfs");
}

TEST(Aggregate, JsonLinesOneObjectPerRow)
{
    std::ostringstream os;
    writeJsonLines(os, sampleRows());
    std::istringstream is(os.str());
    std::string line;
    ASSERT_TRUE(std::getline(is, line));
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"workload\": \"bfs\""), std::string::npos);
    EXPECT_NE(line.find("\"correct\": true"), std::string::npos);
    ASSERT_TRUE(std::getline(is, line));
    EXPECT_NE(line.find("\"correct\": false"), std::string::npos);
    EXPECT_FALSE(std::getline(is, line));
}

// ------------------------- end to end ---------------------------------

TEST(SweepRun, TinyCrossProductRunsAndAggregates)
{
    SweepSpec spec;
    spec.workloads = "popcount";
    spec.modes = "duet,cpu";
    spec.sizes = "8";
    std::vector<SweepScenario> scenarios;
    std::string err;
    ASSERT_TRUE(expandSweep(spec, scenarios, err)) << err;
    ASSERT_EQ(scenarios.size(), 2u);

    SystemConfig base;
    std::vector<SweepRow> rows = runSweep(scenarios, base, nullptr);
    ASSERT_EQ(rows.size(), 2u);
    for (const SweepRow &r : rows) {
        EXPECT_TRUE(r.correct) << r.workload << " " << r.mode;
        EXPECT_GT(r.runtime, 0u);
        EXPECT_EQ(r.size, 8u);
    }
    // Aggregation round-trip: 2 scenarios -> header + 2 CSV rows.
    std::ostringstream os;
    writeCsv(os, rows);
    unsigned lines = 0;
    std::istringstream is(os.str());
    for (std::string line; std::getline(is, line);)
        ++lines;
    EXPECT_EQ(lines, 3u);
}

TEST(SweepRun, ResultsStayCorrectAcrossSeeds)
{
    // The --seed satellite: graph/particle generators must produce a
    // valid (checked-against-host) run for any seed, and the seed must
    // actually reach the generator (different graphs -> different
    // runtimes for at least one of the alternate seeds).
    const Tick def =
        runApp("bfs", SystemMode::CpuOnly, {.size = 64}).runtime;
    bool any_different = false;
    for (std::uint64_t seed : {1ull, 424242ull, ~0ull}) {
        AppResult r = runApp("bfs", SystemMode::CpuOnly,
                             {.size = 64, .seed = seed});
        EXPECT_TRUE(r.correct) << "seed " << seed;
        any_different |= r.runtime != def;
    }
    EXPECT_TRUE(any_different);

    for (std::uint64_t seed : {3ull, 999999ull}) {
        EXPECT_TRUE(runApp("sort", SystemMode::Duet, {.seed = seed}).correct)
            << "seed " << seed;
        EXPECT_TRUE(runApp("dijkstra", SystemMode::Duet, {.seed = seed})
                        .correct)
            << "seed " << seed;
    }

    // tangent's tolerance check must hold over the whole registered
    // parameter space, not just the legacy fixed input (seeds whose
    // angles sample tiny tan() values used to trip the pure-relative
    // error bound).
    for (std::uint64_t seed : {1ull, 3ull, 17ull}) {
        EXPECT_TRUE(
            runApp("tangent", SystemMode::Duet, {.size = 64, .seed = seed})
                .correct)
            << "seed " << seed;
    }
    EXPECT_TRUE(
        runApp("tangent", SystemMode::Fpsoc, {.size = 2048}).correct);
}

// ------------------------- cache ladders ------------------------------

TEST(CacheLadder, AxesExpandInnermostAndRideOnTheScenario)
{
    SweepSpec spec;
    spec.workloads = "popcount";
    spec.modes = "duet";
    spec.l2KiB = "8,32";
    spec.l3KiB = "64,256";
    std::vector<SweepScenario> out;
    std::string err;
    ASSERT_TRUE(expandSweep(spec, out, err)) << err;
    ASSERT_EQ(out.size(), 4u);
    // l2-major over l3: (8,64) (8,256) (32,64) (32,256).
    EXPECT_EQ(out[0].l2KiB, 8u);
    EXPECT_EQ(out[0].l3KiB, 64u);
    EXPECT_EQ(out[1].l2KiB, 8u);
    EXPECT_EQ(out[1].l3KiB, 256u);
    EXPECT_EQ(out[2].l2KiB, 32u);
    EXPECT_EQ(out[3].l3KiB, 256u);
    // No axis given -> base geometry (0 sentinel).
    SweepSpec plain;
    plain.workloads = "popcount";
    out.clear();
    ASSERT_TRUE(expandSweep(plain, out, err)) << err;
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].l2KiB, 0u);
    EXPECT_EQ(out[0].l3KiB, 0u);
}

TEST(CacheLadder, RejectsZeroAndOversizedEntries)
{
    SweepSpec spec;
    spec.workloads = "popcount";
    spec.l3KiB = "0,64";
    std::vector<SweepScenario> out;
    std::string err;
    EXPECT_FALSE(expandSweep(spec, out, err));
    EXPECT_NE(err.find("--l3-kib"), std::string::npos) << err;
    EXPECT_NE(err.find("reserved"), std::string::npos) << err;

    spec.l3KiB = "2097152"; // 2 GiB > the 1 GiB ceiling
    EXPECT_FALSE(expandSweep(spec, out, err));
    EXPECT_NE(err.find("too large"), std::string::npos) << err;
}

TEST(CacheLadder, CsvGrowsCacheColumnsExactlyWhenPresent)
{
    SweepRow plain;
    plain.workload = "popcount";
    plain.app = "popcount";
    plain.mode = "duet";
    plain.cores = 1;
    plain.correct = true;
    SweepRow laddered = plain;
    laddered.l3KiB = 4096;

    std::ostringstream without, with;
    writeCsv(without, {plain});
    writeCsv(with, {plain, laddered});
    EXPECT_EQ(without.str().find("l2_kib"), std::string::npos);
    EXPECT_NE(with.str().find(",l2_kib,l3_kib,"), std::string::npos);
    // Every data row carries the columns once any row has them.
    EXPECT_NE(with.str().find(",0,0,"), std::string::npos);
    EXPECT_NE(with.str().find(",0,4096,"), std::string::npos);
}

TEST(CacheLadder, JsonlKeysAppearOnlyWhenPinnedAndRoundTrip)
{
    SweepRow row;
    row.workload = "bfs";
    row.app = "bfs/4";
    row.mode = "duet";
    row.cores = 4;
    row.size = 256;
    row.seed = 777;
    row.runtime = 10 * kTicksPerNs;
    row.correct = true;

    std::ostringstream plain;
    writeJsonLine(plain, row);
    EXPECT_EQ(plain.str().find("l2_kib"), std::string::npos);

    row.l2KiB = 32;
    row.l3KiB = 1024;
    std::ostringstream pinned;
    writeJsonLine(pinned, row);
    EXPECT_NE(pinned.str().find("\"l2_kib\": 32"), std::string::npos);
    SweepRow back;
    std::string err;
    ASSERT_TRUE(parseSweepRow(pinned.str(), back, err)) << err;
    EXPECT_EQ(back.l2KiB, 32u);
    EXPECT_EQ(back.l3KiB, 1024u);
}

TEST(CacheLadder, DerivedJoinMatchesCpuPartnerAtTheSameGeometry)
{
    // Two geometries, each with a duet row and a cpu partner whose
    // runtimes differ per geometry: the join must stay within the
    // geometry, never across it.
    auto mk = [](const char *mode, unsigned l3, Tick runtime) {
        SweepRow r;
        r.workload = "bfs";
        r.app = "bfs/4";
        r.mode = mode;
        r.cores = 4;
        r.size = 256;
        r.seed = 777;
        r.l3KiB = l3;
        r.runtime = runtime;
        r.correct = true;
        return r;
    };
    std::vector<SweepRow> rows{
        mk("duet", 64, 100), mk("cpu", 64, 1000),
        mk("duet", 4096, 100), mk("cpu", 4096, 300)};
    addDerivedMetrics(rows);
    EXPECT_DOUBLE_EQ(rows[0].speedup, 10.0);
    EXPECT_DOUBLE_EQ(rows[2].speedup, 3.0);
    EXPECT_DOUBLE_EQ(rows[1].speedup, 1.0);
}

TEST(CacheLadder, LadderScenariosActuallyChangeTheCacheGeometry)
{
    // End to end through runScenario: a bfs working set that spills a
    // tiny L3 must run slower there than with a big one.
    SweepSpec spec;
    spec.workloads = "bfs";
    spec.modes = "cpu";
    spec.sizes = "2048";
    spec.l3KiB = "16,4096";
    std::vector<SweepScenario> out;
    std::string err;
    ASSERT_TRUE(expandSweep(spec, out, err)) << err;
    ASSERT_EQ(out.size(), 2u);
    SystemConfig base;
    const SweepRow small = runScenario(out[0], base);
    const SweepRow big = runScenario(out[1], base);
    ASSERT_TRUE(small.correct) << small.error;
    ASSERT_TRUE(big.correct) << big.error;
    EXPECT_EQ(small.l3KiB, 16u);
    EXPECT_EQ(big.l3KiB, 4096u);
    EXPECT_GT(small.runtime, big.runtime);
}

} // namespace
} // namespace duet
