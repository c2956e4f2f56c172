/**
 * @file
 * The benchmark's in-process program. It links libduet and times calls into
 * its public entry points from the outside — runWorkload(), System
 * construction, SystemLease (System::reset on a warm lease) — and reads
 * the deterministic per-layer counts through SystemConfig::observer. It
 * adds no instrumentation to the simulator: the profiled pass installs the
 * existing Profiler through obs::setProfiler.
 *
 * Output is one JSON object per line on stdout; perfbench/run.py turns
 * the records into the benchmark's metrics and checks them against the
 * references.
 *
 *   perfbench_inproc --workload fig12_accel|cpu_spill --seed N --seconds S
 *                    [--input-seed N] [--layers]
 *   perfbench_inproc --model        Fig. 12 geomeans over allApps()
 *   perfbench_inproc --reference    rows for perfbench/reference.json
 *
 * A timed op is one runWorkload() call. Rows are cycled in a seeded order;
 * each visit to a row runs it once untimed (re-priming the thread's
 * SystemLease for that row's geometry) and then kReps timed ops, so every
 * timed op starts from a warm System. The cold costs — process first touch
 * and System construction — land in the warm-up pass (setup) and in the
 * separately timed System builds, never in a timed op.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <exception>
#include <numeric>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "area/area_model.hh"
#include "service/scenario_service.hh"
#include "sim/config.hh"
#include "sim/sweep.hh"
#include "sim/trace.hh"
#include "workload/apps.hh"

namespace
{

using namespace duet;
using Clock = std::chrono::steady_clock;

/// Timed ops per visit to a row (after its one untimed priming run).
constexpr unsigned kReps = 4;
/// Profiled runs per row in the traced pass.
constexpr unsigned kTracedReps = 3;
/// Cold System builds per row geometry.
constexpr unsigned kBuilds = 3;

struct Row
{
    const Workload *w = nullptr;
    SystemMode mode = SystemMode::Duet;
    WorkloadParams params;
};

double
msSince(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

double
threadCpuMs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) / 1e6;
}

/** Resolve @p w at its registered defaults, overriding the size (when
 *  nonzero) and the input seed (when nonzero and the workload takes one). */
Row
makeRow(const char *name, SystemMode mode, unsigned size,
        std::uint64_t input_seed)
{
    Row r;
    r.w = findWorkload(name);
    if (r.w == nullptr)
        throw std::runtime_error(std::string("unknown workload ") + name);
    r.mode = mode;
    r.params.size = size;
    if (input_seed != 0 && r.w->takesSeed())
        r.params.seed = input_seed;
    std::string err;
    if (!resolveParams(*r.w, r.params, err))
        throw std::runtime_error(err);
    return r;
}

std::vector<Row>
rowsFor(const std::string &workload, std::uint64_t input_seed)
{
    std::vector<Row> rows;
    if (workload == "fig12_accel") {
        // The duet + fpsoc half of the --bench reference set, registry
        // (Fig. 12) order, registered defaults.
        for (const Workload &w : workloadRegistry())
            for (SystemMode m : {SystemMode::Duet, SystemMode::Fpsoc})
                rows.push_back(makeRow(w.name.c_str(), m, 0, input_seed));
    } else if (workload == "cpu_spill") {
        // CPU-only rows sized so the L2s evict and write back and the
        // 4-core rows contend on the mesh and the L3 directory.
        const std::pair<const char *, unsigned> sized[] = {
            {"bfs", 1024},      {"dijkstra", 2048}, {"barnes_hut", 256},
            {"popcount", 8192}, {"tangent", 8192},  {"pdes", 32},
            {"sort", 128},
        };
        for (const auto &[name, size] : sized)
            rows.push_back(
                makeRow(name, SystemMode::CpuOnly, size, input_seed));
    } else {
        throw std::runtime_error("unknown workload '" + workload + "'");
    }
    return rows;
}

std::string
rowName(const Row &r)
{
    return r.w->name + "/" + systemModeName(r.mode);
}

/** What one runWorkload() call produced. */
struct OpResult
{
    double ms = 0;       ///< call wall time
    double afterMs = 0;  ///< observer callback -> return
    double cpuMs = 0;    ///< thread CPU time of the call
    std::uint64_t events = 0;
    Tick ticks = 0;
    Tick runtime = 0;
    bool correct = false;
};

/** Run @p row once; @p extra (optional) is invoked from the observer
 *  after the timing fields are captured. */
OpResult
runOp(const Row &row, SystemConfig cfg,
      FunctionRef<void(System &)> extra = nullptr)
{
    OpResult op;
    Clock::time_point observed{};
    auto observe = [&](System &sys) {
        observed = Clock::now();
        op.events += sys.eventQueue().executed();
        op.ticks = sys.eventQueue().now();
        if (extra)
            extra(sys);
    };
    cfg.mode = row.mode;
    cfg.observer = observe;
    const double c0 = threadCpuMs();
    const Clock::time_point t0 = Clock::now();
    try {
        AppResult res = runWorkload(*row.w, row.params, cfg);
        op.runtime = res.runtime;
        op.correct = res.correct;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_inproc: %s: %s\n",
                     rowName(row).c_str(), e.what());
        op.correct = false;
    }
    const Clock::time_point t1 = Clock::now();
    op.cpuMs = threadCpuMs() - c0;
    op.ms = msSince(t0, t1);
    op.afterMs = observed == Clock::time_point{} ? 0.0 : msSince(observed, t1);
    return op;
}

void
emitOp(const char *kind, std::size_t i, const OpResult &op)
{
    std::printf("{\"kind\": \"%s\", \"i\": %zu, \"ms\": %.6f, "
                "\"after_ms\": %.6f, \"cpu_ms\": %.6f, \"events\": %llu, "
                "\"ticks\": %llu, \"runtime\": %llu, \"correct\": %s}\n",
                kind, i, op.ms, op.afterMs, op.cpuMs,
                static_cast<unsigned long long>(op.events),
                static_cast<unsigned long long>(op.ticks),
                static_cast<unsigned long long>(op.runtime),
                op.correct ? "true" : "false");
}

/** The value of stat @p name; a missing stat is an error, so a renamed
 *  counter cannot read as zero work. */
std::uint64_t
counter(const StatRegistry &s, const std::string &name)
{
    const Counter *c = s.findCounter(name);
    if (c == nullptr)
        throw std::runtime_error("no counter named '" + name + "'");
    return c->value();
}

/** Sum of `prefix<i>suffix` over i in [0, n). */
std::uint64_t
sumCounter(const StatRegistry &s, const char *prefix, unsigned n,
           const char *suffix)
{
    std::uint64_t sum = 0;
    for (unsigned i = 0; i < n; ++i)
        sum += counter(s, prefix + std::to_string(i) + suffix);
    return sum;
}

/** One row's deterministic layer counts, read from the observer. */
void
emitCounts(std::size_t i, System &sys)
{
    const StatRegistry &s = sys.stats();
    const unsigned cores = sys.numCores();
    const unsigned tiles = sys.numTiles();
    const FrameArena &arena = sys.frameArena();
    std::ostringstream os;
    os << "{\"kind\": \"counts\", \"i\": " << i
       << ", \"events\": " << sys.eventQueue().executed()
       << ", \"eq_slab_slots\": " << sys.eventQueue().slabSlots()
       << ", \"arena_slab_bytes\": " << arena.slabBytes()
       << ", \"arena_freelist_hits\": " << arena.freeListHits()
       << ", \"arena_slab_carves\": " << arena.slabCarves()
       << ", \"mem_pages\": " << sys.memory().pagesAllocated()
       << ", \"noc_delivered\": " << sys.mesh().delivered().value()
       << ", \"noc_flit_cycles\": " << sys.mesh().flitCycles().value();
    const std::pair<const char *, const char *> perCore[] = {
        {"loads", ".loads"}, {"stores", ".stores"}, {"amos", ".amos"},
        {"mmios", ".mmios"}, {"l1_hits", ".l1Hits"},
    };
    for (const auto &[key, suffix] : perCore)
        os << ", \"cpu_" << key
           << "\": " << sumCounter(s, "core", cores, suffix);
    const std::pair<const char *, const char *> perTile[] = {
        {"l2_hits", ".l2.hits"},
        {"l2_misses", ".l2.misses"},
        {"l2_evictions", ".l2.evictions"},
        {"l2_writebacks", ".l2.writebacks"},
        {"l3_requests", ".l3.requests"},
        {"l3_hits", ".l3.l3Hits"},
        {"l3_misses", ".l3.l3Misses"},
        {"l3_mem_reads", ".l3.memReads"},
        {"recalls_sent", ".l3.recallsSent"},
        {"invs_sent", ".l3.invsSent"},
    };
    for (const auto &[key, suffix] : perTile)
        os << ", \"cache_" << key
           << "\": " << sumCounter(s, "tile", tiles, suffix);
    // cpu-mode systems have no adapter, so no Control Hub counters.
    const bool hub = sys.hasAdapter();
    os << ", \"core_mmio_reads\": "
       << (hub ? counter(s, "adapter.ctrl.mmioReads") : 0)
       << ", \"core_mmio_writes\": "
       << (hub ? counter(s, "adapter.ctrl.mmioWrites") : 0)
       << ", \"core_ctrl_timeouts\": "
       << (hub ? counter(s, "adapter.ctrl.timeouts") : 0) << "}";
    std::printf("%s\n", os.str().c_str());
}

/** Per-row counts, cold System build time and warm lease (reset) time. */
void
layerPass(const std::vector<Row> &rows)
{
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row &row = rows[i];
        runOp(row, SystemConfig{}); // the counted run below is warm
        SystemConfig built;
        auto counts = [&](System &sys) {
            emitCounts(i, sys);
            built = sys.config();
        };
        if (!runOp(row, SystemConfig{}, counts).correct)
            throw std::runtime_error("counted run of " + rowName(row) +
                                     " failed");
        built.observer = nullptr;

        // The counted run left this geometry in the lease cache, so the
        // lease below resets a System that has just run a scenario.
        const Clock::time_point r0 = Clock::now();
        bool warm = false;
        {
            SystemLease lease(built);
            warm = lease.warm();
        }
        const double resetMs = msSince(r0, Clock::now());

        std::vector<double> builds;
        for (unsigned b = 0; b < kBuilds; ++b) {
            const Clock::time_point b0 = Clock::now();
            System sys(built);
            builds.push_back(msSince(b0, Clock::now()));
        }
        std::sort(builds.begin(), builds.end());
        std::printf("{\"kind\": \"system\", \"i\": %zu, \"build_ms\": %.6f, "
                    "\"reset_ms\": %.6f, \"reset_warm\": %s}\n",
                    i, builds[builds.size() / 2], resetMs,
                    warm ? "true" : "false");
    }
}

/** The traced pass. Per row: kTracedReps runs with the Profiler installed
 *  (timed, so the profiler's own cost shows), then one run with the Fig. 9
 *  latency breakdown on. Every one is checked against the untraced runs. */
void
tracedPass(const std::vector<Row> &rows)
{
    Profiler prof;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row &row = rows[i];
        runOp(row, SystemConfig{});
        for (unsigned r = 0; r < kTracedReps; ++r) {
            obs::setProfiler(&prof);
            OpResult op = runOp(row, SystemConfig{});
            obs::setProfiler(nullptr);
            emitOp("traced", i, op);
        }
        SystemConfig cfg;
        cfg.latencyBreakdown = true;
        Tick lat[4] = {};
        auto readLat = [&](System &sys) {
            const LatencyTrace &t = sys.latencyTotals();
            lat[0] = t.get(LatencyTrace::Cat::NoC);
            lat[1] = t.get(LatencyTrace::Cat::FastCache);
            lat[2] = t.get(LatencyTrace::Cat::SlowCache);
            lat[3] = t.get(LatencyTrace::Cat::Cdc);
        };
        emitOp("lat_run", i, runOp(row, cfg, readLat));
        std::printf("{\"kind\": \"lat\", \"i\": %zu, \"noc\": %llu, "
                    "\"fast\": %llu, \"slow\": %llu, \"cdc\": %llu}\n",
                    i, static_cast<unsigned long long>(lat[0]),
                    static_cast<unsigned long long>(lat[1]),
                    static_cast<unsigned long long>(lat[2]),
                    static_cast<unsigned long long>(lat[3]));
    }
    std::ostringstream os;
    prof.write(os);
    std::string json = os.str();
    while (!json.empty() && json.back() == '\n')
        json.pop_back();
    std::printf("{\"kind\": \"prof\", \"data\": %s}\n", json.c_str());
}

/** This process image's peak resident set (VmHWM). getrusage's
 *  ru_maxrss is not used: Linux carries it across execve, so it would
 *  report the launching process's peak. */
long
peakRssKb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        return 0;
    long kb = 0;
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr)
        if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1)
            break;
    std::fclose(f);
    return kb;
}

int
runBench(const std::string &workload, std::uint64_t seed, double seconds,
         std::uint64_t input_seed, bool layers)
{
    const Clock::time_point start = Clock::now();
    const std::vector<Row> rows = rowsFor(workload, input_seed);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        std::printf("{\"kind\": \"row\", \"i\": %zu, \"name\": \"%s\", "
                    "\"workload\": \"%s\", \"mode\": \"%s\", \"size\": %u, "
                    "\"seed\": %llu}\n",
                    i, rowName(r).c_str(), r.w->name.c_str(),
                    systemModeName(r.mode), r.params.size,
                    static_cast<unsigned long long>(r.params.seed));
    }

    // Warm-up: every row once, cold. Its cost is the set-up time.
    for (std::size_t i = 0; i < rows.size(); ++i)
        emitOp("warm", i, runOp(rows[i], SystemConfig{}));
    std::printf("{\"kind\": \"setup\", \"ms\": %.6f}\n",
                msSince(start, Clock::now()));
    std::fflush(stdout);

    const LeaseStats lease0 = leaseStats();
    std::mt19937_64 rng(seed);
    std::vector<std::size_t> order(rows.size());
    std::iota(order.begin(), order.end(), 0);
    const Clock::time_point t0 = Clock::now();
    const auto budget = std::chrono::duration<double>(seconds);
    auto visit = [&](std::size_t i) {
        runOp(rows[i], SystemConfig{});
        for (unsigned k = 0; k < kReps; ++k)
            emitOp("op", i, runOp(rows[i], SystemConfig{}));
    };
    // The first cycle runs to its end, so every row has timed ops; after
    // it the window closes at the first visit that ends past the budget.
    std::shuffle(order.begin(), order.end(), rng);
    for (std::size_t i : order)
        visit(i);
    while (Clock::now() - t0 < budget) {
        std::shuffle(order.begin(), order.end(), rng);
        for (std::size_t i : order) {
            visit(i);
            if (Clock::now() - t0 >= budget)
                break;
        }
    }
    const LeaseStats lease1 = leaseStats();

    std::printf("{\"kind\": \"timed\", \"wall_ms\": %.6f, \"rss_kb\": %ld, "
                "\"leases\": %llu, \"warm_leases\": %llu}\n",
                msSince(t0, Clock::now()), peakRssKb(),
                static_cast<unsigned long long>(lease1.total - lease0.total),
                static_cast<unsigned long long>(lease1.warm - lease0.warm));
    std::fflush(stdout);

    if (layers) {
        layerPass(rows);
        tracedPass(rows);
    }
    return 0;
}

/** Fig. 12 geomeans over allApps(), as bench/bench_fig12_apps.cc. */
int
runModel()
{
    double spdF = 0, spdD = 0, adpF = 0, adpD = 0;
    unsigned n = 0;
    bool correct = true;
    for (const AppSpec &spec : allApps()) {
        const AppResult cpu = spec.run(SystemMode::CpuOnly);
        const AppResult fpsoc = spec.run(SystemMode::Fpsoc);
        const AppResult duet = spec.run(SystemMode::Duet);
        correct = correct && cpu.correct && fpsoc.correct && duet.correct;
        const double aC = area::systemAreaMm2(spec.p, spec.m, 0, spec.accelKey);
        const double aF = area::systemAreaMm2(spec.p, spec.m, 1, spec.accelKey);
        const double aD = area::systemAreaMm2(spec.p, spec.m, 2, spec.accelKey);
        const double c = static_cast<double>(cpu.runtime);
        spdF += std::log(c / static_cast<double>(fpsoc.runtime));
        spdD += std::log(c / static_cast<double>(duet.runtime));
        adpF += std::log(aF * static_cast<double>(fpsoc.runtime) / (aC * c));
        adpD += std::log(aD * static_cast<double>(duet.runtime) / (aC * c));
        ++n;
    }
    std::printf("{\"kind\": \"model\", \"configs\": %u, "
                "\"duet_speedup\": %.6f, \"fpsoc_speedup\": %.6f, "
                "\"duet_adp\": %.6f, \"fpsoc_adp\": %.6f, \"correct\": %s}\n",
                n, std::exp(spdD / n), std::exp(spdF / n), std::exp(adpD / n),
                std::exp(adpF / n), correct ? "true" : "false");
    return correct ? 0 : 1;
}

/** Rows for perfbench/reference.json: the cpu_spill rows, and every
 *  serve_mix request shape (run in-process through validateRequest, the
 *  same path a server worker takes). */
int
runReference()
{
    const std::vector<Row> rows = rowsFor("cpu_spill", 0);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        OpResult op = runOp(rows[i], SystemConfig{});
        std::printf("{\"kind\": \"cpu_spill\", \"name\": \"%s\", "
                    "\"events\": %llu, \"sim_ticks\": %llu, "
                    "\"correct\": %s}\n",
                    rowName(rows[i]).c_str(),
                    static_cast<unsigned long long>(op.events),
                    static_cast<unsigned long long>(op.ticks),
                    op.correct ? "true" : "false");
    }
    const std::pair<unsigned, unsigned> ladder[] = {
        {0, 0}, {4, 32}, {4, 256}, {16, 32}, {16, 256},
    };
    for (const Workload &w : workloadRegistry()) {
        for (const char *mode : {"duet", "cpu", "fpsoc"}) {
            for (const auto &[l2, l3] : ladder) {
                ScenarioRequest req;
                req.workload = w.name;
                req.mode = mode;
                req.l2KiB = l2;
                req.l3KiB = l3;
                SweepScenario sc;
                SystemConfig cfg;
                std::string err;
                if (!validateRequest(req, SystemConfig{}, sc, cfg, err)) {
                    std::fprintf(stderr, "perfbench_inproc: %s\n",
                                 err.c_str());
                    return 1;
                }
                const SweepRow res = runScenario(sc, cfg);
                std::printf("{\"kind\": \"serve\", \"workload\": \"%s\", "
                            "\"mode\": \"%s\", \"l2_kib\": %u, "
                            "\"l3_kib\": %u, \"runtime_ticks\": %llu, "
                            "\"correct\": %s}\n",
                            w.name.c_str(), mode, l2, l3,
                            static_cast<unsigned long long>(res.runtime),
                            res.correct ? "true" : "false");
            }
        }
    }
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_inproc --workload fig12_accel|cpu_spill "
                 "--seed N --seconds S [--input-seed N] [--layers]\n"
                 "       perfbench_inproc --model | --reference\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 1;
    std::uint64_t inputSeed = 0;
    double seconds = 0;
    bool layers = false;
    bool model = false;
    bool reference = false;
    try {
        for (int a = 1; a < argc; ++a) {
            const std::string flag = argv[a];
            auto value = [&]() -> std::string {
                if (a + 1 >= argc)
                    throw std::runtime_error(flag + " needs a value");
                return argv[++a];
            };
            if (flag == "--workload")
                workload = value();
            else if (flag == "--seed")
                seed = std::stoull(value());
            else if (flag == "--input-seed")
                inputSeed = std::stoull(value());
            else if (flag == "--seconds")
                seconds = std::stod(value());
            else if (flag == "--layers")
                layers = true;
            else if (flag == "--model")
                model = true;
            else if (flag == "--reference")
                reference = true;
            else
                return usage();
        }
        if (model)
            return runModel();
        if (reference)
            return runReference();
        if (workload.empty() || !(seconds > 0))
            return usage();
        return runBench(workload, seed, seconds, inputSeed, layers);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_inproc: %s\n", e.what());
        return 2;
    }
}
