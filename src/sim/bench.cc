#include "sim/bench.hh"

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <ostream>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"
#include "system/system.hh"
#include "workload/registry.hh"

namespace duet
{
namespace
{

constexpr unsigned kDefaultReps = 3;

/** One reference scenario's measurements. */
struct BenchRow
{
    std::string workload;
    std::string app;   ///< Fig. 12 display name (e.g. "sort/64")
    std::string mode;  ///< duet | cpu | fpsoc
    unsigned cores = 0;
    unsigned size = 0;
    std::uint64_t seed = 0;
    /// Functionally correct AND deterministic: every rep executed the
    /// same event count and simulated the same ticks as the first.
    bool correct = false;
    std::uint64_t events = 0; ///< events executed by one rep
    Tick ticks = 0;           ///< simulated ticks of one rep
    double wallMsMin = 0.0;
    double wallMsMean = 0.0;
};

double
toMs(std::chrono::steady_clock::duration d)
{
    return std::chrono::duration<double, std::milli>(d).count();
}

BenchRow
benchScenario(const Workload &w, SystemMode mode, unsigned reps)
{
    BenchRow row;
    row.workload = w.name;
    row.mode = systemModeName(mode);

    WorkloadParams p{};
    std::string err;
    if (!resolveParams(w, p, err)) {
        // Registered defaults always resolve; if they ever stop doing
        // so, report the row as broken rather than aborting the run.
        row.app = "resolve failed: " + err;
        return row;
    }
    row.cores = p.cores;
    row.size = p.size;
    row.seed = p.seed;

    SystemConfig cfg;
    cfg.mode = mode;
    std::uint64_t events = 0;
    Tick ticks = 0;
    // Named lvalue: the observer field is a non-owning FunctionRef, and
    // this lambda must outlive every rep below.
    auto observe = [&](System &sys) {
        // Workloads lease one System per run (warm after this thread's
        // first); += keeps the count meaningful if one ever builds more
        // than one.
        events += sys.eventQueue().executed();
        ticks = sys.eventQueue().now();
    };
    cfg.observer = observe;

    // Rep 0 is an untimed warm-up. A row's first run pays one-off host
    // costs that no later rep repeats (the process's first System lease
    // is cold; the row's code and data are not yet in cache), so it is
    // often the row's slowest rep and would skew the mean. The warm-up
    // still joins the drift check: reps replay a deterministic
    // simulation, so a drifting event or tick count means the bench
    // measured two different runs.
    for (unsigned r = 0; r <= reps; ++r) {
        events = 0;
        ticks = 0;
        auto t0 = std::chrono::steady_clock::now();
        AppResult res = runWorkload(w, p, cfg);
        double ms = toMs(std::chrono::steady_clock::now() - t0);
        if (r == 0) {
            row.app = res.name;
            row.correct = res.correct;
            row.events = events;
            row.ticks = ticks;
            continue;
        }
        row.correct = row.correct && res.correct && events == row.events &&
                      ticks == row.ticks;
        row.wallMsMin = r == 1 ? ms : std::min(row.wallMsMin, ms);
        row.wallMsMean += ms;
    }
    row.wallMsMean /= reps;
    return row;
}

/** events (or ticks) per wall-clock second at the min-wall rep. */
double
perSec(double count, double wall_ms)
{
    return wall_ms > 0.0 ? count * 1000.0 / wall_ms : 0.0;
}

/** What instrumentation the bench ran under. Anything but "off" makes
 *  the wall numbers incomparable to a clean reference —
 *  tools/bench_diff.py refuses such comparisons. */
const char *
observabilityMode()
{
    const bool t = obs::trace() != nullptr;
    const bool p = obs::prof() != nullptr;
    return t && p ? "trace+prof" : t ? "trace" : p ? "prof" : "off";
}

void
writeRow(std::ostream &os, const BenchRow &r)
{
    os << "    {\"workload\": " << jsonQuote(r.workload)
       << ", \"app\": " << jsonQuote(r.app)
       << ", \"mode\": " << jsonQuote(r.mode) << ", \"cores\": " << r.cores
       << ", \"size\": " << r.size << ", \"seed\": " << r.seed
       << ", \"observability\": \"" << observabilityMode() << "\""
       << ", \"correct\": " << (r.correct ? "true" : "false")
       << ", \"events\": " << r.events << ", \"sim_ticks\": " << r.ticks
       << std::fixed << std::setprecision(3)
       << ", \"wall_ms_min\": " << r.wallMsMin
       << ", \"wall_ms_mean\": " << r.wallMsMean << std::setprecision(0)
       << ", \"events_per_sec\": "
       << perSec(static_cast<double>(r.events), r.wallMsMin)
       << ", \"ticks_per_sec\": "
       << perSec(static_cast<double>(r.ticks), r.wallMsMin) << "}";
    os.unsetf(std::ios_base::floatfield);
}

void
writeBenchJson(std::ostream &os, const std::vector<BenchRow> &rows,
               unsigned reps)
{
    std::uint64_t events = 0;
    double ticks = 0.0;
    double wallMin = 0.0;
    bool allCorrect = true;
    for (const BenchRow &r : rows) {
        events += r.events;
        ticks += static_cast<double>(r.ticks);
        wallMin += r.wallMsMin;
        allCorrect = allCorrect && r.correct;
    }

    os << "{\n"
       << "  \"schema\": \"duet-bench-sim/1\",\n"
       << "  \"reps\": " << reps << ",\n"
       << "  \"scenarios\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        writeRow(os, rows[i]);
        os << (i + 1 < rows.size() ? ",\n" : "\n");
    }
    os << "  ],\n"
       << "  \"totals\": {\"scenarios\": " << rows.size()
       << ", \"events\": " << events << std::fixed << std::setprecision(0)
       << ", \"sim_ticks\": " << ticks << std::setprecision(3)
       << ", \"wall_ms_min\": " << wallMin << std::setprecision(0)
       << ", \"events_per_sec\": " << perSec(static_cast<double>(events),
                                             wallMin)
       << ", \"ticks_per_sec\": " << perSec(ticks, wallMin)
       << ", \"all_correct\": " << (allCorrect ? "true" : "false")
       << "}\n"
       << "}\n";
    os.unsetf(std::ios_base::floatfield);
}

} // namespace

int
runBenchMode(const SimOptions &opts)
{
    const unsigned reps = opts.benchReps ? opts.benchReps : kDefaultReps;

    // The reference set: every registered workload (Fig. 12 order) in
    // all three modes at the registered defaults — the same 21 scenarios
    // as the default Fig. 12 sweep, run in-process so the numbers track
    // the simulator core, not the executor.
    std::vector<BenchRow> rows;
    for (const Workload &w : workloadRegistry()) {
        for (SystemMode m :
             {SystemMode::Duet, SystemMode::CpuOnly, SystemMode::Fpsoc}) {
            rows.push_back(benchScenario(w, m, reps));
        }
    }
    const bool allCorrect =
        std::all_of(rows.begin(), rows.end(),
                    [](const BenchRow &r) { return r.correct; });

    if (!publishOutput(opts.benchOut.empty() ? "-" : opts.benchOut,
                       [&](std::ostream &os) {
                           writeBenchJson(os, rows, reps);
                       }))
        return 1;
    return allCorrect ? 0 : 1;
}

} // namespace duet
