/**
 * @file
 * `duet_sim` — the unified scenario driver.
 *
 * Composes a SystemConfig from command-line flags (workload, core count,
 * problem size, RNG seed, cache geometry, Duet vs. baseline mode) and
 * either runs one benchmark scenario — reporting the timed-region
 * runtime, the functional-correctness verdict and the full statistics
 * registry as text or JSON — or, with `--sweep`, expands comma/range
 * lists into the scenario cross-product and aggregates one result row
 * per scenario into CSV / JSON-lines (sim/sweep.hh):
 *
 *   duet_sim --workload bfs --cores 4 --json
 *   duet_sim --workload sort --size 128 --mode fpsoc --stats
 *   duet_sim --workload bfs --size 512 --seed 42
 *   duet_sim --sweep --workload bfs,sort --mode duet,cpu --cores 4,8 \
 *            --jobs 8 --csv out.csv
 *   duet_sim --derive out.jsonl --csv out.csv
 *
 * Sweep scenarios run on a resident worker-process pool
 * (sim/executor.hh): `--jobs` workers are forked once and fed request
 * lines over pipes, results are reassembled in scenario order — so the
 * aggregated outputs are byte-identical whatever the job count — and a
 * crashing or hanging scenario becomes a failed row instead of killing
 * the batch.
 *
 * `--bench` runs the simulator's own performance benchmark (the fixed
 * reference scenario set, in-process) and writes the duet-bench-sim/1
 * JSON report; see sim/bench.hh.
 *
 * `--figures DIR` regenerates the paper's Figs. 9-12, Tables I-II and
 * the ablations as CSVs plus text tables; see sim/figures.hh.
 */

#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include <memory>

#include "service/scenario_service.hh"
#include "service/serve.hh"
#include "sim/bench.hh"
#include "sim/check.hh"
#include "sim/config.hh"
#include "sim/figures.hh"
#include "sim/sweep.hh"
#include "sim/trace.hh"
#include "workload/apps.hh"

namespace
{

using namespace duet;

void
listWorkloads(std::ostream &os)
{
    os << "workloads:\n";
    for (const Workload &w : workloadRegistry()) {
        os << "  " << std::left << std::setw(12) << w.name << w.describe
           << "\n";
    }
}

/**
 * One sweep output sink. File sinks are atomic: all writes go to
 * `<path>.tmp`, which is renamed onto the final path only once the
 * batch is done — an aborted or crashed batch never leaves a truncated
 * or partially rewritten file at `<path>` (at worst a stale `.tmp`
 * with every finished row). Rows stream to the temp file as they
 * complete, then it is rewritten once at the end, when the derived
 * columns — whose cpu partner row may run *after* the row it
 * normalizes — are final and the rows are back in scenario order. The
 * stdout sink cannot be renamed or rewritten, so it is written once at
 * the end.
 */
struct SweepSink
{
    std::string path;
    std::ofstream file; ///< the streamed `<path>.tmp`; unused for stdout

    bool
    open(const std::string &p)
    {
        path = p;
        if (p == "-")
            return true;
        file.open(p + ".tmp");
        if (!file) {
            std::cerr << "duet_sim: cannot open " << p
                      << ".tmp for writing\n";
            return false;
        }
        return true;
    }

    void
    streamRow(const std::function<void(std::ostream &)> &write)
    {
        if (!file.is_open())
            return;
        write(file);
        file.flush();
    }

    bool
    finalize(const std::function<void(std::ostream &)> &write_all)
    {
        // Rewrite the temp file with the final content and publish it.
        if (file.is_open())
            file.close();
        return publishOutput(path, write_all);
    }
};

int
runSweepMode(const SimOptions &opts)
{
    SweepSpec spec;
    spec.workloads = opts.workload;
    spec.modes = opts.modeName;
    spec.cores = opts.coresSpec;
    spec.sizes = opts.sizeSpec;
    spec.seeds = opts.seedSpec;
    spec.l2KiB = opts.l2Spec;
    spec.l3KiB = opts.l3Spec;

    std::vector<SweepScenario> scenarios;
    std::string err;
    if (!expandSweep(spec, scenarios, err)) {
        std::cerr << "duet_sim: " << err << "\n\n" << simUsage();
        return 2;
    }

    // Open the output sinks before burning simulation time: an
    // unwritable path must fail fast, not after the whole sweep ran.
    const bool haveCsv = !opts.csvPath.empty();
    const bool haveJsonl = !opts.jsonlPath.empty();
    SweepSink csvSink, jsonlSink;
    if (haveCsv && !csvSink.open(opts.csvPath))
        return 2;
    if (haveJsonl && !jsonlSink.open(opts.jsonlPath))
        return 2;

    SystemConfig base;
    applySimOverrides(opts, base);

    SweepRunOptions ropts;
    ropts.jobs = opts.jobs; // 0: the service picks the hardware count
    ropts.timeoutSeconds = opts.scenarioTimeoutS;

    // Progress only renders on an interactive stderr — a carriage-
    // return line repainted in place. Piped stderr (CI logs, 2>file)
    // gets nothing but the failure summary; --quiet forces that even
    // on a terminal.
    const bool tty_progress = !opts.quiet && ::isatty(2) != 0;
    std::ostream *progress = tty_progress ? &std::cerr : nullptr;
    ropts.ttyProgress = tty_progress;

    // A sweep with cache-ladder axes carries the coordinates in extra
    // CSV columns; default sweeps keep the pre-ladder layout byte for
    // byte (writeCsv() at finalize detects the same condition from the
    // rows themselves).
    const bool cacheCols =
        !opts.l2Spec.empty() || !opts.l3Spec.empty();

    // Stream each finished row to the file sinks (completion order,
    // cross-row derived columns still 0 at that point), then rewrite
    // them once the batch is done, the rows are back in scenario
    // order, and addDerivedMetrics() has joined every row with its cpu
    // partner — which may have run after it.
    if (haveCsv)
        csvSink.streamRow([&](std::ostream &os) {
            writeCsvHeader(os, cacheCols);
        });
    std::vector<SweepRow> rows = runSweep(
        scenarios, base, progress,
        [&](const SweepRow &row) {
            if (haveCsv)
                csvSink.streamRow([&](std::ostream &os) {
                    writeCsvRow(os, row, cacheCols);
                });
            if (haveJsonl)
                jsonlSink.streamRow(
                    [&](std::ostream &os) { writeJsonLine(os, row); });
        },
        ropts);
    addDerivedMetrics(rows);
    bool sinks_ok = true;
    if (haveCsv)
        sinks_ok &= csvSink.finalize(
            [&](std::ostream &os) { writeCsv(os, rows); });
    if (haveJsonl)
        sinks_ok &= jsonlSink.finalize(
            [&](std::ostream &os) { writeJsonLines(os, rows); });
    if (!haveCsv && !haveJsonl)
        writeTable(std::cout, rows);
    if (!sinks_ok)
        return 2;

    std::size_t failed = 0;
    for (const SweepRow &r : rows)
        if (!r.correct)
            ++failed;
    if (failed != 0) {
        std::cerr << "duet_sim: " << failed << "/" << rows.size()
                  << " scenarios failed\n";
        return 1;
    }
    return 0;
}

/**
 * `--derive in.jsonl`: re-run addDerivedMetrics() over a previously
 * written JSON-lines file — the executor wire format doubles as the
 * on-disk format — without re-simulating anything.
 */
int
runDeriveMode(const SimOptions &opts)
{
    std::vector<SweepRow> rows;
    std::string err;
    if (opts.derivePath == "-") {
        if (!readSweepRows(std::cin, rows, err)) {
            std::cerr << "duet_sim: --derive -: " << err << "\n";
            return 2;
        }
    } else {
        std::ifstream in(opts.derivePath);
        if (!in) {
            std::cerr << "duet_sim: cannot open " << opts.derivePath
                      << "\n";
            return 2;
        }
        if (!readSweepRows(in, rows, err)) {
            std::cerr << "duet_sim: " << opts.derivePath << ": " << err
                      << "\n";
            return 2;
        }
    }
    addDerivedMetrics(rows);

    const bool haveCsv = !opts.csvPath.empty();
    const bool haveJsonl = !opts.jsonlPath.empty();
    SweepSink csvSink, jsonlSink;
    if (haveCsv && !csvSink.open(opts.csvPath))
        return 2;
    if (haveJsonl && !jsonlSink.open(opts.jsonlPath))
        return 2;
    bool sinks_ok = true;
    if (haveCsv)
        sinks_ok &= csvSink.finalize(
            [&](std::ostream &os) { writeCsv(os, rows); });
    if (haveJsonl)
        sinks_ok &= jsonlSink.finalize(
            [&](std::ostream &os) { writeJsonLines(os, rows); });
    if (!haveCsv && !haveJsonl)
        writeTable(std::cout, rows);
    return sinks_ok ? 0 : 2;
}

int
runSingleMode(const SimOptions &opts)
{
    // Build the request exactly as a --serve client would; the service
    // layer owns validation and per-request config layering. The run
    // itself stays in-process: the stats observer below needs the
    // System in this address space, which a pool worker cannot offer.
    ScenarioRequest req;
    req.workload = opts.workload;
    req.mode = opts.modeName;
    req.cores = opts.cores;
    req.size = opts.size;
    req.seed = opts.seed;

    const Workload *w = findWorkload(opts.workload);
    if (w == nullptr) {
        std::cerr << "duet_sim: unknown workload '" << opts.workload
                  << "'\n";
        listWorkloads(std::cerr);
        return 2;
    }
    if (opts.cores && !w->takesCores())
        std::cerr << "duet_sim: note: --cores is ignored by workload '"
                  << opts.workload << "'\n";
    if (opts.seed && !w->takesSeed())
        std::cerr << "duet_sim: note: --seed is ignored by workload '"
                  << opts.workload << "' (deterministic input)\n";

    // Shape the System the workload builds and capture its stats registry
    // (dumped post-run, pre-teardown) for the report below.
    std::string statsText;
    std::string statsJson;
    unsigned coresBuilt = 0;
    constexpr std::size_t kLatCats =
        static_cast<std::size_t>(LatencyTrace::Cat::kNumCats);
    Tick lat[kLatCats] = {};
    SystemConfig base;
    applySimOverrides(opts, base);
    // Named lvalue: the observer field is a non-owning FunctionRef and
    // must outlive the run.
    auto observe = [&](System &sys) {
        std::ostringstream text, json;
        sys.stats().dump(text, opts.statsFilter);
        sys.stats().dumpJson(json, opts.statsFilter);
        statsText = text.str();
        statsJson = json.str();
        coresBuilt = sys.numCores();
        if (opts.latencyBreakdown) {
            const LatencyTrace &lt = sys.latencyTotals();
            for (std::size_t c = 0; c < kLatCats; ++c)
                lat[c] = lt.get(static_cast<LatencyTrace::Cat>(c));
        }
    };
    base.observer = observe;

    SweepScenario sc;
    SystemConfig cfg;
    std::string err;
    if (!validateRequest(req, base, sc, cfg, err)) {
        std::cerr << "duet_sim: " << err << "\n\n" << simUsage();
        return 2;
    }
    const WorkloadParams &params = sc.params;

    AppResult res;
    try {
        res = runWorkload(*sc.workload, params, cfg);
    } catch (const SimFatal &e) {
        std::cerr << "duet_sim: " << e.what() << "\n";
        return 1;
    }

    if (opts.json) {
        std::cout << "{\"workload\": " << jsonQuote(res.name)
                  << ", \"mode\": \"" << systemModeName(res.mode)
                  << "\", \"cores\": " << coresBuilt
                  << ", \"size\": " << params.size
                  << ", \"seed\": " << params.seed
                  << ", \"runtime_ticks\": " << res.runtime
                  << ", \"runtime_ns\": " << res.runtime / kTicksPerNs
                  << ", \"correct\": " << (res.correct ? "true" : "false");
        if (opts.latencyBreakdown) {
            std::cout << ", \"latency_breakdown\": {\"lat_noc\": " << lat[0]
                      << ", \"lat_fast\": " << lat[1]
                      << ", \"lat_slow\": " << lat[2]
                      << ", \"lat_cdc\": " << lat[3] << "}";
        }
        std::cout << ", \"stats\": " << statsJson << "}\n";
    } else {
        std::printf("workload   %s\n", res.name.c_str());
        std::printf("mode       %s\n", systemModeName(res.mode));
        std::printf("cores      %u\n", coresBuilt);
        std::printf("size       %u (%s)\n", params.size,
                    w->params.sizeMeaning);
        if (w->takesSeed())
            std::printf("seed       %lu\n",
                        static_cast<unsigned long>(params.seed));
        std::printf("runtime    %lu ticks (%lu ns)\n",
                    static_cast<unsigned long>(res.runtime),
                    static_cast<unsigned long>(res.runtime / kTicksPerNs));
        std::printf("correct    %s\n", res.correct ? "yes" : "NO");
        if (opts.latencyBreakdown) {
            std::printf("lat_noc    %lu ticks\n",
                        static_cast<unsigned long>(lat[0]));
            std::printf("lat_fast   %lu ticks\n",
                        static_cast<unsigned long>(lat[1]));
            std::printf("lat_slow   %lu ticks\n",
                        static_cast<unsigned long>(lat[2]));
            std::printf("lat_cdc    %lu ticks\n",
                        static_cast<unsigned long>(lat[3]));
        }
        if (opts.stats) {
            std::printf("\n-- stats --\n");
            std::fputs(statsText.c_str(), stdout);
        }
    }
    return res.correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    SimOptions opts;
    std::string err;
    switch (parseSimOptions(argc, argv, opts, err)) {
      case ParseStatus::Ok:
        break;
      case ParseStatus::Exit:
        if (opts.list)
            listWorkloads(std::cout);
        else
            std::cout << simUsage();
        return 0;
      case ParseStatus::Error:
        std::cerr << "duet_sim: " << err << "\n\n" << simUsage();
        return 2;
    }

    // Before any scenario runs or worker forks: children inherit the
    // flag, so sweep/serve workers check with the same paranoia.
    if (opts.paranoid)
        setParanoidChecks(true);

    // Observability session: install the trace sink / profiler before
    // the mode dispatch and publish their artifacts after. Flag
    // validation restricts --trace/--prof to the in-process modes
    // (single run, --bench), so the instrumented simulation runs in
    // this address space.
    std::unique_ptr<TraceSink> traceSink;
    std::unique_ptr<Profiler> profiler;
    if (!opts.tracePath.empty()) {
        std::uint32_t mask = TraceSink::kAllCats;
        std::string ferr;
        if (!TraceSink::parseFilter(opts.traceFilter, mask, ferr)) {
            std::cerr << "duet_sim: " << ferr << "\n";
            return 2;
        }
        traceSink = std::make_unique<TraceSink>(mask);
        obs::setTraceSink(traceSink.get());
    }
    if (!opts.profPath.empty()) {
        profiler = std::make_unique<Profiler>();
        obs::setProfiler(profiler.get());
    }

    int rc;
    if (!opts.figuresDir.empty())
        rc = runFiguresMode(opts);
    else if (opts.bench)
        rc = runBenchMode(opts);
    else if (opts.serve)
        rc = runServe(opts);
    else if (!opts.derivePath.empty())
        rc = runDeriveMode(opts);
    else
        rc = opts.sweep ? runSweepMode(opts) : runSingleMode(opts);

    if (traceSink) {
        obs::setTraceSink(nullptr);
        if (traceSink->truncated())
            std::cerr << "duet_sim: trace hit the record cap; output is "
                         "marked truncated\n";
        if (!publishOutput(opts.tracePath, [&](std::ostream &os) {
                traceSink->write(os);
            }))
            rc = rc == 0 ? 2 : rc;
    }
    if (profiler) {
        obs::setProfiler(nullptr);
        if (!publishOutput(opts.profPath, [&](std::ostream &os) {
                profiler->write(os);
            }))
            rc = rc == 0 ? 2 : rc;
    }
    return rc;
}
