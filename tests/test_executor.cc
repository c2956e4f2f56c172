/**
 * @file
 * Tests of the resident-worker process pool (sim/executor.hh) and the
 * SweepRow wire format sweeps ship results in. The pool is driven
 * directly, through a test service whose request names what the worker
 * does: completion order vs submission order, crash isolation (abort,
 * SIGSEGV, an uncaught exception and a nonzero exit become failed
 * results while the batch continues), the per-request timeout kill
 * path, empty and pipe-buffer-sized frames in both directions, the
 * in-flight cap, external event-loop folding, and what only resident
 * workers do — one pid answering many requests, and a fresh pid after
 * a crash. Also: JSON round-trip fuzz over extreme row values, and
 * `-j1` vs `-j8` byte-identity of a real 12-row sweep.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <poll.h>
#include <unistd.h>

#include "sim/config.hh"
#include "sim/executor.hh"
#include "sim/sweep.hh"

namespace duet
{
namespace
{

namespace fs = std::filesystem;
using namespace std::chrono_literals;

/** Block (bounded) until @p path exists — cross-process ordering. */
void
awaitFile(const fs::path &path)
{
    const auto deadline = std::chrono::steady_clock::now() + 30s;
    while (!fs::exists(path) &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(5ms);
}

/** Die by @p sig for real: restore the default disposition first, so a
 *  sanitizer's crash handler (which would turn the signal into exit 1
 *  and break the pool's signal classification) cannot intercept it. */
[[noreturn]] void
dieBySignal(int sig)
{
    std::signal(sig, SIG_DFL);
    std::raise(sig);
    std::_Exit(99); // unreachable; keeps [[noreturn]] honest
}

/** 2 MiB is far past the kernel pipe buffer: a frame this size only
 *  gets through because the other side drains concurrently. */
std::string
bigPayload()
{
    return std::string(2 * 1024 * 1024, 'x') + "tail";
}

/** The worker body every test pool runs (in the forked worker). The
 *  request names what to do; anything else is echoed back. */
std::string
testService(const std::string &req)
{
    if (req == "pid")
        return std::to_string(::getpid());
    if (req == "abort")
        std::abort();
    if (req == "segv")
        dieBySignal(SIGSEGV);
    if (req == "throw")
        throw std::runtime_error("boom");
    if (req == "exit7")
        std::_Exit(7);
    if (req == "hang") {
        std::this_thread::sleep_for(60s); // far past any test deadline
        return "never";
    }
    if (req == "empty")
        return {};
    if (req == "big")
        return bigPayload();
    if (req.rfind("await:", 0) == 0) {
        awaitFile(req.substr(6));
        return "awaited";
    }
    if (req.rfind("nap:", 0) == 0) {
        std::this_thread::sleep_for(20ms);
        return req.substr(4);
    }
    return req;
}

/** Submit @p requests to @p pool, drain, and return the results in
 *  submission order; @p observer sees each one as it completes. */
std::vector<JobResult>
runBatch(ResidentPool &pool, const std::vector<std::string> &requests,
         const std::function<void(std::size_t, const JobResult &)>
             &observer = {})
{
    std::vector<JobResult> results(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
        pool.submit(requests[i], [&results, &observer, i](JobResult &&res) {
            results[i] = std::move(res);
            if (observer)
                observer(i, results[i]);
        });
    }
    pool.drain();
    return results;
}

std::vector<JobResult>
runBatch(const ExecutorConfig &cfg, const std::vector<std::string> &requests)
{
    ResidentPool pool(cfg, testService);
    return runBatch(pool, requests);
}

// ------------------------- scheduling ---------------------------------

TEST(Executor, DefaultJobCountIsPositive)
{
    EXPECT_GE(defaultJobCount(), 1u);
}

TEST(Executor, EmptyBatchIsANoOp)
{
    ResidentPool pool(ExecutorConfig{}, testService);
    pool.drain();
    EXPECT_EQ(pool.inFlight(), 0u);
    // Workers fork lazily: no request, no process.
    EXPECT_TRUE(pool.workerStats().empty());
}

TEST(Executor, ResultsComeBackInSubmissionOrder)
{
    // Adversarial completion order, deterministically: request 0 blocks
    // until the *parent* has delivered request 1's completion (the
    // observer below writes the flag), so completion order is provably
    // {1, 0} — yet results indexed by submission stay in submission
    // order. Having request 1 itself write the flag would race: both
    // response frames could land in one parent poll window and be
    // drained in worker order.
    const fs::path flag =
        fs::path(::testing::TempDir()) / "duet_executor_order_flag";
    fs::remove(flag);
    std::vector<std::size_t> completion;
    ExecutorConfig cfg;
    cfg.jobs = 2;
    ResidentPool pool(cfg, testService);
    std::vector<JobResult> results = runBatch(
        pool, {"await:" + flag.string(), "second-submitted"},
        [&](std::size_t idx, const JobResult &) {
            completion.push_back(idx);
            if (idx == 1)
                std::ofstream(flag) << "go";
        });
    fs::remove(flag);

    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].status, JobStatus::Ok);
    EXPECT_EQ(results[0].payload, "awaited");
    EXPECT_EQ(results[1].status, JobStatus::Ok);
    EXPECT_EQ(results[1].payload, "second-submitted");
    EXPECT_EQ(completion, (std::vector<std::size_t>{1, 0}));
}

TEST(Executor, HardwareDefaultWhenJobsIsZero)
{
    std::vector<JobResult> results = runBatch(ExecutorConfig{}, {"a", "b"});
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].payload, "a");
    EXPECT_EQ(results[1].payload, "b");
}

// ------------------------- crash isolation ----------------------------

TEST(Executor, AbortingWorkerBecomesFailedResultBatchContinues)
{
    ExecutorConfig cfg;
    cfg.jobs = 2;
    std::vector<JobResult> results =
        runBatch(cfg, {"ok0", "ok1", "abort", "ok3"});
    ASSERT_EQ(results.size(), 4u);
    for (int i : {0, 1, 3}) {
        EXPECT_EQ(results[i].status, JobStatus::Ok) << i;
        EXPECT_EQ(results[i].payload, "ok" + std::to_string(i));
    }
    EXPECT_EQ(results[2].status, JobStatus::Crashed);
    EXPECT_NE(results[2].diagnostic.find("SIGABRT"), std::string::npos)
        << results[2].diagnostic;
}

TEST(Executor, SegfaultSignalIsNamedInTheDiagnostic)
{
    std::vector<JobResult> results = runBatch(ExecutorConfig{}, {"segv"});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, JobStatus::Crashed);
    EXPECT_NE(results[0].diagnostic.find("SIGSEGV"), std::string::npos)
        << results[0].diagnostic;
}

TEST(Executor, UncaughtExceptionIsReportedNotPropagated)
{
    std::vector<JobResult> results = runBatch(ExecutorConfig{}, {"throw"});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, JobStatus::Crashed);
    EXPECT_NE(results[0].diagnostic.find("exception"), std::string::npos)
        << results[0].diagnostic;
}

TEST(Executor, NonzeroExitIsACrash)
{
    std::vector<JobResult> results = runBatch(ExecutorConfig{}, {"exit7"});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, JobStatus::Crashed);
    EXPECT_NE(results[0].diagnostic.find("status 7"), std::string::npos)
        << results[0].diagnostic;
}

// ------------------------- timeout ------------------------------------

TEST(Executor, TimeoutKillsHungWorkerBatchContinues)
{
    ExecutorConfig cfg;
    cfg.jobs = 3;
    cfg.timeoutSeconds = 1;
    const auto start = std::chrono::steady_clock::now();
    std::vector<JobResult> results =
        runBatch(cfg, {"quick", "hang", "also quick"});
    const auto elapsed = std::chrono::steady_clock::now() - start;

    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[0].status, JobStatus::Ok);
    EXPECT_EQ(results[2].status, JobStatus::Ok);
    EXPECT_EQ(results[1].status, JobStatus::TimedOut);
    EXPECT_NE(results[1].diagnostic.find("timed out after 1 s"),
              std::string::npos)
        << results[1].diagnostic;
    // The hung worker must die at its deadline, not after its sleep.
    EXPECT_LT(elapsed, 30s);
}

// ------------------------- wire frames --------------------------------

TEST(Executor, EmptyAndPipeBufferSizedPayloadsRoundTrip)
{
    ExecutorConfig cfg;
    cfg.jobs = 2;
    std::vector<JobResult> results = runBatch(cfg, {"empty", "big"});
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].status, JobStatus::Ok);
    EXPECT_TRUE(results[0].payload.empty());
    EXPECT_EQ(results[1].status, JobStatus::Ok);
    EXPECT_EQ(results[1].payload, bigPayload());
}

// ------------------------- row wire format ----------------------------

std::string
rowJson(const SweepRow &row)
{
    std::ostringstream os;
    writeJsonLine(os, row);
    return os.str();
}

SweepRow
sampleRow()
{
    SweepRow r;
    r.workload = "bfs";
    r.app = "bfs/4";
    r.mode = "duet";
    r.cores = 4;
    r.memHubs = 0;
    r.size = 256;
    r.seed = 777;
    r.runtime = 123 * kTicksPerNs;
    r.correct = true;
    return r;
}

TEST(RowWire, ExtremeFieldValuesRoundTrip)
{
    SweepRow row;
    row.workload = "we\"ird\\name\nwith\tcontrol\x01bytes";
    row.app = "";
    row.mode = "duet";
    row.cores = 0xffffffffu;
    row.memHubs = 0;
    row.size = 0xffffffffu;
    row.seed = ~0ull;
    row.runtime = ~Tick{0};
    row.correct = true;
    row.speedup = 123456.7891;
    row.areaMm2 = 0.0001;
    row.adpNorm = 0.0;
    row.error = "worker killed by SIGSEGV";

    SweepRow back;
    std::string err;
    ASSERT_TRUE(parseSweepRow(rowJson(row), back, err)) << err;
    EXPECT_EQ(back.workload, row.workload);
    EXPECT_EQ(back.app, row.app);
    EXPECT_EQ(back.mode, row.mode);
    EXPECT_EQ(back.cores, row.cores);
    EXPECT_EQ(back.memHubs, row.memHubs);
    EXPECT_EQ(back.size, row.size);
    EXPECT_EQ(back.seed, row.seed);
    EXPECT_EQ(back.runtime, row.runtime);
    EXPECT_EQ(back.correct, row.correct);
    EXPECT_EQ(back.error, row.error);
    // The metric columns are fixed 4-decimal text on the wire; the
    // round trip is exact at that precision.
    EXPECT_DOUBLE_EQ(back.speedup, row.speedup);
    EXPECT_DOUBLE_EQ(back.areaMm2, row.areaMm2);
    // Serialize-parse-serialize is byte-stable.
    EXPECT_EQ(rowJson(back), rowJson(row));
}

TEST(RowWire, RoundTripFuzzIsByteStable)
{
    // Deterministic LCG fuzz: any row writeJsonLine() can emit must
    // parse back and re-serialize byte-identically (that is exactly
    // what a parallel sweep does to every row).
    std::uint64_t state = 0x2545f4914f6cdd1dull;
    auto next = [&state] {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return state;
    };
    auto fuzzString = [&next] {
        std::string s;
        const std::size_t len = next() % 24;
        for (std::size_t i = 0; i < len; ++i)
            s += static_cast<char>(next() % 256);
        return s;
    };
    for (int iter = 0; iter < 256; ++iter) {
        SweepRow row;
        row.workload = fuzzString();
        row.app = fuzzString();
        row.mode = fuzzString();
        row.cores = static_cast<unsigned>(next());
        row.memHubs = static_cast<unsigned>(next() % 64);
        row.size = static_cast<unsigned>(next());
        row.seed = next();
        // Cache-ladder coordinates are optional keys: half the rows
        // carry them (0 = absent by construction).
        row.l2KiB = next() % 2 == 0 ? 0
                                    : static_cast<unsigned>(next() % 4096);
        row.l3KiB = next() % 2 == 0 ? 0
                                    : static_cast<unsigned>(next() % 4096);
        row.runtime = next();
        row.correct = next() % 2 == 0;
        // Moderate magnitudes: the wire format is fixed 4-decimal
        // text, which is only self-inverse below ~2^49.
        row.speedup = static_cast<double>(next() % 1000000000) / 1e4;
        row.areaMm2 = static_cast<double>(next() % 1000000) / 1e4;
        row.adpNorm = static_cast<double>(next() % 1000000) / 1e4;
        if (next() % 2 == 0)
            row.error = fuzzString();

        const std::string line = rowJson(row);
        SweepRow back;
        std::string err;
        ASSERT_TRUE(parseSweepRow(line, back, err))
            << "iter " << iter << ": " << err << "\n" << line;
        EXPECT_EQ(rowJson(back), line) << "iter " << iter;
        EXPECT_EQ(back.seed, row.seed);
        EXPECT_EQ(back.runtime, row.runtime);
        EXPECT_EQ(back.workload, row.workload);
        EXPECT_EQ(back.error, row.error);
    }
}

TEST(RowWire, MalformedLinesAreRejectedWithDiagnostics)
{
    SweepRow row;
    std::string err;
    EXPECT_FALSE(parseSweepRow("", row, err));
    EXPECT_FALSE(parseSweepRow("not json", row, err));
    EXPECT_FALSE(parseSweepRow("{}", row, err)); // missing required keys
    EXPECT_NE(err.find("missing"), std::string::npos);
    EXPECT_FALSE(parseSweepRow("{\"workload\": \"bfs\"", row, err));
    EXPECT_FALSE(parseSweepRow("{\"workload\": 7}", row, err));
    // A valid row with trailing garbage must not pass.
    std::string line = rowJson(sampleRow());
    line.pop_back(); // strip '\n'
    EXPECT_TRUE(parseSweepRow(line, row, err)) << err;
    EXPECT_FALSE(parseSweepRow(line + "}", row, err));
    // Unknown keys are forward-compatible, not fatal — whatever the
    // value's shape, including nested composites with tricky strings.
    EXPECT_TRUE(parseSweepRow(
        line.substr(0, line.size() - 1) + ", \"future_key\": 12}", row,
        err))
        << err;
    EXPECT_TRUE(parseSweepRow(
        line.substr(0, line.size() - 1) +
            ", \"future\": {\"a\": [1, \"x\\\"]y\", []], \"b\": null}}",
        row, err))
        << err;
    // ... but a malformed composite is still an error.
    EXPECT_FALSE(parseSweepRow(
        line.substr(0, line.size() - 1) + ", \"future\": [}}", row, err));
}

TEST(RowWire, ReadSweepRowsSkipsBlanksAndNumbersErrors)
{
    std::istringstream good(rowJson(sampleRow()) + "\n" +
                            rowJson(sampleRow()));
    std::vector<SweepRow> rows;
    std::string err;
    ASSERT_TRUE(readSweepRows(good, rows, err)) << err;
    EXPECT_EQ(rows.size(), 2u);

    // rowJson ends with '\n', so the garbage sits on line 2.
    std::istringstream bad(rowJson(sampleRow()) + "garbage\n");
    rows.clear();
    EXPECT_FALSE(readSweepRows(bad, rows, err));
    EXPECT_NE(err.find("line 2"), std::string::npos) << err;
}

// ------------------------- parallel sweeps ----------------------------

TEST(SweepParallel, TwelveRowSweepIsByteIdenticalAcrossJobCounts)
{
    SweepSpec spec;
    spec.workloads = "popcount,tangent";
    spec.modes = "duet,cpu";
    spec.sizes = "4,8,16";
    std::vector<SweepScenario> scenarios;
    std::string err;
    ASSERT_TRUE(expandSweep(spec, scenarios, err)) << err;
    ASSERT_EQ(scenarios.size(), 12u);

    SystemConfig base;
    auto render = [&](unsigned jobs) {
        SweepRunOptions opts;
        opts.jobs = jobs;
        std::size_t streamed = 0;
        std::vector<SweepRow> rows = runSweep(
            scenarios, base, nullptr,
            [&](const SweepRow &) { ++streamed; }, opts);
        EXPECT_EQ(streamed, scenarios.size()) << "jobs=" << jobs;
        addDerivedMetrics(rows);
        std::ostringstream csv, jsonl;
        writeCsv(csv, rows);
        writeJsonLines(jsonl, rows);
        for (const SweepRow &r : rows)
            EXPECT_TRUE(r.correct)
                << "jobs=" << jobs << " " << r.workload << "/" << r.mode
                << " size=" << r.size << ": " << r.error;
        return csv.str() + "\x1e" + jsonl.str();
    };
    const std::string j1 = render(1);
    const std::string j8 = render(8);
    EXPECT_EQ(j1, j8);
    // Sanity: real rows, not an empty-vs-empty match.
    EXPECT_NE(j1.find("popcount"), std::string::npos);
    EXPECT_NE(j1.find("tangent"), std::string::npos);
}

// ------------------------- submit-as-you-go ---------------------------

TEST(Pool, SubmitAsYouGoDeliversEveryCompletion)
{
    ExecutorConfig cfg;
    cfg.jobs = 2;
    ResidentPool pool(cfg, testService);
    std::vector<std::string> got(5);
    std::size_t delivered = 0;
    for (std::size_t i = 0; i < got.size(); ++i) {
        pool.submit("job" + std::to_string(i), [&, i](JobResult &&res) {
            ASSERT_EQ(res.status, JobStatus::Ok);
            got[i] = res.payload;
            ++delivered;
        });
        // Interleave scheduling with submission, as a server would.
        pool.pump(0);
    }
    pool.drain();
    EXPECT_EQ(delivered, got.size());
    EXPECT_EQ(pool.inFlight(), 0u);
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], "job" + std::to_string(i));
}

TEST(Pool, InFlightCapBoundsTheBacklog)
{
    ExecutorConfig cfg;
    cfg.jobs = 1;
    cfg.maxInFlight = 2;
    ResidentPool pool(cfg, testService);
    std::size_t delivered = 0;
    for (int i = 0; i < 6; ++i) {
        pool.submit("x", [&](JobResult &&) { ++delivered; });
        // submit() blocks (delivering completions) until the backlog
        // is back under the cap before queueing the new request.
        EXPECT_LE(pool.inFlight(), 2u) << "after submit " << i;
    }
    pool.drain();
    EXPECT_EQ(delivered, 6u);
}

TEST(Pool, SurvivesACrashedWorkerAndKeepsServing)
{
    ExecutorConfig cfg;
    cfg.jobs = 2;
    ResidentPool pool(cfg, testService);
    JobResult crash, after;
    pool.submit("segv", [&](JobResult &&res) { crash = std::move(res); });
    pool.drain();
    // The pool object outlives the crash: later submissions still run.
    pool.submit("alive", [&](JobResult &&res) { after = std::move(res); });
    pool.drain();
    EXPECT_EQ(crash.status, JobStatus::Crashed);
    EXPECT_NE(crash.diagnostic.find("SIGSEGV"), std::string::npos)
        << crash.diagnostic;
    EXPECT_EQ(after.status, JobStatus::Ok);
    EXPECT_EQ(after.payload, "alive");
}

TEST(Pool, ExternalEventLoopViaAddReadFds)
{
    // Drive the pool the way the scenario server does: poll its fds
    // alongside (here: instead of) the input stream, then pump(0).
    ExecutorConfig cfg;
    cfg.jobs = 2;
    ResidentPool pool(cfg, testService);
    std::vector<std::string> got;
    for (int i = 0; i < 3; ++i) {
        pool.submit("nap:" + std::to_string(i),
                    [&](JobResult &&res) { got.push_back(res.payload); });
    }
    const auto deadline = std::chrono::steady_clock::now() + 30s;
    while (pool.inFlight() > 0 &&
           std::chrono::steady_clock::now() < deadline) {
        std::vector<pollfd> fds;
        pool.addReadFds(fds);
        ASSERT_FALSE(fds.empty());
        int hint = pool.timeoutHintMs();
        ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
               hint < 0 ? 1000 : hint);
        pool.pump(0);
    }
    EXPECT_EQ(pool.inFlight(), 0u);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, (std::vector<std::string>{"0", "1", "2"}));
}

TEST(Pool, PerJobTimeoutFiresInsidePump)
{
    ExecutorConfig cfg;
    cfg.jobs = 1;
    cfg.timeoutSeconds = 1;
    ResidentPool pool(cfg, testService);
    JobResult res;
    pool.submit("hang", [&](JobResult &&r) { res = std::move(r); });
    const auto start = std::chrono::steady_clock::now();
    pool.drain();
    EXPECT_EQ(res.status, JobStatus::TimedOut);
    EXPECT_LT(std::chrono::steady_clock::now() - start, 30s);
}

// ------------------------- resident workers ---------------------------

TEST(ResidentPool, OneWorkerAnswersSequentialRequestsFromOnePid)
{
    ExecutorConfig cfg;
    cfg.jobs = 1;
    ResidentPool pool(cfg, testService);
    std::vector<JobResult> results =
        runBatch(pool, std::vector<std::string>(5, "pid"));
    ASSERT_EQ(results.size(), 5u);
    for (const JobResult &r : results) {
        ASSERT_EQ(r.status, JobStatus::Ok) << r.diagnostic;
        EXPECT_EQ(r.payload, results[0].payload);
    }
    // A forked worker, not the parent, answered every request.
    EXPECT_NE(results[0].payload, std::to_string(::getpid()));
    const auto stats = pool.workerStats();
    ASSERT_EQ(stats.size(), 1u);
    EXPECT_EQ(stats[0].requests, 5u);
}

TEST(ResidentPool, CrashedWorkerIsReplacedByANewPid)
{
    ExecutorConfig cfg;
    cfg.jobs = 1;
    ResidentPool pool(cfg, testService);
    std::vector<JobResult> results =
        runBatch(pool, {"pid", "segv", "pid"});
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[0].status, JobStatus::Ok);
    EXPECT_EQ(results[1].status, JobStatus::Crashed);
    EXPECT_NE(results[1].diagnostic.find("SIGSEGV"), std::string::npos)
        << results[1].diagnostic;
    // The request after the crash succeeds on a freshly forked worker.
    EXPECT_EQ(results[2].status, JobStatus::Ok);
    EXPECT_NE(results[2].payload, results[0].payload);
    const auto stats = pool.workerStats();
    ASSERT_EQ(stats.size(), 1u);
    EXPECT_EQ(stats[0].requests, 1u); // the crashed worker's totals retired
}

TEST(ResidentPool, PipeBufferSizedRequestFrameRoundTrips)
{
    // Parent to worker: the request frame alone is far past the pipe
    // buffer, and the echo sends it straight back.
    const std::string big = "echo " + bigPayload();
    std::vector<JobResult> results = runBatch(ExecutorConfig{}, {big});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, JobStatus::Ok) << results[0].diagnostic;
    EXPECT_EQ(results[0].payload, big);
}

} // namespace
} // namespace duet
