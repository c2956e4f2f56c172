/**
 * @file
 * Tests of the scenario service layer (service/scenario_service.hh)
 * and the `--serve` protocol core (service/serve.hh): request/response
 * JSONL codec round trips, registry-bound validation, crash/timeout
 * isolation on the persistent pool (via the injected-runner seam), the
 * malformed-line and EOF-mid-stream server paths, and the acceptance
 * guarantee that id-sorted `--serve` responses are byte-identical to
 * the equivalent `--sweep` rows.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "service/scenario_service.hh"
#include "service/serve.hh"
#include "sim/config.hh"
#include "sim/json.hh"

namespace duet
{
namespace
{

std::string
requestLine(const ScenarioRequest &req)
{
    std::ostringstream os;
    writeScenarioRequest(os, req);
    return os.str();
}

std::string
rowLine(const SweepRow &row)
{
    std::ostringstream os;
    writeJsonLine(os, row);
    return os.str();
}

// ------------------------- request codec ------------------------------

TEST(RequestWire, FullRequestRoundTrips)
{
    ScenarioRequest req;
    req.id = "client-42";
    req.workload = "bfs";
    req.mode = "fpsoc";
    req.cores = 8;
    req.size = 1024;
    req.seed = 99;
    req.l2KiB = 16;
    req.l3KiB = 256;
    req.l2Ways = 8;
    req.l3Ways = 16;
    req.spmKiB = 64;
    req.cpuFreqMhz = 2000;
    req.fpgaFreqMhz = 250;
    req.maxTicksUs = 12345;

    ScenarioRequest back;
    std::string err;
    ASSERT_TRUE(parseScenarioRequest(requestLine(req), back, err)) << err;
    EXPECT_EQ(back.id, req.id);
    EXPECT_EQ(back.workload, req.workload);
    EXPECT_EQ(back.mode, req.mode);
    EXPECT_EQ(back.cores, req.cores);
    EXPECT_EQ(back.size, req.size);
    EXPECT_EQ(back.seed, req.seed);
    EXPECT_EQ(back.l2KiB, req.l2KiB);
    EXPECT_EQ(back.l3KiB, req.l3KiB);
    EXPECT_EQ(back.l2Ways, req.l2Ways);
    EXPECT_EQ(back.l3Ways, req.l3Ways);
    EXPECT_EQ(back.spmKiB, req.spmKiB);
    EXPECT_EQ(back.cpuFreqMhz, req.cpuFreqMhz);
    EXPECT_EQ(back.fpgaFreqMhz, req.fpgaFreqMhz);
    EXPECT_EQ(back.maxTicksUs, req.maxTicksUs);
    // Serialize-parse-serialize is byte-stable.
    EXPECT_EQ(requestLine(back), requestLine(req));
}

TEST(RequestWire, MinimalRequestGetsDefaults)
{
    ScenarioRequest req;
    std::string err;
    ASSERT_TRUE(
        parseScenarioRequest("{\"workload\": \"popcount\"}", req, err))
        << err;
    EXPECT_EQ(req.workload, "popcount");
    EXPECT_EQ(req.mode, "duet");
    EXPECT_TRUE(req.id.empty());
    EXPECT_EQ(req.cores, 0u);
    EXPECT_EQ(req.size, 0u);
}

TEST(RequestWire, NumericIdIsAcceptedVerbatim)
{
    ScenarioRequest req;
    std::string err;
    ASSERT_TRUE(parseScenarioRequest(
        "{\"id\": 17, \"workload\": \"bfs\"}", req, err))
        << err;
    EXPECT_EQ(req.id, "17");
}

TEST(RequestWire, MalformedRequestsAreRejectedWithDiagnostics)
{
    ScenarioRequest req;
    std::string err;
    EXPECT_FALSE(parseScenarioRequest("", req, err));
    EXPECT_FALSE(parseScenarioRequest("not json", req, err));
    EXPECT_FALSE(parseScenarioRequest("{}", req, err));
    EXPECT_NE(err.find("workload"), std::string::npos) << err;
    // Unknown keys are rejected: a typo'd override must not silently
    // run a different scenario than the client asked for.
    EXPECT_FALSE(parseScenarioRequest(
        "{\"workload\": \"bfs\", \"sizee\": 64}", req, err));
    EXPECT_NE(err.find("sizee"), std::string::npos) << err;
    // Type confusion.
    EXPECT_FALSE(
        parseScenarioRequest("{\"workload\": 7}", req, err));
    EXPECT_FALSE(parseScenarioRequest(
        "{\"workload\": \"bfs\", \"size\": \"64\"}", req, err));
    // Truncation and trailing garbage.
    EXPECT_FALSE(
        parseScenarioRequest("{\"workload\": \"bfs\"", req, err));
    EXPECT_FALSE(
        parseScenarioRequest("{\"workload\": \"bfs\"} tail", req, err));
}

// ------------------------- response codec -----------------------------

TEST(ResponseWire, ResponseEmbedsTheRowVerbatim)
{
    ScenarioResponse resp;
    resp.id = "r1";
    resp.status = ResponseStatus::Failed;
    resp.row.workload = "bfs";
    resp.row.app = "bfs/4";
    resp.row.mode = "duet";
    resp.row.cores = 4;
    resp.row.size = 256;
    resp.row.seed = 777;
    resp.row.l3KiB = 4096;
    resp.row.runtime = 123 * kTicksPerNs;
    resp.row.error = "worker killed by SIGSEGV";

    std::ostringstream os;
    writeScenarioResponse(os, resp);
    const std::string line = os.str();

    // The response line IS a row object with an envelope: the row
    // parser skips the envelope keys, so the row wire format stays
    // single-sourced.
    SweepRow row;
    std::string err;
    ASSERT_TRUE(parseSweepRow(line, row, err)) << err << "\n" << line;
    EXPECT_EQ(rowLine(row), rowLine(resp.row));

    ScenarioResponse back;
    ASSERT_TRUE(parseScenarioResponse(line, back, err)) << err;
    EXPECT_EQ(back.id, "r1");
    EXPECT_EQ(back.status, ResponseStatus::Failed);
    EXPECT_EQ(rowLine(back.row), rowLine(resp.row));
}

TEST(ResponseWire, EnvelopeIsRequired)
{
    ScenarioResponse resp;
    std::string err;
    EXPECT_FALSE(parseScenarioResponse(rowLine(SweepRow{}), resp, err));
    EXPECT_NE(err.find("envelope"), std::string::npos) << err;
    EXPECT_FALSE(parseScenarioResponse(
        "{\"id\": \"x\", \"status\": \"weird\"}", resp, err));
}

// ------------------------- validation ---------------------------------

TEST(Validate, RegistryBoundsAreEnforced)
{
    SystemConfig base;
    SweepScenario sc;
    SystemConfig cfg;
    std::string err;

    ScenarioRequest req;
    req.workload = "nope";
    EXPECT_FALSE(validateRequest(req, base, sc, cfg, err));
    EXPECT_NE(err.find("unknown workload"), std::string::npos) << err;

    req.workload = "bfs";
    req.mode = "warp";
    EXPECT_FALSE(validateRequest(req, base, sc, cfg, err));
    EXPECT_NE(err.find("unknown mode"), std::string::npos) << err;

    req.mode = "duet";
    req.size = 0xffffffffu; // far past the registry ceiling
    EXPECT_FALSE(validateRequest(req, base, sc, cfg, err));

    req.size = 0;
    req.l2KiB = kMaxCacheKiB + 1;
    EXPECT_FALSE(validateRequest(req, base, sc, cfg, err));
    EXPECT_NE(err.find("l2_kib"), std::string::npos) << err;

    req.l2KiB = 0;
    req.maxTicksUs = ~std::uint64_t{0};
    EXPECT_FALSE(validateRequest(req, base, sc, cfg, err));
}

TEST(Validate, DefaultsResolveAndOverridesLayer)
{
    SystemConfig base;
    SweepScenario sc;
    SystemConfig cfg;
    std::string err;

    ScenarioRequest req;
    req.workload = "bfs";
    req.mode = "cpu";
    req.l2KiB = 32;
    req.l3Ways = 16;
    req.spmKiB = 64;
    req.maxTicksUs = 1000;
    ASSERT_TRUE(validateRequest(req, base, sc, cfg, err)) << err;
    EXPECT_EQ(sc.workload->name, "bfs");
    EXPECT_EQ(sc.mode, SystemMode::CpuOnly);
    EXPECT_GT(sc.params.cores, 0u); // registry default filled in
    EXPECT_GT(sc.params.size, 0u);
    EXPECT_EQ(sc.l2KiB, 32u); // ladder coordinate rides on the scenario
    EXPECT_EQ(cfg.mode, SystemMode::CpuOnly);
    EXPECT_EQ(cfg.l3.ways, 16u);
    EXPECT_EQ(cfg.scratchpadBytes, 64u * 1024u);
    EXPECT_FALSE(cfg.scratchpadAuto);
    EXPECT_EQ(cfg.maxTicks, 1000 * kTicksPerUs);
}

TEST(Validate, UnbuildableShapeInTheBaseConfigIsRejected)
{
    // The CLI layers --l2-ways/--l3-kib/--cpu-mhz onto the base config
    // before validation, so a shape the hardware cannot be built with
    // must be caught there too, not only in the request's own fields.
    SweepScenario sc;
    SystemConfig cfg;
    std::string err;
    ScenarioRequest req;
    req.workload = "tangent";

    SystemConfig base;
    base.l2.ways = 3;
    EXPECT_FALSE(validateRequest(req, base, sc, cfg, err));
    EXPECT_NE(err.find("l2_ways 3"), std::string::npos) << err;

    base = SystemConfig{};
    base.l3.sizeBytes = 3 * 1024;
    EXPECT_FALSE(validateRequest(req, base, sc, cfg, err));
    EXPECT_NE(err.find("l3_kib 3"), std::string::npos) << err;

    base = SystemConfig{};
    base.cpuFreqMhz = 5000000;
    EXPECT_FALSE(validateRequest(req, base, sc, cfg, err));
    EXPECT_NE(err.find("cpu_mhz 5000000"), std::string::npos) << err;

    // The fastest clock with a whole-tick period still builds.
    base = SystemConfig{};
    base.cpuFreqMhz = 1000000;
    EXPECT_TRUE(validateRequest(req, base, sc, cfg, err)) << err;
}

// ------------------------- service scheduling -------------------------

/** Test seam: a worker body that crashes or hangs on magic sizes (the
 *  sizes are valid popcount inputs, so validation lets them through
 *  and the failure happens inside the worker — exactly like a real
 *  simulator bug would). */
SweepRow
faultInjectingRunner(const SweepScenario &sc, const SystemConfig &cfg)
{
    if (sc.params.size == 13) {
        // Default disposition first: a sanitizer's SEGV handler would
        // otherwise turn this into exit 1 and break the signal-death
        // classification this seam exists to exercise.
        std::signal(SIGSEGV, SIG_DFL);
        std::raise(SIGSEGV);
    }
    if (sc.params.size == 14)
        std::this_thread::sleep_for(std::chrono::seconds(60));
    return runScenario(sc, cfg);
}

TEST(Service, ServesConcurrentRequestsAndEchoesIds)
{
    SystemConfig base;
    ScenarioService::Options opts;
    opts.jobs = 4;
    std::map<std::string, ScenarioResponse> got;
    ScenarioService svc(base, opts, [&](const ScenarioResponse &resp) {
        got[resp.id] = resp;
    });
    for (int i = 0; i < 8; ++i) {
        ScenarioRequest req;
        req.id = "req-" + std::to_string(i);
        req.workload = i % 2 == 0 ? "popcount" : "tangent";
        req.size = 4 + static_cast<unsigned>(i);
        svc.submit(req);
    }
    const ScenarioService::Summary sum = svc.drain();
    EXPECT_EQ(sum.served, 8u);
    EXPECT_EQ(sum.failed, 0u);
    ASSERT_EQ(got.size(), 8u);
    for (int i = 0; i < 8; ++i) {
        const auto it = got.find("req-" + std::to_string(i));
        ASSERT_NE(it, got.end()) << i;
        EXPECT_EQ(it->second.status, ResponseStatus::Ok);
        EXPECT_TRUE(it->second.row.correct);
        EXPECT_GT(it->second.row.runtime, 0u);
        EXPECT_GT(it->second.row.areaMm2, 0.0); // per-row derive ran
    }
}

TEST(Service, InvalidRequestRespondsImmediatelyAndPoolSurvives)
{
    SystemConfig base;
    ScenarioService::Options opts;
    opts.jobs = 2;
    std::vector<ScenarioResponse> got;
    ScenarioService svc(base, opts, [&](const ScenarioResponse &resp) {
        got.push_back(resp);
    });
    ScenarioRequest bad;
    bad.id = "bad";
    bad.workload = "no-such-benchmark";
    svc.submit(bad);
    // Invalid requests never touch the pool: the response is already
    // there, before any pump.
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].id, "bad");
    EXPECT_EQ(got[0].status, ResponseStatus::Invalid);
    EXPECT_NE(got[0].row.error.find("unknown workload"),
              std::string::npos);

    ScenarioRequest good;
    good.id = "good";
    good.workload = "popcount";
    good.size = 8;
    svc.submit(good);
    const ScenarioService::Summary sum = svc.drain();
    EXPECT_EQ(sum.served, 1u);
    EXPECT_EQ(sum.failed, 1u);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[1].status, ResponseStatus::Ok);
}

TEST(Service, UnbuildableCacheOrClockShapeIsInvalidAndNoWorkerDies)
{
    // A cache whose set count (capacity / 16 B line / ways) is not a
    // power of two, or a clock above 1,000,000 MHz, panics while the
    // System is built. Validation answers them Invalid, naming the
    // field, before any worker runs them. The ladder's l2_kib/l3_kib
    // are applied only inside the worker, so they are judged as the
    // effective capacity.
    SystemConfig base;
    ScenarioService::Options opts;
    opts.jobs = 1;
    std::map<std::string, ScenarioResponse> got;
    ScenarioService svc(base, opts, [&](const ScenarioResponse &resp) {
        got[resp.id] = resp;
    });
    auto tangent = [](const char *id) {
        ScenarioRequest req;
        req.id = id;
        req.workload = "tangent";
        return req;
    };
    // Each request's id is the field and value its message must name.
    const std::pair<const char *, void (*)(ScenarioRequest &)> bad[] = {
        {"l2_ways 3", [](ScenarioRequest &r) { r.l2Ways = 3; }},
        {"l3_ways 3", [](ScenarioRequest &r) { r.l3Ways = 3; }},
        {"l2_kib 12", [](ScenarioRequest &r) { r.l2KiB = 12; }},
        {"l3_kib 3", [](ScenarioRequest &r) { r.l3KiB = 3; }},
        {"cpu_mhz 5000000",
         [](ScenarioRequest &r) { r.cpuFreqMhz = 5000000; }},
        {"fpga_mhz 2000000",
         [](ScenarioRequest &r) { r.fpgaFreqMhz = 2000000; }},
    };
    for (const auto &[field, apply] : bad) {
        ScenarioRequest req = tangent(field);
        apply(req);
        svc.submit(req);
        ASSERT_EQ(got.count(field), 1u) << field; // answered before a pump
        EXPECT_EQ(got[field].status, ResponseStatus::Invalid) << field;
        EXPECT_NE(got[field].row.error.find(field), std::string::npos)
            << got[field].row.error;
    }

    ScenarioRequest good = tangent("good");
    good.l3KiB = 256; // a ladder rung with a power-of-two set count
    svc.submit(good);
    const ScenarioService::Summary sum = svc.drain();
    EXPECT_EQ(sum.served, 1u);
    EXPECT_EQ(sum.failed, std::size(bad));
    EXPECT_EQ(got["good"].status, ResponseStatus::Ok);
}

TEST(Service, CrashingScenarioFailsAloneAndServiceKeepsServing)
{
    SystemConfig base;
    ScenarioService::Options opts;
    opts.jobs = 2;
    opts.runner = &faultInjectingRunner;
    std::map<std::string, ScenarioResponse> got;
    ScenarioService svc(base, opts, [&](const ScenarioResponse &resp) {
        got[resp.id] = resp;
    });
    ScenarioRequest crash;
    crash.id = "crash";
    crash.workload = "popcount";
    crash.size = 13;
    svc.submit(crash);
    for (int i = 0; i < 3; ++i) {
        ScenarioRequest ok;
        ok.id = "ok-" + std::to_string(i);
        ok.workload = "popcount";
        ok.size = 8;
        svc.submit(ok);
    }
    const ScenarioService::Summary sum = svc.drain();
    EXPECT_EQ(sum.served, 3u);
    EXPECT_EQ(sum.failed, 1u);
    ASSERT_EQ(got.count("crash"), 1u);
    EXPECT_EQ(got["crash"].status, ResponseStatus::Failed);
    EXPECT_NE(got["crash"].row.error.find("SIGSEGV"), std::string::npos)
        << got["crash"].row.error;
    // The failed response still carries the scenario identity.
    EXPECT_EQ(got["crash"].row.workload, "popcount");
    EXPECT_EQ(got["crash"].row.size, 13u);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(got["ok-" + std::to_string(i)].status,
                  ResponseStatus::Ok);
}

TEST(Service, HungScenarioTimesOutAndServiceKeepsServing)
{
    SystemConfig base;
    ScenarioService::Options opts;
    opts.jobs = 2;
    opts.timeoutSeconds = 1;
    opts.runner = &faultInjectingRunner;
    std::map<std::string, ScenarioResponse> got;
    ScenarioService svc(base, opts, [&](const ScenarioResponse &resp) {
        got[resp.id] = resp;
    });
    ScenarioRequest hang;
    hang.id = "hang";
    hang.workload = "popcount";
    hang.size = 14;
    svc.submit(hang);
    ScenarioRequest ok;
    ok.id = "ok";
    ok.workload = "popcount";
    ok.size = 8;
    svc.submit(ok);
    const auto start = std::chrono::steady_clock::now();
    const ScenarioService::Summary sum = svc.drain();
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(30));
    EXPECT_EQ(sum.served, 1u);
    EXPECT_EQ(sum.failed, 1u);
    EXPECT_EQ(got["hang"].status, ResponseStatus::Failed);
    EXPECT_NE(got["hang"].row.error.find("timed out"), std::string::npos)
        << got["hang"].row.error;
    EXPECT_EQ(got["ok"].status, ResponseStatus::Ok);
}

// ------------------------- serve protocol core ------------------------

/** Feed @p input through serveStream and return the response lines.
 *  Both streams are unlinked temporary files, so neither the requests
 *  nor the responses are bounded by a pipe buffer. */
std::vector<std::string>
serveRoundTrip(const std::string &input, ServeSummary &sum,
               const ScenarioService::Options &opts = {})
{
    std::FILE *in = std::tmpfile();
    std::FILE *out = std::tmpfile();
    EXPECT_NE(in, nullptr);
    EXPECT_NE(out, nullptr);
    if (in == nullptr || out == nullptr)
        return {};
    EXPECT_EQ(std::fwrite(input.data(), 1, input.size(), in), input.size());
    std::rewind(in); // flushes; serveStream reads the fd from offset 0

    SystemConfig base;
    sum = serveStream(::fileno(in), ::fileno(out), base, opts);

    std::rewind(out);
    std::string text;
    char chunk[65536];
    std::size_t n;
    while ((n = std::fread(chunk, 1, sizeof(chunk), out)) > 0)
        text.append(chunk, n);
    std::fclose(in);
    std::fclose(out);

    std::vector<std::string> lines;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line))
        if (!line.empty())
            lines.push_back(line);
    return lines;
}

TEST(Serve, MalformedLineGetsAnInvalidResponseNotBatchDeath)
{
    ScenarioRequest good;
    good.workload = "popcount";
    good.size = 8;
    good.id = "g1";
    std::string input = requestLine(good);
    input += "this is not a request\n";
    good.id = "g2";
    input += requestLine(good);

    ServeSummary sum;
    ScenarioService::Options opts;
    opts.jobs = 2;
    const std::vector<std::string> lines =
        serveRoundTrip(input, sum, opts);

    ASSERT_EQ(lines.size(), 3u);
    EXPECT_EQ(sum.served, 2u);
    EXPECT_EQ(sum.failed, 1u);
    std::map<std::string, ScenarioResponse> got;
    for (const std::string &l : lines) {
        ScenarioResponse resp;
        std::string err;
        ASSERT_TRUE(parseScenarioResponse(l, resp, err)) << err << l;
        got[resp.id] = resp;
    }
    // The malformed line answers under its 1-based line number.
    ASSERT_EQ(got.count("2"), 1u);
    EXPECT_EQ(got["2"].status, ResponseStatus::Invalid);
    EXPECT_NE(got["2"].row.error.find("bad request line"),
              std::string::npos);
    EXPECT_EQ(got["g1"].status, ResponseStatus::Ok);
    EXPECT_EQ(got["g2"].status, ResponseStatus::Ok);
}

TEST(Serve, EofMidStreamDrainsInFlightWorkCleanly)
{
    // Close the request stream immediately after writing: the server
    // sees EOF while scenarios are still queued/running and must
    // answer every one of them before summarizing.
    std::string input;
    // Fixed id table, not `"r" + std::to_string(i)`: GCC 12's
    // -Wrestrict misfires on in-loop string building when TSan
    // instrumentation is on (gcc bug 105651).
    static const char *const kIds[6] = {"r0", "r1", "r2", "r3", "r4", "r5"};
    for (int i = 0; i < 6; ++i) {
        ScenarioRequest req;
        req.id = kIds[i];
        req.workload = i % 2 == 0 ? "popcount" : "tangent";
        req.size = 4 + static_cast<unsigned>(i);
        input += requestLine(req);
    }
    // Plus a trailing request with no newline: still a request.
    ScenarioRequest last;
    last.id = "last";
    last.workload = "popcount";
    last.size = 4;
    std::string lastLine = requestLine(last);
    lastLine.pop_back();
    input += lastLine;

    ServeSummary sum;
    ScenarioService::Options opts;
    opts.jobs = 4;
    const std::vector<std::string> lines =
        serveRoundTrip(input, sum, opts);
    EXPECT_EQ(lines.size(), 7u);
    EXPECT_EQ(sum.served, 7u);
    EXPECT_EQ(sum.failed, 0u);
}

/** Pull the unsigned integer following `"<key>": ` out of a JSON
 *  line. The stats line is flat enough that substring extraction is
 *  honest; ADD a json::Cursor pass in the test body for structure. */
std::uint64_t
extractU64(const std::string &line, const std::string &key)
{
    const std::string needle = "\"" + key + "\": ";
    const std::size_t at = line.find(needle);
    EXPECT_NE(at, std::string::npos) << key << " missing in " << line;
    if (at == std::string::npos)
        return 0;
    std::uint64_t v = 0;
    std::size_t p = at + needle.size();
    while (p < line.size() && line[p] >= '0' && line[p] <= '9')
        v = v * 10 + static_cast<std::uint64_t>(line[p++] - '0');
    return v;
}

TEST(Serve, StatsRequestAnswersUnderConcurrentLoad)
{
    // Interleave scenario requests with {"type": "stats"} control
    // lines: the server must answer each stats probe synchronously
    // with telemetry that is internally consistent even while
    // scenarios are still in flight on the pool.
    std::string input;
    static const char *const kIds[12] = {"a0", "a1", "a2", "a3",
                                         "b0", "b1", "b2", "b3",
                                         "c0", "c1", "c2", "c3"};
    for (int i = 0; i < 6; ++i) {
        ScenarioRequest req;
        req.id = kIds[i];
        req.workload = i % 2 == 0 ? "popcount" : "tangent";
        req.size = 4 + static_cast<unsigned>(i);
        input += requestLine(req);
    }
    input += "{\"type\": \"stats\"}\n";
    for (int i = 6; i < 12; ++i) {
        ScenarioRequest req;
        req.id = kIds[i];
        req.workload = "popcount";
        req.size = 4 + static_cast<unsigned>(i % 6);
        input += requestLine(req);
    }
    input += "{\"type\": \"stats\"}\n";

    ServeSummary sum;
    ScenarioService::Options opts;
    opts.jobs = 4;
    const std::vector<std::string> lines =
        serveRoundTrip(input, sum, opts);

    EXPECT_EQ(sum.served, 12u);
    EXPECT_EQ(sum.failed, 0u);
    std::vector<std::string> stats;
    std::size_t responses = 0;
    for (const std::string &l : lines) {
        if (l.find("\"type\": \"stats\"") != std::string::npos)
            stats.push_back(l);
        else
            ++responses;
    }
    EXPECT_EQ(responses, 12u);
    ASSERT_EQ(stats.size(), 2u);

    std::uint64_t prevServed = 0;
    for (const std::string &l : stats) {
        // Structurally valid JSON, one value, nothing trailing.
        std::string err;
        json::Cursor cur{l + "\n", 0, err};
        EXPECT_TRUE(cur.skipValue()) << err << "\n" << l;

        const std::uint64_t served = extractU64(l, "served");
        const std::uint64_t completed = extractU64(l, "completed");
        const std::uint64_t count = extractU64(l, "count");
        const std::uint64_t p50 = extractU64(l, "p50");
        const std::uint64_t p95 = extractU64(l, "p95");
        const std::uint64_t p99 = extractU64(l, "p99");
        EXPECT_EQ(extractU64(l, "failed"), 0u) << l;
        // Latency histogram counts exactly the pool-completed requests.
        EXPECT_EQ(count, completed) << l;
        EXPECT_LE(served, 12u);
        EXPECT_GE(served, prevServed); // stats never go backwards
        prevServed = served;
        EXPECT_LE(p50, p95) << l;
        EXPECT_LE(p95, p99) << l;
        // One per-worker utilization entry per pool worker.
        std::size_t workers = 0;
        for (std::size_t at = l.find("\"requests\"");
             at != std::string::npos;
             at = l.find("\"requests\"", at + 1))
            ++workers;
        EXPECT_EQ(workers, 4u) << l;
        EXPECT_NE(l.find("\"utilization\""), std::string::npos);
        EXPECT_NE(l.find("\"warm_starts\""), std::string::npos);
    }
}

TEST(Serve, UnknownControlTypeIsRejectedNotFatal)
{
    ScenarioRequest good;
    good.workload = "popcount";
    good.size = 8;
    good.id = "g";
    std::string input = "{\"type\": \"shutdown\"}\n";
    input += requestLine(good);

    ServeSummary sum;
    ScenarioService::Options opts;
    opts.jobs = 2;
    const std::vector<std::string> lines =
        serveRoundTrip(input, sum, opts);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(sum.served, 1u);
    EXPECT_EQ(sum.failed, 1u);
    std::map<std::string, ScenarioResponse> got;
    for (const std::string &l : lines) {
        ScenarioResponse resp;
        std::string err;
        ASSERT_TRUE(parseScenarioResponse(l, resp, err)) << err << l;
        got[resp.id] = resp;
    }
    ASSERT_EQ(got.count("1"), 1u); // rejected under its line number
    EXPECT_EQ(got["1"].status, ResponseStatus::Invalid);
    EXPECT_NE(got["1"].row.error.find("control"), std::string::npos)
        << got["1"].row.error;
    EXPECT_EQ(got["g"].status, ResponseStatus::Ok);
}

TEST(Serve, RequestWhoseIdIsTypeIsServed)
{
    // Ids are opaque: an id that happens to read "type" is still a
    // scenario request, not a control line.
    ServeSummary sum;
    ScenarioService::Options opts;
    opts.jobs = 1;
    const std::vector<std::string> lines = serveRoundTrip(
        "{\"id\": \"type\", \"workload\": \"tangent\", \"size\": 4}\n",
        sum, opts);
    ASSERT_EQ(lines.size(), 1u);
    ScenarioResponse resp;
    std::string err;
    ASSERT_TRUE(parseScenarioResponse(lines[0], resp, err)) << err;
    EXPECT_EQ(resp.id, "type");
    EXPECT_EQ(resp.status, ResponseStatus::Ok) << resp.row.error;
    EXPECT_EQ(sum.served, 1u);
    EXPECT_EQ(sum.failed, 0u);
}

TEST(Serve, ControlLineIsClassifiedByItsTypeKey)
{
    // The control type is the value of the top-level "type" key, not
    // any "stats" text elsewhere on the line; extra keys are ignored.
    ServeSummary sum;
    ScenarioService::Options opts;
    opts.jobs = 1;
    const std::vector<std::string> lines = serveRoundTrip(
        "{\"type\": \"flush\", \"note\": \"stats\"}\n"
        "{\"note\": \"x\", \"type\": \"stats\"}\n",
        sum, opts);
    ASSERT_EQ(lines.size(), 2u);
    ScenarioResponse resp;
    std::string err;
    ASSERT_TRUE(parseScenarioResponse(lines[0], resp, err))
        << err << "\n" << lines[0];
    EXPECT_EQ(resp.id, "1");
    EXPECT_EQ(resp.status, ResponseStatus::Invalid);
    EXPECT_NE(resp.row.error.find("control"), std::string::npos)
        << resp.row.error;
    EXPECT_EQ(lines[1].rfind("{\"type\": \"stats\"", 0), 0u) << lines[1];
    EXPECT_EQ(sum.served, 0u);
    EXPECT_EQ(sum.failed, 1u);
}

TEST(Serve, OverlongLineIsAnsweredOnceAndDiscardedThroughItsNewline)
{
    // 2 MiB without a newline, then a valid request: the long line is
    // answered invalid under its line number and the next line is
    // served. The long line holds a newline-free request prefix, so
    // serving any of it would show up as a second response.
    ScenarioRequest good;
    good.id = "after";
    good.workload = "popcount";
    good.size = 4;
    std::string input = "{\"id\": \"long\", \"workload\": \"";
    input.append(2 * kMaxRequestLineBytes, 'x');
    input += "\"}\n";
    input += requestLine(good);

    ServeSummary sum;
    ScenarioService::Options opts;
    opts.jobs = 1;
    const std::vector<std::string> lines =
        serveRoundTrip(input, sum, opts);
    ASSERT_EQ(lines.size(), 2u);
    std::map<std::string, ScenarioResponse> got;
    for (const std::string &l : lines) {
        ScenarioResponse resp;
        std::string err;
        ASSERT_TRUE(parseScenarioResponse(l, resp, err)) << err;
        got[resp.id] = resp;
    }
    ASSERT_EQ(got.count("1"), 1u);
    EXPECT_EQ(got["1"].status, ResponseStatus::Invalid);
    EXPECT_NE(got["1"].row.error.find("longer than"), std::string::npos)
        << got["1"].row.error;
    ASSERT_EQ(got.count("after"), 1u);
    EXPECT_EQ(got["after"].status, ResponseStatus::Ok);
    EXPECT_EQ(sum.served, 1u);
    EXPECT_EQ(sum.failed, 1u);
}

TEST(Serve, ServedRowsAreByteIdenticalToTheEquivalentSweep)
{
    // The acceptance bar: >= 64 requests through the server, responses
    // id-sorted, rows byte-identical to the same cross-product run as
    // a --sweep batch (after the same derived-metric join both outputs
    // get). popcount/tangent x 3 modes x 11 sizes = 66 scenarios.
    SweepSpec spec;
    spec.workloads = "popcount,tangent";
    spec.modes = "all";
    spec.sizes = "4:14";
    std::vector<SweepScenario> scenarios;
    std::string err;
    ASSERT_TRUE(expandSweep(spec, scenarios, err)) << err;
    ASSERT_GE(scenarios.size(), 64u);

    SystemConfig base;
    SweepRunOptions ropts;
    ropts.jobs = 4;
    std::vector<SweepRow> sweepRows =
        runSweep(scenarios, base, nullptr, {}, ropts);
    addDerivedMetrics(sweepRows);

    // Same scenarios as serve requests, ids = scenario index.
    std::string input;
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        const SweepScenario &sc = scenarios[i];
        ScenarioRequest req;
        req.id = std::to_string(i);
        req.workload = sc.workload->name;
        req.mode = systemModeName(sc.mode);
        req.cores = sc.params.cores;
        req.size = sc.params.size;
        req.seed = sc.params.seed;
        input += requestLine(req);
    }
    ServeSummary sum;
    ScenarioService::Options opts;
    opts.jobs = 4;
    const std::vector<std::string> lines =
        serveRoundTrip(input, sum, opts);
    ASSERT_EQ(lines.size(), scenarios.size());
    EXPECT_EQ(sum.served, scenarios.size());
    EXPECT_EQ(sum.failed, 0u);

    std::vector<SweepRow> servedRows(scenarios.size());
    for (const std::string &l : lines) {
        ScenarioResponse resp;
        ASSERT_TRUE(parseScenarioResponse(l, resp, err)) << err << l;
        EXPECT_EQ(resp.status, ResponseStatus::Ok) << l;
        std::uint64_t idx = 0;
        ASSERT_TRUE(parseDecimal(resp.id, idx)) << resp.id;
        ASSERT_LT(idx, servedRows.size());
        servedRows[idx] = resp.row; // the id-sort
    }
    addDerivedMetrics(servedRows); // the same cpu-partner join

    std::ostringstream sweepBytes, serveBytes;
    writeJsonLines(sweepBytes, sweepRows);
    writeJsonLines(serveBytes, servedRows);
    EXPECT_EQ(sweepBytes.str(), serveBytes.str());
    // Sanity: real rows on both sides.
    EXPECT_NE(sweepBytes.str().find("popcount"), std::string::npos);
}

} // namespace
} // namespace duet
