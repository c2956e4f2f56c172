/**
 * @file
 * Tests of the observability layer: the TraceSink's Chrome-JSON
 * contract (well-formedness under fuzzed record streams, category
 * filtering, the record cap), the obs:: switchboard, the Profiler's
 * claim/attribution report, Histogram percentile edges, stat-name glob
 * filtering, the SweepRow latency-breakdown wire keys — and the
 * headline guarantee that installing a TraceSink does not perturb the
 * simulation: a traced run's row is byte-identical to an untraced one.
 *
 * All "randomness" is a fixed-seed SplitMix64 (same generator as
 * test_json_fuzz.cc), so failures reproduce bit-for-bit.
 */

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "service/scenario_service.hh"
#include "sim/event_queue.hh"
#include "sim/json.hh"
#include "sim/stats.hh"
#include "sim/sweep.hh"
#include "sim/trace.hh"
#include "system/system.hh"

namespace duet
{
namespace
{

/** SplitMix64, as in test_json_fuzz.cc. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    std::uint64_t bounded(std::uint64_t bound) { return next() % bound; }

  private:
    std::uint64_t state_;
};

std::string
sinkJson(const TraceSink &sink)
{
    std::ostringstream os;
    sink.write(os);
    return os.str();
}

/** The whole document must scan as one balanced JSON value ending at
 *  the line end — the same validity bar the JSONL readers apply. */
void
expectParsesAsOneJsonValue(const std::string &doc)
{
    ASSERT_FALSE(doc.empty());
    // One line (plus the trailing newline): Chrome traces stream well
    // and diff cleanly that way.
    EXPECT_EQ(doc.find('\n'), doc.size() - 1) << "not single-line";
    std::string err;
    json::Cursor cur{doc, 0, err};
    EXPECT_TRUE(cur.skipValue()) << err;
    EXPECT_TRUE(cur.atLineEnd()) << "trailing bytes after the object";
}

TEST(TraceSink, EmptySinkWritesValidSchema)
{
    TraceSink sink;
    const std::string doc = sinkJson(sink);
    expectParsesAsOneJsonValue(doc);
    EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(doc.find("duet-trace/1"), std::string::npos);
    EXPECT_EQ(sink.records(), 0u);
    EXPECT_FALSE(sink.truncated());
}

TEST(TraceSink, EveryRecordKindSerializesWellFormed)
{
    TraceSink sink;
    sink.instant(TraceCat::Queue, "events", "dispatch", 100);
    sink.complete(TraceCat::Noc, "mesh", "hop", 100, 350);
    sink.counter(TraceCat::Queue, "events", "pending", 200, 17);
    const std::uint64_t id = sink.nextAsyncId();
    sink.asyncBegin(TraceCat::Cache, "miss", id, 300);
    sink.asyncEnd(TraceCat::Cache, "miss", id, 900);
    EXPECT_EQ(sink.records(), 5u);

    const std::string doc = sinkJson(sink);
    expectParsesAsOneJsonValue(doc);
    EXPECT_NE(doc.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(doc.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(doc.find("\"ph\":\"b\""), std::string::npos);
    EXPECT_NE(doc.find("\"ph\":\"e\""), std::string::npos);
    // Track metadata precedes payload: the first ph in the stream is M.
    EXPECT_NE(doc.find("\"thread_name\""), std::string::npos);
    EXPECT_LT(doc.find("\"ph\":\"M\""), doc.find("\"ph\":\"i\""));
}

TEST(TraceSink, HostileTrackNamesAreEscaped)
{
    TraceSink sink;
    // Track names come from component labels; the writer must escape
    // them even if a future component picks a hostile one.
    const std::string tracks[] = {
        "quote\"track", "back\\slash", "ctrl\x01\x1f", "tab\there",
    };
    for (const std::string &t : tracks)
        sink.instant(TraceCat::Core, t, "ev", 1);
    expectParsesAsOneJsonValue(sinkJson(sink));
}

TEST(TraceSink, FuzzedRecordStreamsAlwaysSerializeWellFormed)
{
    Rng rng(0x0b5e7ab1e5ull);
    for (int round = 0; round < 20; ++round) {
        TraceSink sink;
        std::vector<std::uint64_t> open; // async ids in flight
        const unsigned n = 1 + static_cast<unsigned>(rng.bounded(400));
        for (unsigned i = 0; i < n; ++i) {
            const TraceCat c =
                static_cast<TraceCat>(rng.bounded(kTraceCatCount));
            // Built with += rather than operator+ on the temporary:
            // GCC 12's -Werror=restrict misfires on the concat under
            // the sanitizer flags.
            std::string track = "t";
            track += std::to_string(rng.bounded(7));
            const Tick at = static_cast<Tick>(rng.bounded(1u << 30));
            switch (rng.bounded(5)) {
              case 0:
                sink.instant(c, track, "i", at);
                break;
              case 1:
                sink.complete(c, track, "x", at, at + rng.bounded(999));
                break;
              case 2:
                sink.counter(c, track, "c", at, rng.next());
                break;
              case 3: {
                const std::uint64_t id = sink.nextAsyncId();
                sink.asyncBegin(c, "a", id, at);
                open.push_back(id);
                break;
              }
              default:
                if (!open.empty()) {
                    const std::size_t k = rng.bounded(open.size());
                    sink.asyncEnd(c, "a", open[k], at);
                    open.erase(open.begin() +
                               static_cast<std::ptrdiff_t>(k));
                }
            }
        }
        // Dangling asyncBegins are allowed in the stream (a run can
        // end mid-flight); the JSON must stay well-formed regardless.
        expectParsesAsOneJsonValue(sinkJson(sink));
    }
}

TEST(TraceSink, CategoryMaskDropsFilteredRecords)
{
    TraceSink sink(TraceSink::maskBit(TraceCat::Noc));
    EXPECT_TRUE(sink.enabled(TraceCat::Noc));
    EXPECT_FALSE(sink.enabled(TraceCat::Cache));
    sink.instant(TraceCat::Noc, "mesh", "kept", 1);
    sink.instant(TraceCat::Cache, "l2", "dropped", 2);
    EXPECT_EQ(sink.records(), 1u);
    const std::string doc = sinkJson(sink);
    EXPECT_NE(doc.find("\"kept\""), std::string::npos);
    EXPECT_EQ(doc.find("\"dropped\""), std::string::npos);
}

TEST(TraceSink, RecordCapMarksTruncatedButStaysValid)
{
    TraceSink sink(TraceSink::kAllCats, 8);
    for (int i = 0; i < 100; ++i)
        sink.instant(TraceCat::Queue, "events", "d", i);
    EXPECT_EQ(sink.records(), 8u);
    EXPECT_TRUE(sink.truncated());
    const std::string doc = sinkJson(sink);
    expectParsesAsOneJsonValue(doc);
    EXPECT_NE(doc.find("\"truncated\":true"), std::string::npos);
}

TEST(TraceSink, ParseFilterAcceptsListsAndRejectsTypos)
{
    std::uint32_t mask = 0;
    std::string err;
    ASSERT_TRUE(TraceSink::parseFilter("noc,cache", mask, err)) << err;
    EXPECT_EQ(mask, TraceSink::maskBit(TraceCat::Noc) |
                        TraceSink::maskBit(TraceCat::Cache));
    ASSERT_TRUE(TraceSink::parseFilter("all", mask, err)) << err;
    EXPECT_EQ(mask, TraceSink::kAllCats);
    ASSERT_TRUE(TraceSink::parseFilter("", mask, err)) << err;
    EXPECT_EQ(mask, TraceSink::kAllCats);
    EXPECT_FALSE(TraceSink::parseFilter("noc,cashe", mask, err));
    EXPECT_NE(err.find("cashe"), std::string::npos) << err;
}

// ------------------------- switchboard --------------------------------

TEST(ObsSwitchboard, ActiveOnlyWhileSomethingIsInstalled)
{
    EXPECT_EQ(obs::trace(), nullptr);
    EXPECT_EQ(obs::prof(), nullptr);
    TraceSink sink;
    obs::setTraceSink(&sink);
    EXPECT_EQ(obs::trace(), &sink);
    Profiler prof;
    obs::setProfiler(&prof);
    EXPECT_EQ(obs::prof(), &prof);
    obs::setTraceSink(nullptr);
    EXPECT_EQ(obs::trace(), nullptr);
    EXPECT_EQ(obs::prof(), &prof); // independent switches
    obs::setProfiler(nullptr);
    EXPECT_EQ(obs::prof(), nullptr);
}

// ------------------------- profiler -----------------------------------

TEST(Profiler, FirstClaimWinsAndReportIsValidJson)
{
    Profiler prof;
    prof.beginEvent();
    prof.claim("noc");
    prof.claim("cache"); // loses: first claim sticks
    prof.endEvent(1000);
    prof.beginEvent();
    prof.endEvent(500); // unclaimed -> "other"
    EXPECT_EQ(prof.events(), 2u);

    std::ostringstream os;
    prof.write(os);
    const std::string doc = os.str();
    expectParsesAsOneJsonValue(doc);
    EXPECT_NE(doc.find("duet-prof/1"), std::string::npos);
    EXPECT_NE(doc.find("\"noc\""), std::string::npos);
    EXPECT_EQ(doc.find("\"cache\""), std::string::npos);
    EXPECT_NE(doc.find("\"other\""), std::string::npos);
}

TEST(Profiler, DirectoryEventsClaimTheL3Component)
{
    // The L3 shard claims its scheduled events, so a CPU run's
    // directory time shows up as "l3" instead of unclaimed "other".
    ScenarioRequest req;
    req.workload = "pdes";
    req.mode = "cpu";
    SystemConfig base;
    SweepScenario sc;
    SystemConfig cfg;
    std::string err;
    ASSERT_TRUE(validateRequest(req, base, sc, cfg, err)) << err;

    Profiler prof;
    obs::setProfiler(&prof);
    const SweepRow row = runScenario(sc, cfg);
    obs::setProfiler(nullptr);
    EXPECT_TRUE(row.correct);

    std::ostringstream os;
    prof.write(os);
    const std::string doc = os.str();
    const std::string key = "{\"name\":\"l3\",\"events\":";
    const std::size_t at = doc.find(key);
    ASSERT_NE(at, std::string::npos) << doc;
    EXPECT_GT(std::stoull(doc.substr(at + key.size())), 0u) << doc;
}

// ------------------------- histogram ----------------------------------

TEST(Histogram, PercentileEdgeCases)
{
    Histogram h;
    // Empty: every percentile reads 0.
    EXPECT_EQ(h.percentile(0.50), 0u);
    EXPECT_EQ(h.percentile(0.99), 0u);

    // One sample: every percentile is that sample (min==max clamp).
    h.record(42);
    EXPECT_EQ(h.percentile(0.0), 42u);
    EXPECT_EQ(h.percentile(0.50), 42u);
    EXPECT_EQ(h.percentile(1.0), 42u);

    // A saturated single bucket: identical values keep p50 == p99.
    Histogram flat;
    for (int i = 0; i < 10000; ++i)
        flat.record(1024);
    EXPECT_EQ(flat.percentile(0.50), flat.percentile(0.99));
    EXPECT_EQ(flat.count(), 10000u);
}

TEST(Histogram, PercentilesAreMonotoneOverFuzzedStreams)
{
    Rng rng(0x9157ull);
    for (int round = 0; round < 50; ++round) {
        Histogram h;
        const unsigned n = 1 + static_cast<unsigned>(rng.bounded(2000));
        for (unsigned i = 0; i < n; ++i)
            h.record(rng.bounded(1ull << (1 + rng.bounded(40))));
        const std::uint64_t p50 = h.percentile(0.50);
        const std::uint64_t p95 = h.percentile(0.95);
        const std::uint64_t p99 = h.percentile(0.99);
        EXPECT_LE(p50, p95) << "round " << round;
        EXPECT_LE(p95, p99) << "round " << round;
        EXPECT_GE(p50, h.min()) << "round " << round;
        EXPECT_LE(p99, h.max()) << "round " << round;
    }
}

TEST(StatRegistry, GlobFilterSelectsByName)
{
    EXPECT_TRUE(globMatch("", "core0.l2.hits"));
    EXPECT_TRUE(globMatch("*", "core0.l2.hits"));
    EXPECT_TRUE(globMatch("core0.*", "core0.l2.hits"));
    EXPECT_TRUE(globMatch("*.hits", "core0.l2.hits"));
    EXPECT_TRUE(globMatch("core?.l2.*", "core3.l2.misses"));
    EXPECT_FALSE(globMatch("core0.*", "core1.l2.hits"));
    EXPECT_FALSE(globMatch("*.misses", "core0.l2.hits"));

    // dumpJson honors the filter and stays well-formed under it.
    StatRegistry reg;
    Counter hits, misses;
    reg.registerCounter("l2.hits", &hits);
    reg.registerCounter("l3.misses", &misses);
    hits.add(5);
    misses.add(7);
    std::ostringstream all, only;
    reg.dumpJson(all);
    reg.dumpJson(only, "l2.*");
    EXPECT_NE(all.str().find("l3.misses"), std::string::npos);
    EXPECT_EQ(only.str().find("l3.misses"), std::string::npos);
    EXPECT_NE(only.str().find("l2.hits"), std::string::npos);
    std::string err;
    json::Cursor cur{only.str() + "\n", 0, err};
    EXPECT_TRUE(cur.skipValue()) << err;
}

// ------------------------- latency-breakdown wire ---------------------

TEST(SweepRowWire, LatencyKeysRoundTripAndStayOptional)
{
    SweepRow row;
    row.workload = "bfs";
    row.app = "bfs/4";
    row.mode = "duet";
    row.cores = 4;
    row.size = 256;
    row.seed = 1;
    std::ostringstream plain;
    writeJsonLine(plain, row);
    // Off by default: no lat_* keys on the wire, byte-compat preserved.
    EXPECT_EQ(plain.str().find("lat_"), std::string::npos);

    row.hasLat = true;
    row.latNoc = 111;
    row.latFast = 222;
    row.latSlow = 0;
    row.latCdc = 44;
    std::ostringstream traced;
    writeJsonLine(traced, row);
    EXPECT_NE(traced.str().find("\"lat_noc\": 111"), std::string::npos);
    EXPECT_NE(traced.str().find("\"lat_cdc\": 44"), std::string::npos);

    SweepRow back;
    std::string err;
    ASSERT_TRUE(parseSweepRow(traced.str(), back, err)) << err;
    EXPECT_TRUE(back.hasLat);
    EXPECT_EQ(back.latNoc, 111u);
    EXPECT_EQ(back.latFast, 222u);
    EXPECT_EQ(back.latSlow, 0u);
    EXPECT_EQ(back.latCdc, 44u);
    std::ostringstream again;
    writeJsonLine(again, back);
    EXPECT_EQ(again.str(), traced.str());
}

TEST(TraceSink, PendingCounterCountsEveryQueuedEvent)
{
    // 268 events 1000 ticks apart; the 241st schedules 32 more inside
    // its gap, which queue ahead of the rest: 300 events at distinct
    // ticks. At the 256th dispatch, the first `pending` sample, 17 of
    // the inner events and 27 of the outer ones are still queued, so
    // the sample spans the sorted front and the heap tier.
    EventQueue eq;
    for (Tick i = 0; i < 268; ++i) {
        eq.schedule(i * 1000, [&eq, i] {
            if (i != 240)
                return;
            for (Tick j = 1; j <= 32; ++j)
                eq.schedule(eq.now() + j, [] {});
        });
    }
    TraceSink sink(TraceSink::maskBit(TraceCat::Queue));
    obs::setTraceSink(&sink);
    eq.run();
    obs::setTraceSink(nullptr);
    ASSERT_EQ(eq.executed(), 300u);

    const std::string doc = sinkJson(sink);
    const std::size_t rec = doc.find("\"name\":\"pending\"");
    ASSERT_NE(rec, std::string::npos) << "no pending sample";
    const std::string key = "\"value\":";
    const std::size_t val = doc.find(key, rec);
    ASSERT_NE(val, std::string::npos);
    EXPECT_EQ(std::stoull(doc.substr(val + key.size())), 44u);
}

// ------------------------- non-perturbation ---------------------------

TEST(TraceSink, TracedRunIsByteIdenticalToUntraced)
{
    // The headline guarantee: observability reads the simulation, it
    // never steers it. Run the same scenario with and without a sink
    // installed; the rows (sim_ticks, events, stats, correctness) must
    // serialize to the same bytes.
    ScenarioRequest req;
    req.workload = "popcount";
    req.size = 16;
    SystemConfig base;
    SweepScenario sc;
    SystemConfig cfg;
    std::string err;
    ASSERT_TRUE(validateRequest(req, base, sc, cfg, err)) << err;

    const SweepRow plain = runScenario(sc, cfg);

    TraceSink sink;
    Profiler prof;
    obs::setTraceSink(&sink);
    obs::setProfiler(&prof);
    const SweepRow traced = runScenario(sc, cfg);
    obs::setTraceSink(nullptr);
    obs::setProfiler(nullptr);

    EXPECT_GT(sink.records(), 0u) << "sink saw no events";
    EXPECT_GT(prof.events(), 0u) << "profiler saw no events";
    std::ostringstream a, b;
    writeJsonLine(a, plain);
    writeJsonLine(b, traced);
    EXPECT_EQ(a.str(), b.str());
    EXPECT_TRUE(plain.correct);
    expectParsesAsOneJsonValue(sinkJson(sink));
}

} // namespace
} // namespace duet
