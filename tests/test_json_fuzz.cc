/**
 * @file
 * Deterministic fuzz coverage for the hand-rolled JSON-lines reader
 * (sim/json.cc) — the wire format between sweep workers, the serve
 * front-end and --derive — down to the strings and numbers, and
 * through every parser built on its one object walker. Run under the
 * DUET_SANITIZE presets this doubles as a UBSan/ASan sweep of the
 * parser: every probe must either parse or fail with a diagnostic,
 * never crash, overflow or read out of bounds.
 *
 * All "randomness" comes from a fixed-seed SplitMix64, so failures
 * reproduce bit-for-bit on any host.
 */

#include <cstdint>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "service/scenario_service.hh"
#include "sim/json.hh"
#include "sim/stats.hh"

namespace duet
{
namespace
{

/** SplitMix64: tiny, seedable, and plenty for probe generation. */
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

    /** Uniform in [0, bound). */
    std::uint64_t bounded(std::uint64_t bound) { return next() % bound; }

  private:
    std::uint64_t state_;
};

/** Parse a full quoted string from @p line; false + @p err on failure. */
bool
parseQuoted(const std::string &line, std::string &out, std::string &err)
{
    err.clear();
    json::Cursor cur{line, 0, err};
    return cur.parseString(out) && cur.atLineEnd();
}

// ---------------------------------------------------------------------
// String round-trips: jsonQuote() -> parseString() must be identity for
// arbitrary byte strings (control bytes escape as \u00xx, high bytes
// pass through raw).
// ---------------------------------------------------------------------

TEST(JsonFuzz, QuoteParseRoundTripsArbitraryBytes)
{
    Rng rng(0xd0e70001ull);
    for (int round = 0; round < 500; ++round) {
        std::string original;
        const std::size_t len = rng.bounded(64);
        for (std::size_t i = 0; i < len; ++i)
            original += static_cast<char>(rng.bounded(256));
        std::string out, err;
        ASSERT_TRUE(parseQuoted(jsonQuote(original), out, err))
            << "round " << round << ": " << err;
        EXPECT_EQ(out, original) << "round " << round;
    }
}

TEST(JsonFuzz, ShortEscapesRoundTrip)
{
    std::string out, err;
    ASSERT_TRUE(parseQuoted("\"a\\n\\t\\r\\b\\f\\\\\\\"\\/z\"", out, err))
        << err;
    EXPECT_EQ(out, "a\n\t\r\b\f\\\"/z");
}

// ---------------------------------------------------------------------
// Hostile strings: truncations, bad escapes, and garbage must all fail
// with a diagnostic — and must never crash.
// ---------------------------------------------------------------------

TEST(JsonFuzz, TruncatedAndMalformedStringsFailCleanly)
{
    const char *probes[] = {
        "\"unterminated",
        "\"dangling\\",
        "\"\\u",          // escape cut at the introducer
        "\"\\u1",         // one hex digit
        "\"\\u12",        // two
        "\"\\u123",       // three
        "\"\\u123G\"",    // bad hex digit
        "\"\\uFFFF\"",    // past U+00FF (reader's documented limit)
        "\"\\q\"",        // unknown escape
        "nostring",
        "",
    };
    for (const char *probe : probes) {
        std::string out, err;
        EXPECT_FALSE(parseQuoted(probe, out, err)) << probe;
        EXPECT_FALSE(err.empty()) << probe;
    }
}

TEST(JsonFuzz, RandomlyTruncatedQuotedStringsNeverCrash)
{
    Rng rng(42);
    for (int round = 0; round < 500; ++round) {
        std::string original;
        const std::size_t len = 1 + rng.bounded(32);
        for (std::size_t i = 0; i < len; ++i) {
            switch (rng.bounded(4)) {
              case 0: original += '\\'; break;
              case 1: original += '"'; break;
              case 2: original += 'u'; break;
              default:
                original += static_cast<char>(rng.bounded(256));
            }
        }
        const std::string quoted = jsonQuote(original);
        const std::string cut =
            quoted.substr(0, rng.bounded(quoted.size() + 1));
        std::string out, err;
        // Either verdict is fine; surviving the probe is the test.
        parseQuoted(cut, out, err);
    }
    SUCCEED();
}

// ---------------------------------------------------------------------
// Numbers: overflow digits, huge exponents, and sign/dot soup through
// the strict token converters.
// ---------------------------------------------------------------------

TEST(JsonFuzz, U64RoundTripsAndOverflowFails)
{
    Rng rng(7);
    for (int round = 0; round < 500; ++round) {
        const std::uint64_t v = rng.next();
        std::uint64_t back = 0;
        std::string err;
        ASSERT_TRUE(json::tokenToU64(std::to_string(v), back, err)) << err;
        EXPECT_EQ(back, v);
    }
    const char *overflow[] = {
        "18446744073709551616",                  // 2^64
        "99999999999999999999",
        "999999999999999999999999999999999999",
        "-1",                                    // signs are not decimal
        "+1",
        "1.5",
        "0x10",
        "1e3",
        "",
    };
    for (const char *probe : overflow) {
        std::uint64_t out = 0;
        std::string err;
        EXPECT_FALSE(json::tokenToU64(probe, out, err)) << probe;
        EXPECT_FALSE(err.empty()) << probe;
    }
}

TEST(JsonFuzz, U32RejectsPast32Bits)
{
    unsigned out = 0;
    std::string err;
    EXPECT_TRUE(json::tokenToU32("4294967295", out, err));
    EXPECT_EQ(out, 4294967295u);
    EXPECT_FALSE(json::tokenToU32("4294967296", out, err));
}

TEST(JsonFuzz, DoubleSurvivesHugeExponentsAndGarbage)
{
    // Accepted values (including infinities from overflowing exponents)
    // must parse without UB; garbage must fail with a diagnostic.
    const char *accepted[] = {
        "1e308", "1e309", "1e99999", "-1e99999", "1e-99999",
        "0.0000000000000000000000000001", "3.141592653589793",
    };
    for (const char *probe : accepted) {
        double out = 0;
        std::string err;
        EXPECT_TRUE(json::tokenToDouble(probe, out, err)) << probe;
    }
    const char *rejected[] = {"", "abc", "1.2.3", "1e", "--5", "1e+-3"};
    for (const char *probe : rejected) {
        double out = 0;
        std::string err;
        EXPECT_FALSE(json::tokenToDouble(probe, out, err)) << probe;
        EXPECT_FALSE(err.empty()) << probe;
    }
}

TEST(JsonFuzz, RandomSignDotSoupNeverCrashes)
{
    Rng rng(1234);
    const char alphabet[] = "0123456789+-.eE";
    for (int round = 0; round < 1000; ++round) {
        std::string tok;
        const std::size_t len = 1 + rng.bounded(24);
        for (std::size_t i = 0; i < len; ++i)
            tok += alphabet[rng.bounded(sizeof(alphabet) - 1)];
        std::uint64_t u = 0;
        double d = 0;
        std::string err;
        json::tokenToU64(tok, u, err);
        json::tokenToDouble(tok, d, err);
    }
    SUCCEED();
}

// ---------------------------------------------------------------------
// skipValue: balanced-bracket scanning over hostile composites. The
// scanner is iterative, so even pathological nesting depth must not
// recurse the stack away.
// ---------------------------------------------------------------------

TEST(JsonFuzz, DeeplyNestedCompositeSkipsIteratively)
{
    std::string deep;
    for (int i = 0; i < 100000; ++i)
        deep += '[';
    std::string err;
    json::Cursor cur{deep, 0, err};
    EXPECT_FALSE(cur.skipValue()); // unterminated, but no stack blowup
    EXPECT_FALSE(err.empty());

    std::string balanced = std::string(10000, '[') + "1" +
                           std::string(10000, ']');
    err.clear();
    json::Cursor cur2{balanced, 0, err};
    EXPECT_TRUE(cur2.skipValue()) << err;
}

TEST(JsonFuzz, RandomBracketSoupNeverCrashes)
{
    Rng rng(99);
    const char alphabet[] = "[]{}\",:\\ 1a";
    for (int round = 0; round < 1000; ++round) {
        std::string line;
        const std::size_t len = 1 + rng.bounded(48);
        for (std::size_t i = 0; i < len; ++i)
            line += alphabet[rng.bounded(sizeof(alphabet) - 1)];
        std::string err;
        json::Cursor cur{line, 0, err};
        cur.skipValue(); // either verdict; must terminate sanely
    }
    SUCCEED();
}


// ---------------------------------------------------------------------
// The object walker behind every wire format: valid request, row and
// response lines, mutated, through all three parsers. A rejected line
// carries a diagnostic; an accepted request or row survives its writer.
// ---------------------------------------------------------------------

std::string
randomText(Rng &rng)
{
    std::string s;
    const std::size_t len = rng.bounded(12);
    for (std::size_t i = 0; i < len; ++i)
        s += static_cast<char>(rng.bounded(256));
    return s;
}

/** 0 half the time (the writers omit most zero fields), else random. */
unsigned
maybeU32(Rng &rng)
{
    return rng.bounded(2) == 0 ? 0u : static_cast<unsigned>(rng.next());
}

SweepRow
randomRow(Rng &rng)
{
    SweepRow r;
    r.workload = randomText(rng);
    r.app = randomText(rng);
    r.mode = randomText(rng);
    r.cores = static_cast<unsigned>(rng.bounded(17));
    r.memHubs = static_cast<unsigned>(rng.bounded(5));
    r.size = maybeU32(rng);
    r.seed = rng.next();
    r.l2KiB = maybeU32(rng);
    r.l3KiB = maybeU32(rng);
    r.hasLat = rng.bounded(2) == 0;
    if (r.hasLat) {
        r.latNoc = rng.next();
        r.latFast = rng.next();
        r.latSlow = rng.next();
        r.latCdc = rng.next();
    }
    r.runtime = rng.next();
    r.speedup = static_cast<double>(rng.bounded(1000000000)) / 1e4;
    r.areaMm2 = static_cast<double>(rng.bounded(1000000)) / 1e4;
    r.adpNorm = static_cast<double>(rng.bounded(1000000)) / 1e4;
    r.correct = rng.bounded(2) == 0;
    if (rng.bounded(2) == 0)
        r.error = randomText(rng);
    return r;
}

std::string
randomWireLine(Rng &rng)
{
    std::ostringstream os;
    switch (rng.bounded(3)) {
      case 0: {
        ScenarioRequest q;
        q.id = randomText(rng);
        q.workload = randomText(rng);
        q.mode = randomText(rng);
        q.cores = maybeU32(rng);
        q.size = maybeU32(rng);
        q.seed = rng.bounded(2) == 0 ? 0 : rng.next();
        q.l2KiB = maybeU32(rng);
        q.l3KiB = maybeU32(rng);
        q.l2Ways = maybeU32(rng);
        q.l3Ways = maybeU32(rng);
        q.spmKiB = maybeU32(rng);
        q.cpuFreqMhz = rng.bounded(2) == 0 ? 0 : rng.next();
        q.fpgaFreqMhz = rng.bounded(2) == 0 ? 0 : rng.next();
        q.maxTicksUs = rng.bounded(2) == 0 ? 0 : rng.next();
        writeScenarioRequest(os, q);
        break;
      }
      case 1:
        writeJsonLine(os, randomRow(rng));
        break;
      default: {
        ScenarioResponse resp;
        resp.id = randomText(rng);
        resp.status = static_cast<ResponseStatus>(rng.bounded(3));
        resp.row = randomRow(rng);
        writeScenarioResponse(os, resp);
      }
    }
    std::string line = os.str();
    line.pop_back(); // the newline; readers get lines without it
    return line;
}

/** One mutation: truncate, delete or duplicate a byte, overwrite a
 *  byte with JSON structure, or splice in an unknown or a duplicated
 *  member at a member boundary. */
void
mutate(std::string &line, Rng &rng)
{
    static const char kStructure[] = "{}[]\":,\\";
    const std::size_t at = line.empty() ? 0 : rng.bounded(line.size());
    switch (rng.bounded(5)) {
      case 0:
        line.resize(rng.bounded(line.size() + 1));
        return;
      case 1:
        if (!line.empty())
            line.erase(at, 1);
        return;
      case 2:
        if (!line.empty())
            line.insert(at, 1, line[at]);
        return;
      case 3:
        if (!line.empty())
            line[at] = kStructure[rng.bounded(sizeof(kStructure) - 1)];
        return;
      default:
        break;
    }
    // Boundaries: just past the '{', and just past each ", " that
    // precedes a key.
    std::vector<std::size_t> cuts;
    for (std::size_t i = 0; i < line.size(); ++i) {
        if (line[i] == '{')
            cuts.push_back(i + 1);
        else if (line.compare(i, 3, ", \"") == 0)
            cuts.push_back(i + 2);
    }
    if (cuts.empty())
        return;
    std::string member = "\"zz_unknown\": [1, {\"k\": \"}\"}], ";
    if (cuts.size() > 1 && rng.bounded(2) == 0) {
        const std::size_t k = rng.bounded(cuts.size() - 1);
        member = line.substr(cuts[k], cuts[k + 1] - cuts[k]);
    }
    line.insert(cuts[rng.bounded(cuts.size())], member);
}

auto
requestFields(const ScenarioRequest &q)
{
    return std::tie(q.id, q.workload, q.mode, q.cores, q.size, q.seed,
                    q.l2KiB, q.l3KiB, q.l2Ways, q.l3Ways, q.spmKiB,
                    q.cpuFreqMhz, q.fpgaFreqMhz, q.maxTicksUs);
}

TEST(JsonFuzz, MutatedWireLinesParseOrFailWithADiagnostic)
{
    Rng rng(0x0b1ec7ull);
    std::size_t requests = 0, rows = 0, responses = 0;
    for (int probe = 0; probe < 20000; ++probe) {
        std::string line = randomWireLine(rng);
        const int mutations = 1 + static_cast<int>(rng.bounded(3));
        for (int m = 0; m < mutations; ++m)
            mutate(line, rng);

        std::string err;
        ScenarioRequest req;
        if (parseScenarioRequest(line, req, err)) {
            ++requests;
            std::ostringstream os;
            writeScenarioRequest(os, req);
            ScenarioRequest back;
            ASSERT_TRUE(parseScenarioRequest(os.str(), back, err))
                << err << "\nprobe " << probe << ": " << line;
            EXPECT_TRUE(requestFields(back) == requestFields(req))
                << "probe " << probe << ": " << line;
        } else {
            EXPECT_FALSE(err.empty()) << "probe " << probe << ": " << line;
        }

        err.clear();
        SweepRow row;
        if (parseSweepRow(line, row, err)) {
            ++rows;
            std::ostringstream once, twice;
            writeJsonLine(once, row);
            SweepRow back;
            ASSERT_TRUE(parseSweepRow(once.str(), back, err))
                << err << "\nprobe " << probe << ": " << line;
            writeJsonLine(twice, back);
            EXPECT_EQ(twice.str(), once.str())
                << "probe " << probe << ": " << line;
        } else {
            EXPECT_FALSE(err.empty()) << "probe " << probe << ": " << line;
        }

        err.clear();
        ScenarioResponse resp;
        if (parseScenarioResponse(line, resp, err))
            ++responses;
        else
            EXPECT_FALSE(err.empty()) << "probe " << probe << ": " << line;
    }
    // Splices of unknown and duplicated keys keep some lines valid, so
    // the accept paths above are exercised, not just the rejections.
    EXPECT_GT(requests, 0u);
    EXPECT_GT(rows, 0u);
    EXPECT_GT(responses, 0u);
}

} // namespace
} // namespace duet
