#include "sim/sweep.hh"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <istream>
#include <iterator>
#include <ostream>
#include <sstream>
#include <unordered_map>

#include "area/area_model.hh"
#include "sim/config.hh"
#include "sim/json.hh"
#include "sim/stats.hh"

namespace duet
{
namespace
{

/** Split on commas; an empty string or empty element is an error. */
bool
splitList(const std::string &list, std::vector<std::string> &out,
          std::string &err)
{
    if (list.empty()) {
        err = "empty list";
        return false;
    }
    std::size_t start = 0;
    while (true) {
        std::size_t comma = list.find(',', start);
        std::string piece = list.substr(start, comma - start);
        if (piece.empty()) {
            err = "empty element in list '" + list + "'";
            return false;
        }
        out.push_back(std::move(piece));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return true;
}

// A sweep axis larger than this is a typo, not a plan; the cap also
// bounds expansion memory before any per-value validation runs.
constexpr std::size_t kMaxAxisValues = 4096;

/** Expand one list element: `N` or `A:B[:STEP]` (inclusive, linear). */
bool
expandElement(const std::string &piece, std::vector<std::uint64_t> &out,
              std::string &err)
{
    std::vector<std::uint64_t> parts;
    std::size_t start = 0;
    while (true) {
        std::size_t colon = piece.find(':', start);
        std::uint64_t v = 0;
        if (!parseDecimal(piece.substr(start, colon - start), v)) {
            err = "bad value in range '" + piece + "'";
            return false;
        }
        parts.push_back(v);
        if (colon == std::string::npos)
            break;
        start = colon + 1;
    }
    if (parts.size() == 1) {
        out.push_back(parts[0]);
        return true;
    }
    if (parts.size() > 3) {
        err = "range '" + piece + "' has more than two colons";
        return false;
    }
    std::uint64_t lo = parts[0], hi = parts[1];
    std::uint64_t step = parts.size() == 3 ? parts[2] : 1;
    if (step == 0) {
        err = "range '" + piece + "' has step 0";
        return false;
    }
    if (lo > hi) {
        err = "range '" + piece + "' is descending";
        return false;
    }
    // Count = (hi - lo) / step + 1; compare without the +1, which wraps
    // for the full 64-bit range.
    if ((hi - lo) / step >= kMaxAxisValues - out.size()) {
        err = "range '" + piece + "' expands past " +
              std::to_string(kMaxAxisValues) + " values";
        return false;
    }
    // v never exceeds hi, so the increment cannot wrap at 2^64.
    for (std::uint64_t v = lo;; v += step) {
        out.push_back(v);
        if (hi - v < step)
            break;
    }
    return true;
}

bool
parseU64RangeList(const std::string &list, std::vector<std::uint64_t> &out,
                  std::string &err)
{
    std::vector<std::string> pieces;
    if (!splitList(list, pieces, err))
        return false;
    for (const std::string &piece : pieces) {
        if (out.size() >= kMaxAxisValues) {
            err = "list '" + list + "' has more than " +
                  std::to_string(kMaxAxisValues) + " values";
            return false;
        }
        if (!expandElement(piece, out, err))
            return false;
    }
    return true;
}

} // namespace

bool
parseRangeList(const std::string &list, std::vector<unsigned> &out,
               std::string &err)
{
    std::vector<std::uint64_t> wide;
    if (!parseU64RangeList(list, wide, err))
        return false;
    for (std::uint64_t v : wide) {
        if (v > 0xffffffffull) {
            err = "value " + std::to_string(v) + " in list '" + list +
                  "' does not fit 32 bits";
            return false;
        }
        out.push_back(static_cast<unsigned>(v));
    }
    return true;
}

bool
parseSeedList(const std::string &list, std::vector<std::uint64_t> &out,
              std::string &err)
{
    return parseU64RangeList(list, out, err);
}

bool
expandSweep(const SweepSpec &spec, std::vector<SweepScenario> &out,
            std::string &err)
{
    std::vector<std::string> names;
    if (!splitList(spec.workloads, names, err)) {
        err = "--workload: " + err;
        return false;
    }

    std::vector<SystemMode> modes;
    if (spec.modes == "all") {
        modes = {SystemMode::Duet, SystemMode::CpuOnly, SystemMode::Fpsoc};
    } else {
        std::vector<std::string> mode_names;
        if (!splitList(spec.modes, mode_names, err)) {
            err = "--mode: " + err;
            return false;
        }
        for (const std::string &m : mode_names) {
            if (m == "all") {
                err = "--mode: 'all' must be the only element "
                      "(it already expands to duet,cpu,fpsoc)";
                return false;
            }
            SystemMode mode;
            if (!parseSystemMode(m, mode)) {
                err = "unknown --mode: " + m +
                      " (want duet|cpu|fpsoc, or 'all' alone)";
                return false;
            }
            modes.push_back(mode);
        }
    }

    // Empty axis = one pass with the workload default (0 sentinel). An
    // explicit 0 in a list is rejected: resolving it to the default
    // would silently duplicate scenarios.
    auto axis = [&err](const char *flag, const std::string &list,
                       std::vector<unsigned> &out) {
        if (list.empty())
            return true;
        out.clear();
        if (!parseRangeList(list, out, err)) {
            err = std::string(flag) + ": " + err;
            return false;
        }
        for (unsigned v : out) {
            if (v == 0) {
                err = std::string(flag) +
                      ": 0 is reserved (selects the workload default)";
                return false;
            }
        }
        return true;
    };
    std::vector<unsigned> cores{0};
    if (!axis("--cores", spec.cores, cores))
        return false;
    std::vector<unsigned> sizes{0};
    if (!axis("--size", spec.sizes, sizes))
        return false;
    // Cache-ladder axes: 0 is reserved for the base geometry, and every
    // value obeys the capacity ceiling the scalar flags enforce.
    auto cacheAxis = [&err](const char *flag, const std::string &list,
                            std::vector<unsigned> &out) {
        if (list.empty())
            return true;
        out.clear();
        if (!parseRangeList(list, out, err)) {
            err = std::string(flag) + ": " + err;
            return false;
        }
        for (unsigned v : out) {
            if (v == 0) {
                err = std::string(flag) +
                      ": 0 is reserved (selects the base geometry)";
                return false;
            }
            if (v > kMaxCacheKiB) {
                err = std::string(flag) + ": " + std::to_string(v) +
                      " KiB is too large (max " +
                      std::to_string(kMaxCacheKiB) + ")";
                return false;
            }
        }
        return true;
    };
    std::vector<unsigned> l2s{0};
    if (!cacheAxis("--l2-kib", spec.l2KiB, l2s))
        return false;
    std::vector<unsigned> l3s{0};
    if (!cacheAxis("--l3-kib", spec.l3KiB, l3s))
        return false;
    std::vector<std::uint64_t> seeds{0};
    if (!spec.seeds.empty()) {
        seeds.clear();
        if (!parseSeedList(spec.seeds, seeds, err)) {
            err = "--seed: " + err;
            return false;
        }
        for (std::uint64_t s : seeds) {
            if (s == 0) {
                // 0 is the "workload default" sentinel in WorkloadParams;
                // accepting it would silently rerun the default seed.
                err = "--seed: 0 is reserved (selects the workload "
                      "default seed)";
                return false;
            }
        }
    }

    // Cap the cross-product itself, not just each axis: the scenario
    // vector is materialized before anything runs.
    constexpr std::size_t kMaxScenarios = 65536;
    std::size_t total = 1;
    for (std::size_t factor :
         {names.size(), modes.size(), cores.size(), sizes.size(),
          seeds.size(), l2s.size(), l3s.size()}) {
        if (total > kMaxScenarios / factor) { // total * factor > max
            err = "sweep expands past " + std::to_string(kMaxScenarios) +
                  " scenarios";
            return false;
        }
        total *= factor;
    }

    for (const std::string &name : names) {
        const Workload *w = findWorkload(name);
        if (w == nullptr) {
            err = "unknown workload '" + name + "' (see --list)";
            return false;
        }
        for (SystemMode mode : modes) {
            for (unsigned c : cores) {
                for (unsigned s : sizes) {
                    for (std::uint64_t seed : seeds) {
                        for (unsigned l2 : l2s) {
                            for (unsigned l3 : l3s) {
                                SweepScenario sc;
                                sc.workload = w;
                                sc.mode = mode;
                                sc.params = WorkloadParams{c, 0, s, seed};
                                sc.l2KiB = l2;
                                sc.l3KiB = l3;
                                if (!resolveParams(*w, sc.params, err))
                                    return false;
                                out.push_back(std::move(sc));
                            }
                        }
                    }
                }
            }
        }
    }
    return true;
}

SweepRow
scenarioIdentityRow(const SweepScenario &sc)
{
    SweepRow row;
    row.workload = sc.workload->name;
    row.app = sc.workload->name; // a completed run overwrites this
    row.mode = systemModeName(sc.mode);
    row.cores = sc.params.cores;
    row.memHubs = sc.params.memHubs;
    row.size = sc.params.size;
    row.seed = sc.params.seed;
    row.l2KiB = sc.l2KiB;
    row.l3KiB = sc.l3KiB;
    return row;
}

SweepRow
runScenario(const SweepScenario &sc, const SystemConfig &base)
{
    SweepRow row = scenarioIdentityRow(sc);
    SystemConfig cfg = base;
    cfg.mode = sc.mode;
    if (sc.l2KiB != 0)
        cfg.l2.sizeBytes = sc.l2KiB * 1024; // bounded at expansion time
    if (sc.l3KiB != 0)
        cfg.l3.sizeBytes = sc.l3KiB * 1024;
    // With --latency-breakdown the post-run observer harvests the
    // Fig. 9 attribution totals; any caller-supplied observer still
    // runs first. Named lvalue: the config holds a non-owning ref.
    FunctionRef<void(System &)> prev = cfg.observer;
    auto observe = [&](System &sys) {
        if (prev)
            prev(sys);
        const LatencyTrace &lt = sys.latencyTotals();
        row.hasLat = true;
        row.latNoc = lt.get(LatencyTrace::Cat::NoC);
        row.latFast = lt.get(LatencyTrace::Cat::FastCache);
        row.latSlow = lt.get(LatencyTrace::Cat::SlowCache);
        row.latCdc = lt.get(LatencyTrace::Cat::Cdc);
    };
    if (cfg.latencyBreakdown)
        cfg.observer = observe;
    try {
        AppResult res = runWorkload(*sc.workload, sc.params, cfg);
        row.app = res.name;
        row.runtime = res.runtime;
        row.correct = res.correct;
    } catch (const SimFatal &e) {
        row.error = e.what();
    }
    return row;
}

// runSweep() is defined in service/scenario_service.cc: sweep.cc keeps
// only the pure layers (grammar, expansion, codec, derived metrics) and
// the service layer owns all scenario scheduling.

std::string
fmtMetric(double v)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(4) << v;
    return os.str();
}

namespace
{

int
modeIndex(const std::string &mode)
{
    if (mode == "cpu")
        return 0;
    if (mode == "fpsoc")
        return 1;
    return 2;
}

} // namespace

void
addDerivedMetrics(std::vector<SweepRow> &rows)
{
    for (SweepRow &r : rows) {
        const Workload *w = findWorkload(r.workload);
        const std::string key = w ? w->accelKeyFor(r.size) : r.workload;
        r.areaMm2 = area::systemAreaMm2(r.cores, r.memHubs,
                                        modeIndex(r.mode), key);
    }
    // Index the cpu rows once so the join stays linear in row count.
    // The cache-ladder coordinates are part of the key: a duet row at
    // 4096 KiB L3 normalizes against the cpu row at the same geometry.
    auto join_key = [](const SweepRow &r) {
        return r.workload + '\0' + std::to_string(r.cores) + '\0' +
               std::to_string(r.size) + '\0' + std::to_string(r.seed) +
               '\0' + std::to_string(r.l2KiB) + '\0' +
               std::to_string(r.l3KiB);
    };
    std::unordered_map<std::string, const SweepRow *> cpu_rows;
    for (const SweepRow &r : rows)
        if (r.mode == "cpu")
            cpu_rows.emplace(join_key(r), &r);
    for (SweepRow &r : rows) {
        auto it = cpu_rows.find(join_key(r));
        if (it == cpu_rows.end())
            continue;
        const SweepRow *cpu = it->second;
        if (cpu->runtime == 0 || r.runtime == 0)
            continue;
        r.speedup = static_cast<double>(cpu->runtime) / r.runtime;
        const double cpu_adp = cpu->areaMm2 *
                               static_cast<double>(cpu->runtime);
        if (cpu_adp > 0.0)
            r.adpNorm = r.areaMm2 * static_cast<double>(r.runtime) /
                        cpu_adp;
    }
}

void
writeCsvHeader(std::ostream &os, bool cacheCols)
{
    os << "workload,app,mode,cores,mem_hubs,size,seed,"
       << (cacheCols ? "l2_kib,l3_kib," : "")
       << "runtime_ticks,runtime_ns,speedup,area_mm2,adp_norm,correct\n";
}

void
writeCsvRow(std::ostream &os, const SweepRow &r, bool cacheCols)
{
    os << r.workload << ',' << r.app << ',' << r.mode << ',' << r.cores
       << ',' << r.memHubs << ',' << r.size << ',' << r.seed << ',';
    if (cacheCols)
        os << r.l2KiB << ',' << r.l3KiB << ',';
    os << r.runtime << ',' << r.runtime / kTicksPerNs << ','
       << fmtMetric(r.speedup) << ',' << fmtMetric(r.areaMm2) << ','
       << fmtMetric(r.adpNorm) << ',' << (r.correct ? "true" : "false")
       << '\n';
}

bool
rowsHaveCacheColumns(const std::vector<SweepRow> &rows)
{
    for (const SweepRow &r : rows)
        if (r.l2KiB != 0 || r.l3KiB != 0)
            return true;
    return false;
}

void
writeCsv(std::ostream &os, const std::vector<SweepRow> &rows)
{
    const bool cacheCols = rowsHaveCacheColumns(rows);
    writeCsvHeader(os, cacheCols);
    for (const SweepRow &r : rows)
        writeCsvRow(os, r, cacheCols);
}

void
writeJsonRowFields(std::ostream &os, const SweepRow &r)
{
    os << "\"workload\": " << jsonQuote(r.workload)
       << ", \"app\": " << jsonQuote(r.app)
       << ", \"mode\": " << jsonQuote(r.mode)
       << ", \"cores\": " << r.cores << ", \"mem_hubs\": " << r.memHubs
       << ", \"size\": " << r.size << ", \"seed\": " << r.seed;
    // The ladder coordinates appear exactly when a scenario pinned
    // them, so default sweeps stay byte-identical to the pre-ladder
    // wire format.
    if (r.l2KiB != 0)
        os << ", \"l2_kib\": " << r.l2KiB;
    if (r.l3KiB != 0)
        os << ", \"l3_kib\": " << r.l3KiB;
    os << ", \"runtime_ticks\": " << r.runtime
       << ", \"runtime_ns\": " << r.runtime / kTicksPerNs;
    // Fig. 9 attribution totals appear exactly when the scenario ran
    // with --latency-breakdown (same rule as the ladder coordinates).
    if (r.hasLat)
        os << ", \"lat_noc\": " << r.latNoc
           << ", \"lat_fast\": " << r.latFast
           << ", \"lat_slow\": " << r.latSlow
           << ", \"lat_cdc\": " << r.latCdc;
    os << ", \"speedup\": " << fmtMetric(r.speedup)
       << ", \"area_mm2\": " << fmtMetric(r.areaMm2)
       << ", \"adp_norm\": " << fmtMetric(r.adpNorm)
       << ", \"correct\": " << (r.correct ? "true" : "false");
    if (!r.error.empty())
        os << ", \"error\": " << jsonQuote(r.error);
}

void
writeJsonLine(std::ostream &os, const SweepRow &r)
{
    os << '{';
    writeJsonRowFields(os, r);
    os << "}\n";
}

void
writeJsonLines(std::ostream &os, const std::vector<SweepRow> &rows)
{
    for (const SweepRow &r : rows)
        writeJsonLine(os, r);
}


bool
parseSweepRow(const std::string &json_line, SweepRow &row, std::string &err)
{
    row = SweepRow{};
    // Required keys: everything writeJsonLine() has always emitted.
    // runtime_ns is redundant (runtime_ticks / kTicksPerNs) and the
    // derived columns are recomputed by --derive, so those are
    // optional; unknown keys are skipped for forward compatibility.
    static const char *const kRequired[] = {
        "workload", "app",  "mode",          "cores",  "mem_hubs",
        "size",     "seed", "runtime_ticks", "correct"};
    unsigned seen = 0; // one bit per kRequired entry
    auto visit = [&](json::Member &m) {
        const std::string &k = m.key();
        for (unsigned b = 0; b < std::size(kRequired); ++b)
            if (k == kRequired[b])
                seen |= 1u << b;
        if (k == "lat_noc" || k == "lat_fast" || k == "lat_slow" ||
            k == "lat_cdc")
            row.hasLat = true;
        if (k == "workload")
            return m.str(row.workload);
        if (k == "app")
            return m.str(row.app);
        if (k == "mode")
            return m.str(row.mode);
        if (k == "error")
            return m.str(row.error);
        if (k == "cores")
            return m.u32(row.cores);
        if (k == "mem_hubs")
            return m.u32(row.memHubs);
        if (k == "size")
            return m.u32(row.size);
        if (k == "seed")
            return m.u64(row.seed);
        if (k == "l2_kib")
            return m.u32(row.l2KiB);
        if (k == "l3_kib")
            return m.u32(row.l3KiB);
        if (k == "lat_noc")
            return m.u64(row.latNoc);
        if (k == "lat_fast")
            return m.u64(row.latFast);
        if (k == "lat_slow")
            return m.u64(row.latSlow);
        if (k == "lat_cdc")
            return m.u64(row.latCdc);
        if (k == "runtime_ticks")
            return m.u64(row.runtime);
        if (k == "speedup")
            return m.f64(row.speedup);
        if (k == "area_mm2")
            return m.f64(row.areaMm2);
        if (k == "adp_norm")
            return m.f64(row.adpNorm);
        if (k == "correct")
            return m.boolean(row.correct);
        return true;
    };
    if (!json::readObject(json_line, err, visit))
        return false;
    if (seen != (1u << std::size(kRequired)) - 1) {
        err = "row object is missing required keys";
        return false;
    }
    return true;
}

bool
readSweepRows(std::istream &in, std::vector<SweepRow> &rows,
              std::string &err)
{
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        SweepRow row;
        std::string perr;
        if (!parseSweepRow(line, row, perr)) {
            err = "line " + std::to_string(lineno) + ": " + perr;
            return false;
        }
        rows.push_back(std::move(row));
    }
    return true;
}

void
writeTable(std::ostream &os, const std::vector<SweepRow> &rows)
{
    os << std::left << std::setw(12) << "workload" << std::setw(12) << "app"
       << std::setw(7) << "mode" << std::right << std::setw(6) << "cores"
       << std::setw(6) << "size" << std::setw(12) << "seed" << std::setw(14)
       << "runtime(ns)" << std::setw(9) << "speedup" << std::setw(10)
       << "adp_norm" << "  correct\n";
    for (const SweepRow &r : rows) {
        os << std::left << std::setw(12) << r.workload << std::setw(12)
           << r.app << std::setw(7) << r.mode << std::right << std::setw(6)
           << r.cores << std::setw(6) << r.size << std::setw(12) << r.seed
           << std::setw(14) << r.runtime / kTicksPerNs << std::setw(9)
           << fmtMetric(r.speedup) << std::setw(10) << fmtMetric(r.adpNorm)
           << "  " << (r.correct ? "yes" : "NO") << "\n";
    }
    // One geomean line per mode (first-appearance order) over the rows
    // that joined a cpu partner; `n=` counts them, so modes whose rows
    // failed are not silently compared over different sets.
    struct Geomean
    {
        std::string mode;
        std::size_t n = 0;
        double logSpeedup = 0.0, logAdp = 0.0;
    };
    std::vector<Geomean> means;
    for (const SweepRow &r : rows) {
        if (r.speedup <= 0.0 || r.adpNorm <= 0.0)
            continue;
        auto it = std::find_if(means.begin(), means.end(),
                               [&](const Geomean &g) {
                                   return g.mode == r.mode;
                               });
        if (it == means.end())
            it = means.insert(means.end(), Geomean{r.mode});
        ++it->n;
        it->logSpeedup += std::log(r.speedup);
        it->logAdp += std::log(r.adpNorm);
    }
    for (const Geomean &g : means) {
        const double n = static_cast<double>(g.n);
        os << std::left << std::setw(12) << "geomean" << std::setw(12)
           << "n=" + std::to_string(g.n) << std::setw(7) << g.mode
           << std::right << std::setw(6 + 6 + 12 + 14 + 9)
           << fmtMetric(std::exp(g.logSpeedup / n)) << std::setw(10)
           << fmtMetric(std::exp(g.logAdp / n)) << "\n";
    }
}

} // namespace duet
