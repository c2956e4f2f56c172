/**
 * @file
 * The `duet_sim --sweep` batch runner: expands comma/range lists of
 * workloads, modes, core counts, problem sizes and seeds into the full
 * scenario cross-product, runs every scenario, and aggregates the results
 * into CSV, JSON-lines or an aligned text table — regenerating
 * Fig. 9-12-style data in one command.
 *
 * All parsing and expansion is pure (no I/O, no System construction), so
 * tests can cover the cross-product and range grammar without running
 * simulations.
 */

#ifndef DUET_SIM_SWEEP_HH
#define DUET_SIM_SWEEP_HH

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "workload/registry.hh"

namespace duet
{

/** The raw axis lists of one sweep, as given on the command line. */
struct SweepSpec
{
    std::string workloads = "bfs"; ///< comma list of registry names
    std::string modes = "duet";    ///< comma list (or "all")
    std::string cores;             ///< comma/range list; empty = default
    std::string sizes;             ///< comma/range list; empty = default
    std::string seeds;             ///< comma list; empty = default
    /// Cache-ladder axes: comma/range lists of per-tile L2 / per-shard
    /// L3 capacities in KiB; empty = the base geometry (one pass).
    std::string l2KiB;
    std::string l3KiB;
};

/** One expanded, validated scenario. */
struct SweepScenario
{
    const Workload *workload = nullptr;
    SystemMode mode = SystemMode::Duet;
    WorkloadParams params;  ///< resolved
    unsigned l2KiB = 0;     ///< per-tile L2 override, KiB; 0 = base
    unsigned l3KiB = 0;     ///< per-shard L3 override, KiB; 0 = base
};

/** One aggregated result row. The derived columns (speedup, silicon
 *  area, normalized area-delay product) are filled by
 *  addDerivedMetrics(); until then they are 0 ("not available"). */
struct SweepRow
{
    std::string workload; ///< registry name, e.g. "bfs"
    std::string app;      ///< AppResult display name, e.g. "bfs/8"
    std::string mode;
    unsigned cores = 0;
    unsigned memHubs = 0;
    unsigned size = 0;
    std::uint64_t seed = 0;
    /// Cache-ladder coordinates: 0 = the base geometry. Serialized in
    /// JSON-lines (when non-zero) and in the optional CSV cache
    /// columns; part of the derived-metric join key.
    unsigned l2KiB = 0;
    unsigned l3KiB = 0;
    Tick runtime = 0;
    bool correct = false;
    /// Fig. 9 latency attribution totals (--latency-breakdown):
    /// simulated ticks each category accounted for across the run.
    /// Serialized in JSON-lines only when hasLat — default sweeps stay
    /// byte-identical to the pre-breakdown wire format.
    bool hasLat = false;
    Tick latNoc = 0;
    Tick latFast = 0;
    Tick latSlow = 0;
    Tick latCdc = 0;
    double speedup = 0.0; ///< cpu-row runtime / this runtime
    double areaMm2 = 0.0; ///< system silicon area (area_model, 45 nm)
    double adpNorm = 0.0; ///< (area x delay) / the cpu row's (area x delay)
    /// Why the scenario failed (SimFatal text, worker crash/timeout
    /// diagnostic); empty for rows that ran to completion. Serialized
    /// in JSON-lines (when non-empty) but not in the fixed CSV columns.
    std::string error;
};

/**
 * Parse a comma/range list of unsigned values: elements are either a
 * plain decimal `N` or an inclusive linear range `A:B[:STEP]` (STEP
 * defaults to 1 and must be positive; A <= B). E.g. "4,8" -> {4, 8} and
 * "4:16:4" -> {4, 8, 12, 16}. On malformed syntax, fills @p err with a
 * one-line diagnostic and returns false.
 */
bool parseRangeList(const std::string &list, std::vector<unsigned> &out,
                    std::string &err);

/** Same grammar for 64-bit seed lists. */
bool parseSeedList(const std::string &list, std::vector<std::uint64_t> &out,
                   std::string &err);

/**
 * Expand @p spec into the scenario cross-product (workload-major, then
 * mode, cores, size, seed), resolving and validating every parameter
 * combination against the registry. Unknown workloads or modes,
 * malformed range syntax and out-of-bounds sizes produce a one-line
 * diagnostic in @p err and a false return; axes a workload does not take
 * (cores on fixed topologies, seeds on deterministic inputs) resolve to
 * its defaults instead of erroring.
 */
bool expandSweep(const SweepSpec &spec, std::vector<SweepScenario> &out,
                 std::string &err);

/**
 * Run one scenario in-process over @p base (the mode and any cache
 * ladder coordinates are taken from the scenario). A SimFatal becomes a
 * failed row (correct=false, zero runtime, the message in
 * SweepRow::error) instead of propagating. This is the body every
 * scenario-service worker process executes.
 */
SweepRow runScenario(const SweepScenario &sc, const SystemConfig &base);

/** The scenario-to-row identity mapping: every row — completed,
 *  SimFatal, crashed or timed out — derives from this, so the join key
 *  addDerivedMetrics() uses always matches across outcomes. */
SweepRow scenarioIdentityRow(const SweepScenario &sc);

/** Batch-runner knobs (the scenario service does the scheduling). */
struct SweepRunOptions
{
    unsigned jobs = 1;           ///< worker processes; 0 = hardware conc.
    unsigned timeoutSeconds = 0; ///< per-scenario wall clock; 0 = none
    /// Progress rendering: false = one line per completed scenario,
    /// true = carriage-return updates in place (interactive stderr).
    bool ttyProgress = false;
};

/**
 * Run every scenario over @p base (cache geometry, clocks, watchdog; the
 * mode is set per scenario) through the scenario service
 * (service/scenario_service.hh) — `opts.jobs` forked workers at a time.
 * Rows come back over the service's wire format and are reassembled
 * **in scenario order**, so the returned vector (and any output
 * rendered from it) is byte-identical whatever the job count. A
 * scenario that dies with SimFatal, crashes its worker (abort/SIGSEGV)
 * or exceeds the per-scenario timeout is recorded as a failed row with
 * a diagnostic in SweepRow::error rather than aborting the batch.
 *
 * @p progress, when non-null, receives one line per *completed*
 * scenario (completion order) with a live running/done/failed counter;
 * @p on_row, when set, receives each row as it completes (so callers
 * can stream output and an interrupted sweep keeps its finished rows).
 *
 * (Declared here next to the sweep primitives it schedules; defined in
 * the service layer, which owns all scenario scheduling.)
 */
std::vector<SweepRow>
runSweep(const std::vector<SweepScenario> &scenarios,
         const SystemConfig &base, std::ostream *progress,
         const std::function<void(const SweepRow &)> &on_row = {},
         const SweepRunOptions &opts = {});

/**
 * Fill the derived columns of every row, Fig. 12 style: silicon area
 * from the area model (src/area/area_model.hh), and — for rows whose
 * matching CpuOnly scenario (same workload/cores/size/seed) is in the
 * batch — speedup and the cpu-normalized area-delay product. Rows
 * without a cpu partner (or with zero runtimes) keep 0 in those columns.
 * Sweeping `--mode all` therefore regenerates the paper's normalized
 * plots without post-processing.
 */
void addDerivedMetrics(std::vector<SweepRow> &rows);

/** Fixed four-decimal rendering of a derived metric (speedup, area,
 *  adp_norm, and the figure tables' rates and model values). */
std::string fmtMetric(double v);

/** Write the CSV header line. @p cacheCols adds the cache-ladder
 *  `l2_kib,l3_kib` columns (after `seed`); the default layout is
 *  byte-identical to the pre-ladder format. */
void writeCsvHeader(std::ostream &os, bool cacheCols = false);

/** Write one row as CSV (layout per writeCsvHeader). */
void writeCsvRow(std::ostream &os, const SweepRow &row,
                 bool cacheCols = false);

/** True when any row carries a cache-ladder coordinate — the condition
 *  under which writeCsv() adds the `l2_kib,l3_kib` columns. */
bool rowsHaveCacheColumns(const std::vector<SweepRow> &rows);

/** Write rows as CSV with a header line; the cache columns appear
 *  exactly when rowsHaveCacheColumns(rows). */
void writeCsv(std::ostream &os, const std::vector<SweepRow> &rows);

/** Write the row's key/value fields without the enclosing braces or
 *  newline — the shared body of writeJsonLine() and the scenario
 *  service's response objects, so the row wire format has exactly one
 *  definition. */
void writeJsonRowFields(std::ostream &os, const SweepRow &row);

/** Write one row as a JSON-lines object. */
void writeJsonLine(std::ostream &os, const SweepRow &row);

/**
 * Parse one JSON-lines object written by writeJsonLine() back into a
 * SweepRow — the inverse of the executor wire format, also the entry
 * point for re-deriving metrics from a previously written file
 * (`duet_sim --derive`). Requires the identity and result fields
 * (workload/app/mode/cores/mem_hubs/size/seed/runtime_ticks/correct);
 * the derived columns and `error` are optional, unknown keys are
 * ignored. On malformed input, fills @p err and returns false.
 */
bool parseSweepRow(const std::string &json_line, SweepRow &row,
                   std::string &err);

/**
 * Read a whole JSON-lines stream (blank lines skipped) into @p rows.
 * On the first malformed line, fills @p err with a line-numbered
 * diagnostic and returns false.
 */
bool readSweepRows(std::istream &in, std::vector<SweepRow> &rows,
                   std::string &err);

/** Write rows as JSON-lines (one object per line). */
void writeJsonLines(std::ostream &os, const std::vector<SweepRow> &rows);

/** Write rows as an aligned human-readable table, followed by one
 *  `geomean` line per mode with the geometric-mean speedup and
 *  adp_norm of that mode's rows that carry derived metrics (none when
 *  no row does). */
void writeTable(std::ostream &os, const std::vector<SweepRow> &rows);

} // namespace duet

#endif // DUET_SIM_SWEEP_HH
