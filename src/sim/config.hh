/**
 * @file
 * Command-line option and configuration layer for the `duet_sim` scenario
 * driver. Parses `--workload`/`--cores`/`--mode`/cache-size flags into a
 * SimOptions record and layers the overrides onto a SystemConfig, so every
 * scripted sweep composes the same SystemConfig the workloads run with.
 *
 * With `--sweep`, the scenario-selection flags accept comma/range lists
 * (expanded by sim/sweep.hh); without it they must be single values.
 */

#ifndef DUET_SIM_CONFIG_HH
#define DUET_SIM_CONFIG_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>

namespace duet
{

struct SystemConfig; // system/system.hh
enum class SystemMode;

/// Cache capacities are stored in bytes as `unsigned`; 1 GiB (2^20 KiB)
/// keeps the * 1024 when applying overrides from wrapping. Shared by
/// the flag layer, the sweep cache-ladder axes and the scenario
/// service's request validation.
constexpr unsigned kMaxCacheKiB = 1u << 20;

/** Everything the duet_sim CLI can ask for. Zero/empty means "workload
 *  default". */
struct SimOptions
{
    std::string workload = "bfs";  ///< registry name; comma list w/ --sweep
    std::string modeName = "duet"; ///< duet, cpu, fpsoc; list w/ --sweep
    std::string coresSpec;         ///< raw --cores value (list w/ --sweep)
    std::string sizeSpec;          ///< raw --size value (list w/ --sweep)
    std::string seedSpec;          ///< raw --seed value (list w/ --sweep)
    std::string l2Spec;            ///< raw --l2-kib value (list w/ --sweep)
    std::string l3Spec;            ///< raw --l3-kib value (list w/ --sweep)
    unsigned cores = 0;     ///< parsed scalar (single-run mode)
    unsigned size = 0;      ///< parsed scalar problem size (single-run)
    std::uint64_t seed = 0; ///< parsed scalar RNG seed (single-run)
    unsigned l2KiB = 0;     ///< parsed scalar L2 capacity (non-sweep modes)
    unsigned l2Ways = 0;
    unsigned l3KiB = 0; ///< parsed scalar L3 capacity (non-sweep modes)
    unsigned l3Ways = 0;
    unsigned spmKiB = 0; ///< eFPGA scratchpad pin (0 = layout-sized)
    std::uint64_t cpuFreqMhz = 0;
    std::uint64_t fpgaFreqMhz = 0;
    std::uint64_t maxTicksUs = 0; ///< watchdog override, in simulated us
    bool sweep = false;           ///< run the scenario cross-product
    std::string preset;           ///< --sweep axis shorthand (cache-ladder)
    bool serve = false;           ///< long-lived JSONL scenario server
    std::string listenPath;      ///< --serve on a unix socket, not stdio
    bool quiet = false;          ///< force sweep progress off
    unsigned jobs = 0;            ///< worker processes (0 = hw conc.)
    unsigned scenarioTimeoutS = 0; ///< per-scenario wall clock, s
    bool bench = false;           ///< run the reference perf-bench set
    unsigned benchReps = 0;       ///< --bench repetitions (0 = default 3)
    std::string benchOut;         ///< --bench JSON path ("-"/empty = stdout)
    std::string derivePath;       ///< --derive: JSONL to re-derive ("-" = stdin)
    std::string figuresDir;       ///< --figures: paper-artifact directory
    std::string csvPath;          ///< --sweep CSV output ("-" = stdout)
    std::string jsonlPath;        ///< --sweep JSON-lines output
    bool json = false;            ///< machine-readable stats dump
    bool stats = false;           ///< human-readable stats dump
    bool paranoid = false;        ///< enable the DUET_DCHECK layer
    std::string tracePath;        ///< --trace: Chrome trace JSON output
    std::string traceFilter;      ///< --trace-filter: category comma list
    std::string profPath;         ///< --prof: self-profiler JSON output
    std::string statsFilter;      ///< --stats-filter: glob over stat names
    bool latencyBreakdown = false; ///< --latency-breakdown: Fig. 9 totals

    bool list = false;            ///< print the workload table and exit
    bool help = false;
};

/** Outcome of parseSimOptions. */
enum class ParseStatus
{
    Ok,
    Exit, ///< --help/--list handled; caller should exit 0
    Error ///< malformed flags; see the error string
};

/**
 * Parse duet_sim argv. On Error, @p err holds a one-line diagnostic.
 * Does not validate the workload name (the registry owns the table).
 */
ParseStatus parseSimOptions(int argc, char **argv, SimOptions &opts,
                            std::string &err);

/** The duet_sim usage text. */
const char *simUsage();

/** Strict decimal parse of a full string; false on garbage/overflow. */
bool parseDecimal(const std::string &s, std::uint64_t &out);

/** Map "duet"/"cpu"/"fpsoc" to a SystemMode. @return false if unknown. */
bool parseSystemMode(const std::string &name, SystemMode &mode);

/** Canonical name for a mode ("duet"/"cpu"/"fpsoc"). */
const char *systemModeName(SystemMode mode);

/**
 * Layer the non-zero overrides in @p opts (cache geometry, clock
 * frequencies, watchdog) onto @p cfg. Core counts, problem sizes and mode
 * are not applied here: they travel through WorkloadParams and the
 * per-scenario config, so the driver passes those explicitly.
 */
void applySimOverrides(const SimOptions &opts, SystemConfig &cfg);

/**
 * Publish one duet_sim output file atomically: @p write fills
 * `PATH.tmp`, which is flushed, checked and renamed onto @p path, so a
 * failed or interrupted run never leaves a truncated file at @p path.
 * "-" writes to stdout instead. Failures are reported on stderr.
 * @return false on an I/O failure
 */
bool publishOutput(const std::string &path,
                   const std::function<void(std::ostream &)> &write);

} // namespace duet

#endif // DUET_SIM_CONFIG_HH
