/**
 * @file
 * The scenario service: the one layer every way of running a scenario
 * goes through. A ScenarioRequest names a workload configuration (plus
 * optional per-request system-shape overrides and a client-chosen
 * request id); the service validates it against the workload registry's
 * bounds and schedules it on the resident worker pool
 * (sim/executor.hh), delivering a ScenarioResponse — a SweepRow plus a
 * status — through a callback as each scenario completes. Workers are
 * forked once and fed serialized request lines over a pipe, so a sweep
 * pays the fork/fault-in/teardown bill per *worker*, not per scenario,
 * while a crash or timeout still fails only the one request the dead
 * worker was holding.
 *
 * Front-ends are thin clients of this layer:
 *
 *  - `duet_sim --workload ...` builds one request and runs it inline
 *    (validateRequest() + runWorkload, same-process so the stats
 *    observer works);
 *  - `duet_sim --sweep` expands the cross-product into requests and
 *    streams them through a service (runSweep(), defined here);
 *  - `duet_sim --serve` reads JSONL requests off a stream and streams
 *    JSONL responses back (service/serve.hh).
 *
 * Wire format: one JSON object per line, written with jsonQuote() and
 * read by the same json::readObject() walker as the SweepRow rows (a
 * request or response parser is a key-to-field visitor), and response
 * objects embed the row fields verbatim (writeJsonRowFields), so a
 * response line parses as a SweepRow with parseSweepRow() — id-sorted
 * `--serve` responses are byte-identical to the equivalent `--sweep`
 * JSONL rows once re-serialized with writeJsonLine().
 */

#ifndef DUET_SERVICE_SCENARIO_SERVICE_HH
#define DUET_SERVICE_SCENARIO_SERVICE_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/executor.hh"
#include "sim/stats.hh"
#include "sim/sweep.hh"

namespace duet
{

/**
 * One scenario to run, as a client asks for it. Zero/empty means
 * "default": the workload's registered parameter defaults, the
 * service's base system configuration. The id is echoed back verbatim
 * on the response so clients can reorder streamed results; the service
 * itself never interprets it.
 */
struct ScenarioRequest
{
    std::string id;
    std::string workload;       ///< registry name; required
    std::string mode = "duet";  ///< duet | cpu | fpsoc
    unsigned cores = 0;
    unsigned size = 0;
    std::uint64_t seed = 0;
    // Per-request system-shape overrides, layered onto the service's
    // base configuration exactly like the corresponding CLI flags.
    unsigned l2KiB = 0;  ///< recorded in the row (cache-ladder axis)
    unsigned l3KiB = 0;  ///< recorded in the row (cache-ladder axis)
    unsigned l2Ways = 0;
    unsigned l3Ways = 0;
    unsigned spmKiB = 0;
    std::uint64_t cpuFreqMhz = 0;
    std::uint64_t fpgaFreqMhz = 0;
    std::uint64_t maxTicksUs = 0; ///< watchdog override, simulated us
};

/** Terminal state of one request. */
enum class ResponseStatus
{
    Ok,      ///< scenario ran to completion and verified correct
    Failed,  ///< ran but failed: wrong result, SimFatal, crash, timeout
    Invalid, ///< never scheduled: malformed or out-of-bounds request
};

/** Canonical wire names: "ok" / "failed" / "invalid". */
const char *responseStatusName(ResponseStatus status);

/** What comes back for one request. The row carries the scenario
 *  identity even on failure (diagnostics in row.error); an Invalid
 *  request echoes whatever identity fields it did supply. */
struct ScenarioResponse
{
    std::string id;
    ResponseStatus status = ResponseStatus::Invalid;
    SweepRow row;
};

/**
 * Parse one JSONL request object. Accepted keys: "id" (string or
 * number), "workload", "mode", "cores", "size", "seed", "l2_kib",
 * "l3_kib", "l2_ways", "l3_ways", "spm_kib", "cpu_mhz", "fpga_mhz",
 * "max_us". Unknown keys are rejected — a typo'd override silently
 * ignored would mislead — and "workload" is required. On failure fills
 * @p err and returns false.
 */
bool parseScenarioRequest(const std::string &json_line,
                          ScenarioRequest &req, std::string &err);

/** Write @p req as one JSONL object (zero/empty fields omitted). */
void writeScenarioRequest(std::ostream &os, const ScenarioRequest &req);

/** Write @p resp as one JSONL object: `{"id": ..., "status": ...,
 *  <row fields>}` — the row part is writeJsonRowFields() verbatim. */
void writeScenarioResponse(std::ostream &os, const ScenarioResponse &resp);

/** Parse a response line back (id + status + the embedded row). */
bool parseScenarioResponse(const std::string &json_line,
                           ScenarioResponse &resp, std::string &err);

/**
 * Validate @p req against the registry bounds and the service's base
 * configuration: known workload and mode, cores/size/seed within the
 * registered ranges, shape overrides within the same limits the CLI
 * flags enforce, and cache and clock shapes the hardware can be built
 * with (a power-of-two set count, a clock period of at least one tick).
 * On success fills the expanded scenario and the per-request
 * SystemConfig (base + overrides, mode set). On failure fills @p err
 * and returns false.
 */
bool validateRequest(const ScenarioRequest &req, const SystemConfig &base,
                     SweepScenario &sc, SystemConfig &cfg,
                     std::string &err);

/**
 * The long-lived scenario scheduler: validates requests, runs each one
 * on a resident worker process, and delivers a response per request —
 * in completion order — through the handler. Single-threaded like the
 * pool it wraps: responses are delivered inside submit(), pump() and
 * drain(), and the handler must not call back into the service.
 */
class ScenarioService
{
  public:
    struct Options
    {
        unsigned jobs = 0;           ///< worker processes; 0 = hw conc.
        unsigned timeoutSeconds = 0; ///< per-request wall clock; 0 = none
        /// submit() applies backpressure (pumping responses) past this
        /// many unfinished requests; 0 = unbounded queue.
        std::size_t maxInFlight = 0;
        /// Worker body; tests inject crashing/hanging bodies to
        /// exercise the isolation paths. Null = runScenario().
        SweepRow (*runner)(const SweepScenario &, const SystemConfig &) =
            nullptr;
    };

    using ResponseHandler =
        std::function<void(const ScenarioResponse &)>;

    /** Totals over every response delivered so far. */
    struct Summary
    {
        std::size_t served = 0; ///< status Ok
        std::size_t failed = 0; ///< status Failed or Invalid
    };

    /** Wall-clock service telemetry, accumulated as responses are
     *  delivered. Histograms use the fixed power-of-two buckets of
     *  sim/stats.hh, so p50/p95/p99 queries are O(buckets) with no
     *  per-request allocation. */
    struct Telemetry
    {
        Histogram latencyUs; ///< submit-to-response wall, microseconds
        Histogram queueUs;   ///< submit-to-dispatch wait, microseconds
        std::uint64_t completed = 0;  ///< pool-run requests answered
        std::uint64_t warmStarts = 0; ///< answered by a warm System reset
    };

    ScenarioService(const SystemConfig &base, const Options &opts,
                    ResponseHandler handler);
    ~ScenarioService();
    ScenarioService(const ScenarioService &) = delete;
    ScenarioService &operator=(const ScenarioService &) = delete;

    /**
     * Validate and schedule @p req. An invalid request delivers its
     * Invalid response synchronously; a valid one runs on the pool and
     * responds as it completes. Blocks (delivering other responses)
     * while the in-flight cap is reached.
     */
    void submit(const ScenarioRequest &req);

    /**
     * Deliver an Invalid response for a line that never parsed into a
     * request (the caller synthesizes the id, e.g. the input line
     * number). Counted in the summary like any other failure.
     */
    void reject(const std::string &id, const std::string &error);

    /** Move scheduling forward; see ResidentPool::pump(). */
    void pump(int timeout_ms);

    /** Event-loop integration; see ResidentPool::addReadFds(). */
    void addReadFds(std::vector<pollfd> &fds) const;
    int timeoutHintMs() const;

    /** Requests submitted but not yet responded to. */
    std::size_t inFlight() const;

    /** Block until every submitted request has a response. */
    Summary drain();

    const Summary &summary() const { return summary_; }

    const Telemetry &telemetry() const { return telemetry_; }

    /** The underlying worker pool, for per-worker utilization views
     *  (`--serve` stats requests render these). */
    const ResidentPool &pool() const { return pool_; }

  private:
    void deliver(ScenarioResponse &&resp);

    SystemConfig base_;
    Options opts_;
    ResponseHandler handler_;
    ResidentPool pool_;
    Summary summary_;
    Telemetry telemetry_;
};

} // namespace duet

#endif // DUET_SERVICE_SCENARIO_SERVICE_HH
