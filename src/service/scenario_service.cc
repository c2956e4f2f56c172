#include "service/scenario_service.hh"

#include <algorithm>
#include <bit>
#include <ostream>
#include <sstream>

#include <poll.h>

#include "mem/addr.hh"
#include "sim/config.hh"
#include "sim/json.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "workload/apps.hh"

namespace duet
{
namespace
{

/** Best-effort identity for a request that never became a scenario:
 *  echo whatever the client supplied so an Invalid response still says
 *  which request it answers. */
SweepRow
requestEchoRow(const ScenarioRequest &req)
{
    SweepRow row;
    row.workload = req.workload;
    row.app = req.workload;
    row.mode = req.mode;
    row.cores = req.cores;
    row.size = req.size;
    row.seed = req.seed;
    row.l2KiB = req.l2KiB;
    row.l3KiB = req.l3KiB;
    return row;
}

/** Fill the per-row derived columns (silicon area; speedup/ADP need a
 *  cpu partner row and stay 0 on a lone response — `--derive` joins
 *  saved responses after the fact). */
void
deriveSingleRow(SweepRow &row)
{
    std::vector<SweepRow> one{std::move(row)};
    addDerivedMetrics(one);
    row = std::move(one.front());
}

/**
 * Resident-worker body: replay one serialized request line. The parent
 * already validated the request against the same base configuration,
 * so parse/validate failures here are unreachable short of a protocol
 * bug — they still produce a row (with an error) rather than a crash,
 * because a diagnosable row beats a dead worker.
 */
std::string
runRequestLine(const std::string &line, const SystemConfig &base,
               SweepRow (*runner)(const SweepScenario &,
                                  const SystemConfig &))
{
    ScenarioRequest req;
    SweepScenario sc;
    SystemConfig cfg;
    SweepRow row;
    std::string err;
    const LeaseStats before = leaseStats();
    if (!parseScenarioRequest(line, req, err) ||
        !validateRequest(req, base, sc, cfg, err)) {
        row.error = "worker rejected request: " + err;
    } else {
        row = runner(sc, cfg);
    }
    std::ostringstream os;
    writeJsonLine(os, row);
    std::string out = os.str();
    // Piggyback the warm-start verdict for the parent's telemetry. The
    // key rides inside the row object (before the closing "}\n"), is
    // skipped by parseSweepRow() as unknown, and never reaches clients:
    // responses re-serialize from the parsed row.
    const LeaseStats after = leaseStats();
    if (after.total > before.total) {
        const char *verdict =
            after.warm > before.warm ? "true" : "false";
        out.insert(out.size() - 2,
                   std::string(", \"warm_start\": ") + verdict);
    }
    return out;
}

} // namespace

const char *
responseStatusName(ResponseStatus status)
{
    switch (status) {
      case ResponseStatus::Ok:
        return "ok";
      case ResponseStatus::Failed:
        return "failed";
      case ResponseStatus::Invalid:
        return "invalid";
    }
    return "?";
}

bool
parseScenarioRequest(const std::string &json_line, ScenarioRequest &req,
                     std::string &err)
{
    req = ScenarioRequest{};
    bool sawWorkload = false;
    auto visit = [&](json::Member &m) {
        const std::string &k = m.key();
        if (k == "id") {
            // Clients may tag with a string or a bare number; the id is
            // opaque either way and echoed back verbatim.
            if (!m.strOrToken(req.id))
                return false;
            if (!req.id.empty())
                return true;
            err = "empty request id";
            return false;
        }
        if (k == "workload") {
            sawWorkload = true;
            return m.str(req.workload);
        }
        if (k == "mode")
            return m.str(req.mode);
        if (k == "cores")
            return m.u32(req.cores);
        if (k == "size")
            return m.u32(req.size);
        if (k == "seed")
            return m.u64(req.seed);
        if (k == "l2_kib")
            return m.u32(req.l2KiB);
        if (k == "l3_kib")
            return m.u32(req.l3KiB);
        if (k == "l2_ways")
            return m.u32(req.l2Ways);
        if (k == "l3_ways")
            return m.u32(req.l3Ways);
        if (k == "spm_kib")
            return m.u32(req.spmKiB);
        if (k == "cpu_mhz")
            return m.u64(req.cpuFreqMhz);
        if (k == "fpga_mhz")
            return m.u64(req.fpgaFreqMhz);
        if (k == "max_us")
            return m.u64(req.maxTicksUs);
        // A typo'd key silently ignored would run a different scenario
        // than the client asked for.
        err = "unknown request key '" + k + "'";
        return false;
    };
    if (!json::readObject(json_line, err, visit))
        return false;
    if (!sawWorkload) {
        err = "request is missing the 'workload' key";
        return false;
    }
    return true;
}

void
writeScenarioRequest(std::ostream &os, const ScenarioRequest &req)
{
    os << '{';
    if (!req.id.empty())
        os << "\"id\": " << jsonQuote(req.id) << ", ";
    os << "\"workload\": " << jsonQuote(req.workload)
       << ", \"mode\": " << jsonQuote(req.mode);
    if (req.cores != 0)
        os << ", \"cores\": " << req.cores;
    if (req.size != 0)
        os << ", \"size\": " << req.size;
    if (req.seed != 0)
        os << ", \"seed\": " << req.seed;
    if (req.l2KiB != 0)
        os << ", \"l2_kib\": " << req.l2KiB;
    if (req.l3KiB != 0)
        os << ", \"l3_kib\": " << req.l3KiB;
    if (req.l2Ways != 0)
        os << ", \"l2_ways\": " << req.l2Ways;
    if (req.l3Ways != 0)
        os << ", \"l3_ways\": " << req.l3Ways;
    if (req.spmKiB != 0)
        os << ", \"spm_kib\": " << req.spmKiB;
    if (req.cpuFreqMhz != 0)
        os << ", \"cpu_mhz\": " << req.cpuFreqMhz;
    if (req.fpgaFreqMhz != 0)
        os << ", \"fpga_mhz\": " << req.fpgaFreqMhz;
    if (req.maxTicksUs != 0)
        os << ", \"max_us\": " << req.maxTicksUs;
    os << "}\n";
}

void
writeScenarioResponse(std::ostream &os, const ScenarioResponse &resp)
{
    os << "{\"id\": " << jsonQuote(resp.id) << ", \"status\": \""
       << responseStatusName(resp.status) << "\", ";
    writeJsonRowFields(os, resp.row);
    os << "}\n";
}

bool
parseScenarioResponse(const std::string &json_line, ScenarioResponse &resp,
                      std::string &err)
{
    resp = ScenarioResponse{};
    // First pass: pull the service envelope (id, status) out of the
    // object; everything else is row fields.
    bool sawId = false, sawStatus = false;
    auto visit = [&](json::Member &m) {
        if (m.key() == "id") {
            sawId = true;
            return m.str(resp.id);
        }
        if (m.key() != "status")
            return true;
        std::string status;
        if (!m.str(status))
            return false;
        sawStatus = true;
        for (ResponseStatus s : {ResponseStatus::Ok, ResponseStatus::Failed,
                                 ResponseStatus::Invalid})
            if (status == responseStatusName(s)) {
                resp.status = s;
                return true;
            }
        err = "unknown response status '" + status + "'";
        return false;
    };
    if (!json::readObject(json_line, err, visit))
        return false;
    if (!sawId || !sawStatus) {
        err = "response is missing the 'id'/'status' envelope";
        return false;
    }
    // Second pass: the embedded row. parseSweepRow skips the envelope
    // keys as unknown, so the row wire format stays single-sourced.
    return parseSweepRow(json_line, resp.row, err);
}

bool
validateRequest(const ScenarioRequest &req, const SystemConfig &base,
                SweepScenario &sc, SystemConfig &cfg, std::string &err)
{
    const Workload *w = findWorkload(req.workload);
    if (w == nullptr) {
        err = "unknown workload '" + req.workload + "'";
        return false;
    }
    SystemMode mode = SystemMode::Duet;
    if (!parseSystemMode(req.mode, mode)) {
        err = "unknown mode '" + req.mode + "' (want duet|cpu|fpsoc)";
        return false;
    }
    sc = SweepScenario{};
    sc.workload = w;
    sc.mode = mode;
    sc.params = WorkloadParams{req.cores, 0, req.size, req.seed};
    if (!resolveParams(*w, sc.params, err))
        return false;
    auto cacheBound = [&err](const char *what, unsigned kib) {
        if (kib > kMaxCacheKiB) {
            err = std::string(what) + " " + std::to_string(kib) +
                  " KiB is too large (max " +
                  std::to_string(kMaxCacheKiB) + ")";
            return false;
        }
        return true;
    };
    if (!cacheBound("l2_kib", req.l2KiB) ||
        !cacheBound("l3_kib", req.l3KiB) ||
        !cacheBound("spm_kib", req.spmKiB))
        return false;
    if (req.maxTicksUs > ~std::uint64_t{0} / kTicksPerUs) {
        err = "max_us too large";
        return false;
    }
    sc.l2KiB = req.l2KiB;
    sc.l3KiB = req.l3KiB;

    cfg = base;
    cfg.mode = mode;
    if (req.l2Ways != 0)
        cfg.l2.ways = req.l2Ways;
    if (req.l3Ways != 0)
        cfg.l3.ways = req.l3Ways;
    if (req.spmKiB != 0) {
        cfg.scratchpadBytes = std::size_t{req.spmKiB} * 1024;
        cfg.scratchpadAuto = false;
    }
    if (req.cpuFreqMhz != 0)
        cfg.cpuFreqMhz = req.cpuFreqMhz;
    if (req.fpgaFreqMhz != 0)
        cfg.fpgaFreqMhz = req.fpgaFreqMhz;
    if (req.maxTicksUs != 0)
        cfg.maxTicks = req.maxTicksUs * kTicksPerUs;

    // Shapes the hardware would reject with a SimPanic while building.
    // A cache needs a power-of-two set count (capacity / line / ways),
    // judged on the effective capacity: runScenario() applies the
    // ladder's l2_kib/l3_kib to the config only later.
    auto cacheShape = [&err](const char *level, std::uint64_t bytes,
                             unsigned ways) {
        const std::uint64_t sets = ways != 0 ? bytes / kLineBytes / ways : 0;
        if (std::has_single_bit(sets))
            return true;
        err = std::string(level) + "_kib " + std::to_string(bytes / 1024) +
              " / " + level + "_ways " + std::to_string(ways) + " gives " +
              std::to_string(sets) + " sets (capacity / " +
              std::to_string(kLineBytes) +
              " B line / ways); the set count must be a power of two";
        return false;
    };
    // periodFromMHz() rounds a clock above 1,000,000 MHz (one 1 ps tick
    // per cycle) down to a zero period.
    auto clockShape = [&err](const char *what, std::uint64_t mhz) {
        if (mhz != 0 && periodFromMHz(mhz) != 0)
            return true;
        err = std::string(what) + " " + std::to_string(mhz) +
              " is out of range [1, 1000000] MHz";
        return false;
    };
    const std::uint64_t l2Bytes = req.l2KiB != 0
                                      ? std::uint64_t{req.l2KiB} * 1024
                                      : cfg.l2.sizeBytes;
    const std::uint64_t l3Bytes = req.l3KiB != 0
                                      ? std::uint64_t{req.l3KiB} * 1024
                                      : cfg.l3.sizeBytes;
    return cacheShape("l2", l2Bytes, cfg.l2.ways) &&
           cacheShape("l3", l3Bytes, cfg.l3.ways) &&
           clockShape("cpu_mhz", cfg.cpuFreqMhz) &&
           clockShape("fpga_mhz", cfg.fpgaFreqMhz);
}

// ---------------------------------------------------------------------
// ScenarioService
// ---------------------------------------------------------------------

ScenarioService::ScenarioService(const SystemConfig &base,
                                 const Options &opts,
                                 ResponseHandler handler)
    : base_(base), opts_(opts), handler_(std::move(handler)),
      pool_(ExecutorConfig{opts.jobs, opts.timeoutSeconds,
                           opts.maxInFlight},
            // The service function is captured before any worker forks;
            // workers inherit the base config and runner through their
            // address-space snapshot.
            [base,
             runner = opts.runner != nullptr ? opts.runner
                                             : &runScenario](
                const std::string &line) {
                return runRequestLine(line, base, runner);
            })
{
}

ScenarioService::~ScenarioService() = default;

void
ScenarioService::deliver(ScenarioResponse &&resp)
{
    if (resp.status == ResponseStatus::Ok)
        ++summary_.served;
    else
        ++summary_.failed;
    if (handler_)
        handler_(resp);
}

void
ScenarioService::submit(const ScenarioRequest &req)
{
    SweepScenario sc;
    SystemConfig cfg;
    std::string verr;
    if (!validateRequest(req, base_, sc, cfg, verr)) {
        ScenarioResponse resp;
        resp.id = req.id;
        resp.status = ResponseStatus::Invalid;
        resp.row = requestEchoRow(req);
        resp.row.error = verr;
        deliver(std::move(resp));
        return;
    }

    // Ship the *resolved* scenario as one request line: the worker
    // replays exactly what the parent validated (resolveParams() is
    // idempotent on resolved values), and the id stays parent-side —
    // the worker's answer is a plain SweepRow line either way.
    ScenarioRequest wire = req;
    wire.id.clear();
    wire.cores = sc.params.cores;
    wire.size = sc.params.size;
    wire.seed = sc.params.seed;
    std::ostringstream os;
    writeScenarioRequest(os, wire);
    std::string line = os.str();
    line.pop_back(); // drop the newline; the wire frame is the delimiter
    pool_.submit(
        std::move(line),
        [this, id = req.id, sc](JobResult &&jr) mutable {
            // Telemetry first, while the raw payload (with the
            // worker's piggybacked warm_start key) is still at hand.
            ++telemetry_.completed;
            telemetry_.latencyUs.record(static_cast<std::uint64_t>(
                (jr.queueMs + jr.runMs) * 1000.0));
            telemetry_.queueUs.record(
                static_cast<std::uint64_t>(jr.queueMs * 1000.0));
            if (jr.payload.find("\"warm_start\": true") !=
                std::string::npos)
                ++telemetry_.warmStarts;
            ScenarioResponse resp;
            resp.id = std::move(id);
            std::string perr;
            if (jr.status == JobStatus::Ok) {
                if (!parseSweepRow(jr.payload, resp.row, perr)) {
                    resp.row = scenarioIdentityRow(sc);
                    resp.row.error = "malformed worker row: " + perr;
                }
            } else {
                resp.row = scenarioIdentityRow(sc);
                resp.row.error = jr.diagnostic;
            }
            deriveSingleRow(resp.row);
            resp.status = resp.row.correct ? ResponseStatus::Ok
                                           : ResponseStatus::Failed;
            deliver(std::move(resp));
        });
}

void
ScenarioService::reject(const std::string &id, const std::string &error)
{
    ScenarioResponse resp;
    resp.id = id;
    resp.status = ResponseStatus::Invalid;
    resp.row.error = error;
    deliver(std::move(resp));
}

void
ScenarioService::pump(int timeout_ms)
{
    pool_.pump(timeout_ms);
}

void
ScenarioService::addReadFds(std::vector<pollfd> &fds) const
{
    pool_.addReadFds(fds);
}

int
ScenarioService::timeoutHintMs() const
{
    return pool_.timeoutHintMs();
}

std::size_t
ScenarioService::inFlight() const
{
    return pool_.inFlight();
}

ScenarioService::Summary
ScenarioService::drain()
{
    pool_.drain();
    return summary_;
}

// ---------------------------------------------------------------------
// runSweep: the --sweep front-end as a service client
// ---------------------------------------------------------------------

namespace
{

ScenarioRequest
requestFromScenario(const SweepScenario &sc)
{
    ScenarioRequest req;
    req.workload = sc.workload->name;
    req.mode = systemModeName(sc.mode);
    req.cores = sc.params.cores;
    req.size = sc.params.size;
    req.seed = sc.params.seed;
    req.l2KiB = sc.l2KiB;
    req.l3KiB = sc.l3KiB;
    return req;
}

} // namespace

std::vector<SweepRow>
runSweep(const std::vector<SweepScenario> &scenarios,
         const SystemConfig &base, std::ostream *progress,
         const std::function<void(const SweepRow &)> &on_row,
         const SweepRunOptions &opts)
{
    std::vector<SweepRow> rows(scenarios.size());
    if (scenarios.empty())
        return rows;
    std::vector<char> delivered(scenarios.size(), 0);

    // Workers fork lazily (one per request that finds none idle), so a
    // batch smaller than the pool forks only as many as it needs.
    const std::size_t slots = opts.jobs != 0 ? opts.jobs : defaultJobCount();

    std::size_t done = 0, failed = 0;
    std::size_t lastProgressLen = 0;

    ScenarioService::Options sopts;
    sopts.jobs = static_cast<unsigned>(slots);
    sopts.timeoutSeconds = opts.timeoutSeconds;
    sopts.maxInFlight = 0; // the whole batch queues up front

    const auto handler = [&](const ScenarioResponse &resp) {
        // The sweep owns the ids: the scenario's index, assigned below.
        std::uint64_t idx64 = 0;
        if (!parseDecimal(resp.id, idx64) || idx64 >= rows.size())
            return; // unreachable with our own ids; drop defensively
        const std::size_t idx = static_cast<std::size_t>(idx64);
        const SweepRow &row = resp.row;
        ++done;
        if (!row.correct)
            ++failed;
        if (progress != nullptr) {
            // The service keeps every slot full until the queue
            // drains, so the live worker count is the open slots.
            const std::size_t running =
                std::min(slots, scenarios.size() - done);
            std::ostringstream line;
            line << "[" << done << "/" << scenarios.size() << "] "
                 << row.workload << " mode=" << row.mode
                 << " cores=" << row.cores << " size=" << row.size;
            if (scenarios[idx].workload->takesSeed())
                line << " seed=" << row.seed;
            if (row.l2KiB != 0)
                line << " l2=" << row.l2KiB << "K";
            if (row.l3KiB != 0)
                line << " l3=" << row.l3KiB << "K";
            line << " -> " << row.runtime / kTicksPerNs << " ns, "
                 << (row.correct ? "correct" : "FAILED");
            if (!row.error.empty())
                line << " (" << row.error << ")";
            line << "  [running " << running << ", failed " << failed
                 << "]";
            std::string text = line.str();
            if (opts.ttyProgress) {
                // Repaint in place; pad so a shorter line fully covers
                // the previous one.
                const std::size_t len = text.size();
                if (len < lastProgressLen)
                    text.append(lastProgressLen - len, ' ');
                lastProgressLen = len;
                *progress << '\r' << text;
            } else {
                *progress << text << '\n';
            }
            progress->flush();
        }
        if (on_row)
            on_row(row);
        rows[idx] = row;
        delivered[idx] = 1;
    };

    ScenarioService svc(base, sopts, handler);
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        ScenarioRequest req = requestFromScenario(scenarios[i]);
        req.id = std::to_string(i);
        svc.submit(req);
    }
    svc.drain();
    if (progress != nullptr && opts.ttyProgress && done != 0) {
        *progress << '\n';
        progress->flush();
    }
    // Every submission gets a response (even on a scheduler abort), but
    // keep the identity-preserving safety net: a row must never lose
    // which scenario it answers.
    for (std::size_t i = 0; i < rows.size(); ++i) {
        if (!delivered[i]) {
            rows[i] = scenarioIdentityRow(scenarios[i]);
            rows[i].error = "executor aborted before the job finished";
        }
    }
    return rows;
}

} // namespace duet
