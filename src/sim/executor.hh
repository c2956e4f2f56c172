/**
 * @file
 * The resident-worker process pool: forks each worker once, streams
 * request frames to it, runs a service function per request in the
 * worker, and ships one response frame back per request. Completions
 * are delivered through per-request callbacks.
 *
 * Worker processes buy crash isolation: each worker holds at most one
 * request at a time, so a request that aborts, segfaults or overruns
 * the per-request wall-clock timeout becomes a failed JobResult with a
 * one-line diagnostic, and the dead worker is replaced for the next
 * request. Resident workers amortize the fork, copy-on-write fault-in
 * and teardown bill across requests, and each keeps its leased System
 * to rebuild warm for the next request (SystemLease). The pool is
 * deliberately workload-agnostic: requests and responses are opaque
 * serialized strings.
 *
 * It is a submit-as-you-go scheduler: requests arrive over time (a
 * scenario server feeding them off a stream, or a sweep queueing its
 * whole batch), an optional in-flight cap applies backpressure at
 * submit(), and pump()/drain() move completions forward. External event
 * loops fold the pool's pipe fds into their own poll() via
 * addReadFds()/timeoutHintMs().
 *
 * Wire format (both directions, one frame per request/response):
 *
 *     [u32 payload length, host byte order][payload bytes]
 *
 * A worker that exits without delivering a complete frame (signal,
 * nonzero exit, short write) is reported as crashed.
 */

#ifndef DUET_SIM_EXECUTOR_HH
#define DUET_SIM_EXECUTOR_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

struct pollfd; // <poll.h>

namespace duet
{

/** Terminal state of one job. */
enum class JobStatus
{
    Ok,       ///< worker delivered a complete payload and exited 0
    Crashed,  ///< worker died: signal, nonzero exit, or truncated frame
    TimedOut, ///< parent killed the worker at the per-job deadline
};

/** What came back from one worker process. */
struct JobResult
{
    JobStatus status = JobStatus::Crashed;
    std::string payload;    ///< the service function's response (Ok only)
    std::string diagnostic; ///< one-line failure description (non-Ok)
    /// Wall-clock service telemetry: time the request spent queued
    /// before a worker took it, and time the worker held it until the
    /// outcome was final. Attribution only — scheduling never reads
    /// these.
    double queueMs = 0;
    double runMs = 0;
};

/** Process-pool knobs. */
struct ExecutorConfig
{
    unsigned jobs = 0;           ///< concurrent workers; 0 = hardware conc.
    unsigned timeoutSeconds = 0; ///< per-job wall clock; 0 = unlimited
    /// ResidentPool::submit() blocks (pumping completions) while this
    /// many requests are already queued or running; 0 = unbounded queue.
    std::size_t maxInFlight = 0;
};

/** std::thread::hardware_concurrency(), clamped to at least 1. */
unsigned defaultJobCount();

/**
 * The resident-worker pool. Single-threaded by design: submissions,
 * pump() and completion callbacks all happen on the owning thread
 * (completions run inside submit()/pump()/drain(), never concurrently),
 * and completion callbacks must not call back into the pool.
 *
 * submit() takes an opaque request string; a free worker receives it as
 * a length-prefixed frame, runs the service function over it, and ships
 * one response frame back. The service function is captured at
 * construction, *before* any worker forks, so workers inherit it
 * through their address-space snapshot.
 *
 * Construction itself spawns nothing; workers fork lazily as requests
 * need them, up to cfg.jobs. A worker that crashes, wedges past the
 * per-request deadline, or exits early fails only the request it was
 * holding; the pool forks a replacement for the next request.
 *
 * Destroying a pool with work still in flight SIGKILLs and reaps every
 * worker without delivering the pending completions — the clean
 * shutdown path is drain().
 */
class ResidentPool
{
  public:
    /** Worker body: request payload in, response payload out. Runs in
     *  the forked worker; a thrown exception is reported to the parent
     *  as a crashed job. */
    using Service = std::function<std::string(const std::string &)>;
    /** Called in the parent once the request's outcome is final. */
    using Completion = std::function<void(JobResult &&result)>;

    ResidentPool(const ExecutorConfig &cfg, Service service);
    ~ResidentPool();
    ResidentPool(const ResidentPool &) = delete;
    ResidentPool &operator=(const ResidentPool &) = delete;

    /**
     * Schedule @p request. Dispatches to an idle worker immediately
     * (forking one when all are busy and the worker budget allows),
     * queues otherwise. When the in-flight cap (cfg.maxInFlight) is
     * reached, blocks pumping completions until the backlog shrinks
     * below it. A fork that fails outright (no live worker left to wait
     * for) delivers a failed result synchronously.
     */
    void submit(std::string request, Completion done);

    /**
     * Move the pool forward: wait up to @p timeout_ms (-1 = until
     * something happens, 0 = just poll) for worker events, read
     * response frames, enforce per-request deadlines, retire dead
     * workers and deliver completions, and dispatch queued requests as
     * workers free up. Returns the number of completions delivered.
     */
    std::size_t pump(int timeout_ms);

    /** Block until every submitted request has completed. Workers stay
     *  resident for future submissions. */
    void drain();

    /** Requests submitted but not yet completed (queued + running). */
    std::size_t inFlight() const;

    /**
     * Fold the pool into an external event loop: append one POLLIN
     * pollfd per live worker to @p fds, and cap the caller's poll
     * timeout with timeoutHintMs() (-1 = no deadline pending) so
     * per-request deadlines still fire while the caller waits on its
     * own fds. After the poll, call pump(0).
     */
    void addReadFds(std::vector<pollfd> &fds) const;
    int timeoutHintMs() const;

    /** Cumulative wall-clock activity of one resident worker. */
    struct WorkerStats
    {
        std::uint64_t requests = 0; ///< requests this worker answered
        double busyMs = 0;          ///< wall time spent holding requests
    };

    /** Per-worker telemetry for the currently live workers (a crashed
     *  worker's totals retire with it). Index order is worker spawn
     *  order among the survivors. */
    std::vector<WorkerStats> workerStats() const;

    /** Wall-clock ms since the pool was constructed — the denominator
     *  for worker-utilization figures. */
    double upMs() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace duet

#endif // DUET_SIM_EXECUTOR_HH
