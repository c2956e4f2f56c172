#include "sim/executor.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "sim/check.hh"

namespace duet
{
namespace
{

using Clock = std::chrono::steady_clock;

// Exit code a worker uses when the service function let an exception
// escape. High enough to stay clear of the small exit codes a service
// might produce through libraries calling exit() themselves.
constexpr int kUncaughtExitCode = 125;

// A frame past this is a serialization bug, not a request or result;
// refusing it bounds memory on both sides against a runaway peer.
constexpr std::uint32_t kMaxPayloadBytes = 256u << 20;

bool
writeAll(int fd, const void *data, std::size_t n)
{
    const char *p = static_cast<const char *>(data);
    while (n > 0) {
        ssize_t w = ::write(fd, p, n);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += w;
        n -= static_cast<std::size_t>(w);
    }
    return true;
}

/** Blocking read of exactly @p n bytes. @p sawEof distinguishes a
 *  clean EOF before the first byte from a truncated read. */
bool
readAll(int fd, void *data, std::size_t n, bool &sawEof)
{
    char *p = static_cast<char *>(data);
    sawEof = false;
    std::size_t got = 0;
    while (got < n) {
        ssize_t r = ::read(fd, p + got, n - got);
        if (r < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (r == 0) {
            sawEof = got == 0;
            return false;
        }
        got += static_cast<std::size_t>(r);
    }
    return true;
}

/** Stable signal names: strsignal() is locale-dependent, and these
 *  strings end up in result rows that must not vary run to run. */
std::string
describeSignal(int sig)
{
    switch (sig) {
      case SIGABRT:
        return "SIGABRT";
      case SIGSEGV:
        return "SIGSEGV";
      case SIGBUS:
        return "SIGBUS";
      case SIGFPE:
        return "SIGFPE";
      case SIGILL:
        return "SIGILL";
      case SIGKILL:
        return "SIGKILL";
      case SIGTERM:
        return "SIGTERM";
      default:
        return "signal " + std::to_string(sig);
    }
}

/** Resident worker body: serve request frames until the parent closes
 *  the request pipe, then retire cleanly. One response frame per
 *  request; any protocol or service failure ends the worker (the
 *  parent classifies the death and replaces it). */
[[noreturn]] void
residentMain(const ResidentPool::Service &service, int rfd, int wfd)
{
    std::string request;
    for (;;) {
        std::uint32_t len = 0;
        bool sawEof = false;
        if (!readAll(rfd, &len, sizeof(len), sawEof))
            _exit(sawEof ? 0 : kUncaughtExitCode);
        if (len > kMaxPayloadBytes)
            _exit(kUncaughtExitCode);
        request.resize(len);
        if (len != 0 && !readAll(rfd, request.data(), len, sawEof))
            _exit(kUncaughtExitCode);
        std::string response;
        try {
            response = service(request);
        } catch (...) {
            _exit(kUncaughtExitCode);
        }
        if (response.size() > kMaxPayloadBytes)
            _exit(kUncaughtExitCode);
        // The header below truncates to 32 bits; the cap above is the
        // proof it fits, and this pins that if the cap ever moves past
        // 4 GiB.
        static_assert(kMaxPayloadBytes <= ~std::uint32_t{0},
                      "frame header is 32 bits");
        const std::uint32_t rlen =
            static_cast<std::uint32_t>(response.size());
        if (!writeAll(wfd, &rlen, sizeof(rlen)) ||
            !writeAll(wfd, response.data(), response.size()))
            _exit(kUncaughtExitCode);
    }
}

/** One resident worker, idle or holding exactly one request. */
struct RWorker
{
    pid_t pid = -1;
    int rfd = -1;    ///< parent's nonblocking read end (responses)
    int wfd = -1;    ///< parent's write end (requests)
    std::string buf; ///< response-frame bytes received so far
    bool busy = false;
    bool eof = false;      ///< worker closed its response pipe
    bool timedOut = false; ///< parent sent SIGKILL at the deadline
    Clock::time_point deadline{};
    bool hasDeadline = false;
    /// Telemetry for the request in flight (valid while busy) and the
    /// worker's lifetime totals — attribution only, never scheduling.
    Clock::time_point dispatchedAt{};
    double queuedMs = 0;   ///< submit-to-dispatch wait of the held request
    std::uint64_t served = 0;
    double busyMsTotal = 0;
    JobResult result; ///< prefilled diagnostic on timeout
    ResidentPool::Completion completion;
};

/** 1 = one complete frame extracted into @p payload, 0 = need more
 *  bytes, -1 = the worker broke the one-frame-per-request protocol. */
int
tryExtractFrame(std::string &buf, std::string &payload)
{
    std::uint32_t len = 0;
    if (buf.size() < sizeof(len))
        return 0;
    std::memcpy(&len, buf.data(), sizeof(len));
    if (len > kMaxPayloadBytes)
        return -1;
    if (buf.size() < sizeof(len) + len)
        return 0;
    if (buf.size() > sizeof(len) + len)
        return -1; // bytes past the frame: never valid with one request
    payload.assign(buf, sizeof(len), len);
    buf.clear();
    return 1;
}

} // namespace

unsigned
defaultJobCount()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
}

struct ResidentPool::Impl
{
    struct PendingReq
    {
        std::string request;
        Completion done;
        Clock::time_point queuedAt{};
    };

    ExecutorConfig cfg;
    Service service;
    std::size_t slots = 1;
    std::vector<RWorker> workers;
    std::deque<PendingReq> pending;
    bool abortedFlag = false;
    const Clock::time_point createdAt = Clock::now();

    static double
    elapsedMs(Clock::time_point from, Clock::time_point to)
    {
        return std::chrono::duration<double, std::milli>(to - from)
            .count();
    }

    std::size_t
    busyCount() const
    {
        std::size_t n = 0;
        for (const RWorker &w : workers)
            n += w.busy ? 1 : 0;
        return n;
    }

    std::size_t
    inFlight() const
    {
        return busyCount() + pending.size();
    }

    void
    killAndReap(RWorker &w)
    {
        if (w.wfd >= 0)
            ::close(w.wfd);
        if (w.rfd >= 0)
            ::close(w.rfd);
        w.wfd = w.rfd = -1;
        if (w.pid > 0) {
            ::kill(w.pid, SIGKILL);
            int st = 0;
            pid_t r;
            do {
                r = ::waitpid(w.pid, &st, 0);
            } while (r < 0 && errno == EINTR);
            w.pid = -1;
        }
    }

    bool
    transient(int e) const
    {
        return !workers.empty() &&
               (e == EMFILE || e == ENFILE || e == EAGAIN);
    }

    /** Fork one resident worker. Returns false without delivering
     *  anything when resources are exhausted; @p hardFail reports
     *  whether waiting cannot help (no live worker to drain). */
    bool
    spawnWorker(bool &hardFail, std::string &diag)
    {
        hardFail = false;
        int req[2], resp[2];
        if (::pipe(req) != 0) {
            const int e = errno;
            hardFail = !transient(e);
            diag = "pipe failed: " + std::string(std::strerror(e));
            return false;
        }
        if (::pipe(resp) != 0) {
            const int e = errno;
            ::close(req[0]);
            ::close(req[1]);
            hardFail = !transient(e);
            diag = "pipe failed: " + std::string(std::strerror(e));
            return false;
        }
        // The worker would otherwise re-flush bytes sitting in the
        // parent's stdio buffers when the service body uses stdio.
        std::fflush(stdout);
        std::fflush(stderr);
        const pid_t pid = ::fork();
        if (pid < 0) {
            const int e = errno;
            ::close(req[0]);
            ::close(req[1]);
            ::close(resp[0]);
            ::close(resp[1]);
            hardFail = !transient(e);
            diag = "fork failed: " + std::string(std::strerror(e));
            return false;
        }
        if (pid == 0) {
            ::close(req[1]);
            ::close(resp[0]);
            residentMain(service, req[0], resp[1]); // _exits
        }
        ::close(req[0]);
        ::close(resp[1]);
        ::fcntl(resp[0], F_SETFL, O_NONBLOCK);
        RWorker w;
        w.pid = pid;
        w.rfd = resp[0];
        w.wfd = req[1];
        workers.push_back(std::move(w));
        return true;
    }

    /** Hand queued requests to idle workers, forking workers up to the
     *  slot budget. Returns completions delivered (hard spawn
     *  failures fail the request on the spot). */
    std::size_t
    dispatchPending()
    {
        std::size_t delivered = 0;
        while (!pending.empty()) {
            // The first idle worker: every worker that has served a
            // request holds a warm System, so none is preferred.
            RWorker *idle = nullptr;
            for (RWorker &w : workers) {
                if (!w.busy && !w.eof) {
                    idle = &w;
                    break;
                }
            }
            if (idle == nullptr) {
                if (workers.size() >= slots)
                    break;
                bool hardFail = false;
                std::string diag;
                if (!spawnWorker(hardFail, diag)) {
                    if (!hardFail)
                        break; // wait for a live worker to free up
                    PendingReq next = std::move(pending.front());
                    pending.pop_front();
                    JobResult res;
                    res.diagnostic = diag;
                    ++delivered;
                    if (next.done)
                        next.done(std::move(res));
                }
                continue;
            }
            PendingReq next = std::move(pending.front());
            pending.pop_front();
            const std::uint32_t len =
                static_cast<std::uint32_t>(next.request.size());
            if (!writeAll(idle->wfd, &len, sizeof(len)) ||
                !writeAll(idle->wfd, next.request.data(),
                          next.request.size())) {
                // The worker died while idle (EPIPE): the request never
                // reached it, so retire the corpse and redispatch.
                killAndReap(*idle);
                for (std::size_t i = 0; i < workers.size(); ++i) {
                    if (&workers[i] == idle) {
                        workers.erase(workers.begin() +
                                      static_cast<std::ptrdiff_t>(i));
                        break;
                    }
                }
                pending.push_front(std::move(next));
                continue;
            }
            idle->busy = true;
            idle->timedOut = false;
            idle->result = JobResult{};
            idle->completion = std::move(next.done);
            idle->dispatchedAt = Clock::now();
            idle->queuedMs = elapsedMs(next.queuedAt, idle->dispatchedAt);
            if (cfg.timeoutSeconds > 0) {
                idle->deadline =
                    Clock::now() +
                    std::chrono::seconds(cfg.timeoutSeconds);
                idle->hasDeadline = true;
            } else {
                idle->hasDeadline = false;
            }
        }
        return delivered;
    }

    int
    deadlineHintMs() const
    {
        int hint = -1;
        const auto now = Clock::now();
        for (const RWorker &w : workers) {
            if (!w.busy || !w.hasDeadline || w.timedOut)
                continue;
            const auto left =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    w.deadline - now)
                    .count();
            const int ms =
                static_cast<int>(std::clamp<long long>(left, 0, 60'000));
            hint = hint < 0 ? ms : std::min(hint, ms);
        }
        return hint;
    }

    std::size_t
    abort()
    {
        abortedFlag = true;
        std::size_t delivered = 0;
        std::vector<RWorker> doomed;
        doomed.swap(workers);
        std::deque<PendingReq> queued;
        queued.swap(pending);
        for (RWorker &w : doomed) {
            const bool busy = w.busy;
            Completion done = std::move(w.completion);
            killAndReap(w);
            if (!busy)
                continue;
            JobResult res;
            res.diagnostic = "executor aborted before the job finished";
            ++delivered;
            if (done)
                done(std::move(res));
        }
        for (PendingReq &p : queued) {
            JobResult res;
            res.diagnostic = "executor aborted before the job finished";
            ++delivered;
            if (p.done)
                p.done(std::move(res));
        }
        return delivered;
    }

    /** EOF from a worker: reap it and, if it held a request, classify
     *  the death from its wait status. */
    void
    finishDeadWorker(RWorker &w)
    {
        DUET_DCHECK(w.rfd >= 0, "finishDeadWorker on a closed pipe");
        ::close(w.rfd);
        w.rfd = -1;
        if (w.wfd >= 0)
            ::close(w.wfd);
        w.wfd = -1;
        int st = 0;
        pid_t r;
        do {
            r = ::waitpid(w.pid, &st, 0);
        } while (r < 0 && errno == EINTR);
        w.pid = -1;
        if (!w.busy)
            return; // spontaneous idle death; nothing to answer
        JobResult &res = w.result;
        res.queueMs = w.queuedMs;
        res.runMs = elapsedMs(w.dispatchedAt, Clock::now());
        if (w.timedOut) {
            res.status = JobStatus::TimedOut;
        } else if (r >= 0 && WIFSIGNALED(st)) {
            res.status = JobStatus::Crashed;
            res.diagnostic =
                "worker killed by " + describeSignal(WTERMSIG(st));
        } else if (r >= 0 && WIFEXITED(st) &&
                   WEXITSTATUS(st) == kUncaughtExitCode) {
            res.status = JobStatus::Crashed;
            res.diagnostic = "worker raised an uncaught exception";
        } else if (r >= 0 && WIFEXITED(st) && WEXITSTATUS(st) != 0) {
            res.status = JobStatus::Crashed;
            res.diagnostic = "worker exited with status " +
                             std::to_string(WEXITSTATUS(st));
        } else {
            res.status = JobStatus::Crashed;
            res.diagnostic = "worker exited before delivering a result";
        }
    }

    std::size_t
    pump(int timeout_ms)
    {
        std::size_t delivered = dispatchPending();
        if (busyCount() == 0)
            return delivered;

        // Poll every live worker: busy fds for response frames, idle
        // fds so a spontaneous death is noticed and the corpse retired.
        std::vector<pollfd> pfds;
        std::vector<std::size_t> which;
        pfds.reserve(workers.size());
        for (std::size_t i = 0; i < workers.size(); ++i) {
            if (workers[i].rfd >= 0) {
                pfds.push_back({workers[i].rfd, POLLIN, 0});
                which.push_back(i);
            }
        }
        int effective = timeout_ms;
        const int hint = deadlineHintMs();
        if (hint >= 0 && (effective < 0 || hint < effective))
            effective = hint;
        const int rv =
            ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()),
                   effective);
        if (rv < 0) {
            if (errno == EINTR)
                return delivered;
            return delivered + abort();
        }

        for (std::size_t k = 0; k < pfds.size(); ++k) {
            if ((pfds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0)
                continue;
            RWorker &w = workers[which[k]];
            char chunk[65536];
            while (true) {
                const ssize_t n = ::read(w.rfd, chunk, sizeof(chunk));
                if (n > 0) {
                    w.buf.append(chunk, static_cast<std::size_t>(n));
                    continue;
                }
                if (n == 0) {
                    w.eof = true;
                    break;
                }
                if (errno == EINTR)
                    continue;
                break; // EAGAIN: drained for now
            }
        }

        // Deadline enforcement before frame extraction: a frame that
        // races in after the deadline is discarded (the request blew its
        // budget either way).
        const auto after = Clock::now();
        for (RWorker &w : workers) {
            if (!w.busy || !w.hasDeadline || w.timedOut || w.eof ||
                after < w.deadline)
                continue;
            ::kill(w.pid, SIGKILL);
            w.timedOut = true;
            w.result.diagnostic =
                "timed out after " + std::to_string(cfg.timeoutSeconds) +
                " s (worker killed)";
            // The EOF from the dying worker arrives on the next poll
            // pass; finishDeadWorker() then reaps and classifies it.
        }

        // Collect finished completions, fix pool state, then run them:
        // a throwing callback must not leave the pool inconsistent.
        std::vector<std::pair<Completion, JobResult>> finished;
        for (std::size_t i = 0; i < workers.size();) {
            RWorker &w = workers[i];
            if (w.eof) {
                const bool busy = w.busy;
                finishDeadWorker(w);
                if (busy)
                    finished.emplace_back(std::move(w.completion),
                                          std::move(w.result));
                workers.erase(workers.begin() +
                              static_cast<std::ptrdiff_t>(i));
                continue;
            }
            if (w.busy && !w.timedOut && !w.buf.empty()) {
                std::string payload;
                const int fr = tryExtractFrame(w.buf, payload);
                if (fr > 0) {
                    JobResult res;
                    res.status = JobStatus::Ok;
                    res.payload = std::move(payload);
                    res.queueMs = w.queuedMs;
                    res.runMs = elapsedMs(w.dispatchedAt, after);
                    ++w.served;
                    w.busyMsTotal += res.runMs;
                    finished.emplace_back(std::move(w.completion),
                                          std::move(res));
                    w.busy = false;
                    w.hasDeadline = false;
                    w.completion = nullptr;
                } else if (fr < 0) {
                    // Protocol violation: retire the worker, fail the
                    // request it was answering.
                    Completion done = std::move(w.completion);
                    killAndReap(w);
                    JobResult res;
                    res.diagnostic =
                        "worker produced an oversized result frame";
                    finished.emplace_back(std::move(done),
                                          std::move(res));
                    workers.erase(workers.begin() +
                                  static_cast<std::ptrdiff_t>(i));
                    continue;
                }
            }
            ++i;
        }
        delivered += dispatchPending(); // refill freed workers
        for (auto &f : finished) {
            ++delivered;
            if (f.first)
                f.first(std::move(f.second));
        }
        return delivered;
    }
};

ResidentPool::ResidentPool(const ExecutorConfig &cfg, Service service)
    : impl_(std::make_unique<Impl>())
{
    impl_->cfg = cfg;
    impl_->service = std::move(service);
    impl_->slots = std::max<std::size_t>(
        1, cfg.jobs != 0 ? cfg.jobs : defaultJobCount());
    // Requests are written to worker pipes; a worker that dies between
    // dispatches must surface as EPIPE on the write, not kill the
    // scheduler with SIGPIPE.
    std::signal(SIGPIPE, SIG_IGN);
}

ResidentPool::~ResidentPool()
{
    // Kill and reap without delivering completions: the callback
    // targets may already be mid-destruction in the owner.
    for (RWorker &w : impl_->workers)
        impl_->killAndReap(w);
}

void
ResidentPool::submit(std::string request, Completion done)
{
    if (impl_->abortedFlag) {
        JobResult res;
        res.diagnostic = "executor aborted before the job finished";
        if (done)
            done(std::move(res));
        return;
    }
    const std::size_t cap = impl_->cfg.maxInFlight;
    while (cap != 0 && impl_->inFlight() >= cap && !impl_->abortedFlag)
        impl_->pump(-1);
    if (impl_->abortedFlag) {
        JobResult res;
        res.diagnostic = "executor aborted before the job finished";
        if (done)
            done(std::move(res));
        return;
    }
    impl_->pending.push_back(Impl::PendingReq{
        std::move(request), std::move(done), Clock::now()});
    impl_->dispatchPending();
}

std::size_t
ResidentPool::pump(int timeout_ms)
{
    return impl_->pump(timeout_ms);
}

void
ResidentPool::drain()
{
    while (impl_->inFlight() > 0 && !impl_->abortedFlag)
        impl_->pump(-1);
}

std::size_t
ResidentPool::inFlight() const
{
    return impl_->inFlight();
}

void
ResidentPool::addReadFds(std::vector<pollfd> &fds) const
{
    for (const RWorker &w : impl_->workers)
        if (w.rfd >= 0)
            fds.push_back({w.rfd, POLLIN, 0});
}

int
ResidentPool::timeoutHintMs() const
{
    return impl_->deadlineHintMs();
}

std::vector<ResidentPool::WorkerStats>
ResidentPool::workerStats() const
{
    std::vector<WorkerStats> out;
    out.reserve(impl_->workers.size());
    const auto now = Clock::now();
    for (const RWorker &w : impl_->workers) {
        WorkerStats ws;
        ws.requests = w.served;
        ws.busyMs = w.busyMsTotal;
        // A request in flight counts toward busy time as it runs, so a
        // snapshot under load reflects current occupancy.
        if (w.busy)
            ws.busyMs += Impl::elapsedMs(w.dispatchedAt, now);
        out.push_back(ws);
    }
    return out;
}

double
ResidentPool::upMs() const
{
    return Impl::elapsedMs(impl_->createdAt, Clock::now());
}

} // namespace duet
