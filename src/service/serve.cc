#include "service/serve.hh"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <sstream>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "sim/check.hh"
#include "sim/config.hh"
#include "sim/json.hh"

namespace duet
{
namespace
{

/** Set by the SIGTERM/SIGINT handlers (installed without SA_RESTART so
 *  blocking reads/accepts return EINTR): stop intake, drain, report. */
volatile std::sig_atomic_t g_stop = 0;

void
onStopSignal(int)
{
    g_stop = 1;
}

/** EINTR-safe full write; false once the stream is broken (EPIPE when
 *  the client went away — SIGPIPE is ignored while serving). In
 *  --listen mode the request and response fds are the same socket, so
 *  the intake's O_NONBLOCK applies here too: a full send buffer
 *  (client not draining yet) is EAGAIN, which means wait for
 *  writability, not a broken stream. */
bool
writeAllFd(int fd, const char *data, std::size_t n)
{
    while (n > 0) {
        const ssize_t w = ::write(fd, data, n);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                pollfd pfd{fd, POLLOUT, 0};
                ::poll(&pfd, 1, -1); // EINTR just retries the write
                continue;
            }
            return false;
        }
        data += w;
        n -= static_cast<std::size_t>(w);
    }
    return true;
}

/** One `{"type": "stats"}` answer: queue depth, response totals, wall
 *  latency percentiles (fixed-bucket histogram, microseconds), the
 *  warm-start hit rate and per-worker utilization. Served by the
 *  parent synchronously — it never touches the worker pool. */
void
writeServeStats(std::ostream &os, const ScenarioService &svc)
{
    const ScenarioService::Summary &sum = svc.summary();
    const ScenarioService::Telemetry &t = svc.telemetry();
    const Histogram &lat = t.latencyUs;
    os << "{\"type\": \"stats\", \"queue_depth\": " << svc.inFlight()
       << ", \"served\": " << sum.served
       << ", \"failed\": " << sum.failed
       << ", \"completed\": " << t.completed
       << ", \"warm_starts\": " << t.warmStarts
       << ", \"latency_us\": {\"count\": " << lat.count()
       << ", \"p50\": " << lat.percentile(0.50)
       << ", \"p95\": " << lat.percentile(0.95)
       << ", \"p99\": " << lat.percentile(0.99)
       << "}, \"queue_us\": {\"p50\": " << t.queueUs.percentile(0.50)
       << ", \"p99\": " << t.queueUs.percentile(0.99)
       << "}, \"workers\": [";
    const double up = svc.pool().upMs();
    const auto workers = svc.pool().workerStats();
    os << std::fixed;
    for (std::size_t i = 0; i < workers.size(); ++i) {
        const double util =
            up > 0.0 ? std::min(workers[i].busyMs / up, 1.0) : 0.0;
        os << (i == 0 ? "" : ", ") << "{\"requests\": "
           << workers[i].requests << ", \"busy_ms\": "
           << std::setprecision(3) << workers[i].busyMs
           << ", \"utilization\": " << std::setprecision(4) << util
           << "}";
    }
    os << "]}\n";
}

/** True when @p line is a control request: one JSON object with a
 *  top-level "type" key, whose value (string or bare token) lands in
 *  @p type. */
bool
controlType(const std::string &line, std::string &type)
{
    bool control = false;
    auto visit = [&](json::Member &m) {
        if (m.key() != "type")
            return true;
        control = true;
        return m.strOrToken(type);
    };
    std::string err;
    return json::readObject(line, err, visit) && control;
}

} // namespace

ServeSummary
serveStream(int in_fd, int out_fd, const SystemConfig &base,
            const ScenarioService::Options &opts)
{
    ServeSummary sum;

    // Responses stream as rows complete, one flushed line each, so a
    // client pipelining requests sees results without waiting for its
    // own EOF. Once the response stream breaks we keep draining (the
    // summary should still be accurate) but stop writing.
    const ScenarioService::ResponseHandler handler =
        [out_fd, &sum](const ScenarioResponse &resp) {
            if (sum.ioError)
                return;
            std::ostringstream os;
            writeScenarioResponse(os, resp);
            const std::string line = os.str();
            if (!writeAllFd(out_fd, line.data(), line.size()))
                sum.ioError = true;
        };
    ScenarioService svc(base, opts, handler);

    // Nonblocking intake: one poll covers the request stream and every
    // worker pipe, so responses flow while the client is idle and
    // per-request deadlines fire while we wait for input.
    const int in_flags = ::fcntl(in_fd, F_GETFL, 0);
    if (in_flags >= 0)
        ::fcntl(in_fd, F_SETFL, in_flags | O_NONBLOCK);

    std::string inbuf;     // the partial line read so far
    bool overlong = false; // past the cap: drop input through its newline
    std::size_t lineno = 0;
    bool eof = false;

    auto feedLine = [&](const std::string &line) {
        ++lineno;
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            return; // blank keep-alive line
        // A control request is an object with a top-level "type" key
        // (scenario requests never have one: parseScenarioRequest
        // rejects it as unknown), answered by the parent synchronously,
        // ahead of any queued scenario work.
        std::string type;
        if (controlType(line, type)) {
            if (type != "stats") {
                svc.reject(std::to_string(lineno),
                           "unknown control request (only "
                           "{\"type\": \"stats\"} is supported)");
                return;
            }
            std::ostringstream os;
            writeServeStats(os, svc);
            const std::string sline = os.str();
            if (!sum.ioError &&
                !writeAllFd(out_fd, sline.data(), sline.size()))
                sum.ioError = true;
            return;
        }
        ScenarioRequest req;
        std::string perr;
        if (!parseScenarioRequest(line, req, perr)) {
            // One bad line answers for itself — the batch lives on.
            svc.reject(std::to_string(lineno),
                       "bad request line: " + perr);
            return;
        }
        if (req.id.empty())
            req.id = std::to_string(lineno);
        svc.submit(req); // blocks (delivering responses) at the cap
    };

    // Split the input into lines. Each byte is scanned once, and a line
    // that crosses the cap is answered then and dropped through its
    // newline, so inbuf never outgrows the cap.
    auto intake = [&](const char *p, const char *end) {
        while (p < end) {
            const char *nl = static_cast<const char *>(
                std::memchr(p, '\n', static_cast<std::size_t>(end - p)));
            const std::size_t len =
                static_cast<std::size_t>((nl != nullptr ? nl : end) - p);
            if (!overlong && inbuf.size() + len > kMaxRequestLineBytes) {
                ++lineno;
                svc.reject(std::to_string(lineno),
                           "request line longer than " +
                               std::to_string(kMaxRequestLineBytes) +
                               " bytes");
                inbuf.clear();
                overlong = true;
            } else if (!overlong) {
                inbuf.append(p, len);
            }
            if (nl == nullptr)
                return;
            if (!overlong)
                feedLine(inbuf);
            inbuf.clear();
            overlong = false;
            p = nl + 1;
        }
    };

    while (!eof && g_stop == 0) {
        std::vector<pollfd> fds;
        fds.push_back({in_fd, POLLIN, 0});
        svc.addReadFds(fds);
        const int rv = ::poll(fds.data(),
                              static_cast<nfds_t>(fds.size()),
                              svc.timeoutHintMs());
        if (rv < 0) {
            if (errno == EINTR)
                continue; // signal: the loop re-checks g_stop
            break;
        }
        // Worker frames, deadline kills and completed responses move
        // even when the poll only woke for (or timed out waiting on)
        // the request stream.
        svc.pump(0);
        if ((fds[0].revents & (POLLIN | POLLHUP | POLLERR)) == 0)
            continue;
        char chunk[65536];
        while (true) {
            const ssize_t n = ::read(in_fd, chunk, sizeof(chunk));
            if (n > 0) {
                intake(chunk, chunk + n);
                continue;
            }
            if (n == 0) {
                eof = true;
                break;
            }
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                break; // drained for now
            // A persistent read error (EIO on a vanished terminal,
            // POLLERR states): treat as end of intake, not a busy
            // loop — drain and summarize like EOF.
            eof = true;
            break;
        }
    }
    // A final request without a trailing newline still counts.
    if (!inbuf.empty() && g_stop == 0)
        feedLine(inbuf);

    const ScenarioService::Summary s = svc.drain();
    sum.served = s.served;
    sum.failed = s.failed;

    if (in_flags >= 0)
        ::fcntl(in_fd, F_SETFL, in_flags); // stdin may outlive us
    return sum;
}

namespace
{

/** Bind @p path, accept one connection, serve it to EOF, clean up.
 *  Sequential single-client semantics: a scenario server fronts one
 *  submission pipe at a time; parallelism lives in the worker pool. */
bool
serveListen(const std::string &path, const SystemConfig &base,
            const ScenarioService::Options &opts, ServeSummary &sum)
{
    sockaddr_un addr{};
    // sun_path is a fixed char array; the copy below writes
    // path.size() + 1 bytes (the terminator included), so the longest
    // representable path is sizeof(sun_path) - 1. An empty path is
    // rejected too: on Linux, binding a zero-length sun_path silently
    // switches to an autobound abstract socket nobody can find by name.
    if (path.empty() || path.size() > sizeof(addr.sun_path) - 1) {
        std::cerr << "duet_sim: --listen path must be 1.."
                  << sizeof(addr.sun_path) - 1 << " bytes, got "
                  << path.size() << "\n";
        return false;
    }
    const int lfd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (lfd < 0) {
        std::cerr << "duet_sim: socket: " << std::strerror(errno) << "\n";
        return false;
    }
    addr.sun_family = AF_UNIX;
    DUET_ASSERT(path.size() + 1 <= sizeof(addr.sun_path),
                "--listen path re-checked before the sun_path copy");
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::bind(lfd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        std::cerr << "duet_sim: cannot bind " << path << ": "
                  << std::strerror(errno)
                  << (errno == EADDRINUSE
                          ? " (stale socket from a dead server? "
                            "remove it first)"
                          : "")
                  << "\n";
        ::close(lfd);
        return false;
    }
    if (::listen(lfd, 1) != 0) {
        std::cerr << "duet_sim: listen: " << std::strerror(errno) << "\n";
        ::close(lfd);
        ::unlink(path.c_str());
        return false;
    }

    int conn = -1;
    while (g_stop == 0) {
        conn = ::accept(lfd, nullptr, nullptr);
        if (conn >= 0)
            break;
        if (errno == EINTR)
            continue; // signal: re-check g_stop
        std::cerr << "duet_sim: accept: " << std::strerror(errno) << "\n";
        ::close(lfd);
        ::unlink(path.c_str());
        return false;
    }
    if (conn >= 0) {
        sum = serveStream(conn, conn, base, opts);
        ::close(conn);
    }
    ::close(lfd);
    ::unlink(path.c_str());
    return true;
}

} // namespace

int
runServe(const SimOptions &opts)
{
    SystemConfig base;
    applySimOverrides(opts, base);

    ScenarioService::Options sopts;
    sopts.jobs = opts.jobs; // 0: the pool picks the hardware count
    sopts.timeoutSeconds = opts.scenarioTimeoutS;
    // Intake backpressure: keep a few rounds of work queued ahead of
    // the pool, but never read the whole request stream into memory.
    const std::size_t slots =
        sopts.jobs != 0 ? sopts.jobs : defaultJobCount();
    sopts.maxInFlight = 4 * slots;

    // Shutdown must interrupt blocking poll/accept: handlers without
    // SA_RESTART. SIGPIPE off so a vanished client surfaces as EPIPE.
    g_stop = 0;
    struct sigaction sa {};
    sa.sa_handler = onStopSignal;
    sigemptyset(&sa.sa_mask);
    struct sigaction ign {};
    ign.sa_handler = SIG_IGN;
    sigemptyset(&ign.sa_mask);
    struct sigaction old_term {}, old_int {}, old_pipe {};
    ::sigaction(SIGTERM, &sa, &old_term);
    ::sigaction(SIGINT, &sa, &old_int);
    ::sigaction(SIGPIPE, &ign, &old_pipe);

    ServeSummary sum;
    bool setup_ok = true;
    if (!opts.listenPath.empty()) {
        setup_ok = serveListen(opts.listenPath, base, sopts, sum);
    } else {
        // Responses go straight to fd 1; anything buffered on the C++
        // stream must land first.
        std::cout.flush();
        std::fflush(stdout);
        sum = serveStream(STDIN_FILENO, STDOUT_FILENO, base, sopts);
    }

    ::sigaction(SIGTERM, &old_term, nullptr);
    ::sigaction(SIGINT, &old_int, nullptr);
    ::sigaction(SIGPIPE, &old_pipe, nullptr);

    if (!setup_ok)
        return 2;
    std::fprintf(stderr, "duet_sim: %zu served / %zu failed\n",
                 sum.served, sum.failed);
    if (sum.ioError) {
        std::fprintf(stderr,
                     "duet_sim: response stream broke mid-serve\n");
        return 2;
    }
    return sum.failed != 0 ? 1 : 0;
}

} // namespace duet
