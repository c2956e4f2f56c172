/**
 * @file
 * `duet_sim --serve`: the long-lived scenario server front-end.
 *
 * Reads one JSONL ScenarioRequest per line from stdin (or from a unix
 * domain socket with `--listen <path>`), schedules each on the
 * scenario service's process pool, and streams one JSONL
 * ScenarioResponse per request back as rows complete — tagged with the
 * request id, so ordering is the client's business. A line that is
 * one JSON object with a top-level `"type"` key is a control request,
 * answered by the server itself (`{"type": "stats"}`). A malformed or
 * over-long line or an out-of-bounds request gets an
 * `"status": "invalid"` response; a crashing or hanging scenario gets a
 * `"failed"` one; the server keeps serving either way. EOF (or
 * SIGTERM/SIGINT) stops intake, drains the in-flight work, prints an
 * `N served / M failed` summary on stderr and exits.
 */

#ifndef DUET_SERVICE_SERVE_HH
#define DUET_SERVICE_SERVE_HH

#include <cstddef>
#include <string>

#include "service/scenario_service.hh"

namespace duet
{

struct SimOptions; // sim/config.hh

/** What one serving session did. */
struct ServeSummary
{
    std::size_t served = 0; ///< responses with status "ok"
    std::size_t failed = 0; ///< invalid + failed responses
    bool ioError = false;   ///< the response stream broke mid-write
};

/** Longest request line served, newline excluded. Requests are under
 *  1 KiB; the cap keeps a stream without newlines from growing the
 *  intake buffer without bound. */
constexpr std::size_t kMaxRequestLineBytes = std::size_t{1} << 20;

/**
 * The protocol core, exposed for tests: serve JSONL requests from
 * @p in_fd, streaming JSONL responses to @p out_fd, until EOF or a
 * shutdown signal. Blank lines are skipped; a line that does not parse
 * as a request is answered with an Invalid response whose id is the
 * 1-based input line number. A line past kMaxRequestLineBytes is
 * answered that way as soon as it crosses the cap, and the rest of it
 * is discarded through its newline. Requests without an id get the
 * line number too.
 */
ServeSummary serveStream(int in_fd, int out_fd, const SystemConfig &base,
                         const ScenarioService::Options &opts);

/**
 * `duet_sim --serve`: wire up stdin/stdout (or bind + accept one
 * connection on `opts.listenPath`), install the shutdown signal
 * handlers, serve, and report. Exit code: 0 all requests ok, 1 some
 * failed, 2 setup/stream error.
 */
int runServe(const SimOptions &opts);

} // namespace duet

#endif // DUET_SERVICE_SERVE_HH
