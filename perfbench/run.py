#!/usr/bin/env python3
"""The simulator benchmark: one command that builds the simulator from
source, runs one workload for a fixed time, checks every result, and
prints every metric with its unit.

    python3 perfbench/run.py --workload fig12_accel|cpu_spill|serve_mix \\
        --seed N [--seconds S] --trace 0|1 [--input-seed N]

Run it from the repository root. --seconds defaults to BENCHMARK.json's
run_seconds. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones (BENCHMARK.json "end_to_end"); with
--trace 1 they are the per-layer ones ("per_layer"), which add a profiled
pass. The exit code is 0 only when every op passed its checks.

--seed orders the in-process rows and generates the serve_mix request
stream. --input-seed replaces the registered scenario input seeds with a
held-out one; results are then checked for self-consistency (every rep
identical, functionally correct) instead of against the references.

    python3 perfbench/run.py --write-reference

regenerates perfbench/reference.json (cpu_spill rows and every serve_mix
request shape). See perfbench/README.md for the workloads and metrics.
"""

import argparse
import fnmatch
import json
import os
import random
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
INPROC = os.path.join(BUILD, "perfbench_inproc")
DUET_SIM = os.path.join(BUILD, "duet", "duet_sim")
REFERENCE = os.path.join(HERE, "reference.json")
BENCH_SIM = os.path.join(ROOT, "BENCH_sim.json")

WORKLOADS = ("fig12_accel", "cpu_spill", "serve_mix")
# Fresh processes per run: perfbench_inproc processes that share the timed
# window in-process, or servers started for serve_mix. Each one's set-up is
# timed; setup_s is the median.
PROCESSES = 8
# A run gives up (exit 1) when its processes have not finished this many
# seconds after the build.
RUN_LIMIT_S = 170
DEADLINE = None   # set by main() once the build is done
# How long serve_mix waits for any one response line.
RECV_TIMEOUT_S = 30
SERVE_JOBS = 2
SERVE_OUTSTANDING = 4
# (l2_kib, l3_kib) overrides of the serve_mix ladder requests. The
# defaults are 8 and 64 KiB, so each forces a System of another geometry.
LADDER = ((4, 32), (4, 256), (16, 32), (16, 256))
# Copies of each default row in one serve_mix request cycle.
DEFAULT_COPIES = 4
PAPER = {"duet_speedup": 4.53, "fpsoc_speedup": 2.14,
         "duet_adp": 0.61, "fpsoc_adp": 1.23}
PROF_CLASSES = ("cpu", "cache", "noc", "ctrl", "cdc", "fpga", "other")
# Per-layer metrics of layers a workload does not run. They report 0; any
# other metric a run does not produce is an error.
BYPASSED = {
    "fig12_accel": ("service.*", "row.*.cpu.ms_p50"),
    "cpu_spill": ("service.*", "row.*.duet.ms_p50", "row.*.fpsoc.ms_p50"),
    "serve_mix": ("sim.*", "system.*", "row.*", "workload.*", "cpu.*",
                  "cache.*", "noc.*", "core.*", "mem.*", "lat.*", "prof.*"),
}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# Build
# --------------------------------------------------------------------------

def build():
    """Configure (once) and build libduet, duet_sim and perfbench_inproc."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        raise BenchError("simulator sources not found under " + ROOT)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    logpath = os.path.join(BUILD, "build.log")
    with open(logpath, "w") as out:
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD, "-j", "4"])
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT,
                               env=env) != 0:
                with open(logpath) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError("build failed: " + " ".join(cmd))


# --------------------------------------------------------------------------
# Statistics
# --------------------------------------------------------------------------

def p10(values):
    """Linear-interpolated 10th percentile (needs two or more values)."""
    return statistics.quantiles(values, n=10, method="inclusive")[0]


def p90(values):
    """Linear-interpolated 90th percentile (needs two or more values)."""
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def ratio(num, den):
    return num / den if den else 0.0


# --------------------------------------------------------------------------
# In-process workloads (fig12_accel, cpu_spill)
# --------------------------------------------------------------------------

def run_inproc(args, timeout=None):
    cmd = [INPROC] + args
    if timeout is None:
        timeout = max(1.0, DEADLINE - time.monotonic())
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError("perfbench_inproc failed (%d): %s" %
                         (proc.returncode, " ".join(args)))
    records = [json.loads(line) for line in proc.stdout.splitlines()
               if line.startswith("{")]
    return records


def load_references(workload):
    """(workload, mode) -> (events, sim_ticks) for the in-process rows."""
    refs = {}
    if workload == "fig12_accel":
        with open(BENCH_SIM) as f:
            for s in json.load(f)["scenarios"]:
                refs[s["workload"] + "/" + s["mode"]] = (s["events"],
                                                        s["sim_ticks"])
    else:
        with open(REFERENCE) as f:
            for name, r in json.load(f)["cpu_spill"].items():
                refs[name] = (r["events"], r["sim_ticks"])
    return refs


class Checker:
    """Counts failed ops. An op fails when its functional check fails,
    or when its events or sim_ticks differ from the reference for its row
    (none with a held-out seed) or from that row's first run."""

    def __init__(self, refs):
        self.refs = refs
        self.first = {}
        self.failures = []

    def check(self, rec, what):
        name, key = rec["name"], (rec["events"], rec["ticks"])
        if not rec["correct"]:
            problem = "functional check failed"
        elif self.refs is not None and self.refs.get(name) != key:
            problem = "events/sim_ticks %s != reference %s" % (
                key, self.refs.get(name))
        elif self.first.setdefault(name, key) != key:
            problem = "events/sim_ticks %s drifted from %s" % (
                key, self.first[name])
        else:
            return True
        self.failures.append("%s %s: %s" % (what, name, problem))
        return False


def in_process(opts):
    """Runs the timed window as PROCESSES fresh perfbench_inproc processes
    of seconds/PROCESSES each, one after another, and pools their ops. The
    last one also runs the layer and traced passes when --trace 1."""
    checker = Checker(None if opts.input_seed else
                      load_references(opts.workload))
    ops, setups, rss_kb, loop_ms, last = [], [], [], 0.0, None
    for k in range(PROCESSES):
        args = ["--workload", opts.workload,
                "--seed", str(opts.seed * PROCESSES + k),
                "--seconds", str(opts.seconds / PROCESSES)]
        if opts.input_seed:
            args += ["--input-seed", str(opts.input_seed)]
        if opts.trace and k == PROCESSES - 1:
            args.append("--layers")
        recs = run_inproc(args)
        name = {r["i"]: r["name"] for r in recs if r["kind"] == "row"}
        for r in recs:
            if "i" in r:
                r["name"] = name[r["i"]]
            if r["kind"] == "warm":
                checker.check(r, "warm-up")
            elif r["kind"] == "op":
                r["ok"] = checker.check(r, "op")
                ops.append(r)
            elif r["kind"] == "setup":
                setups.append(r["ms"])
            elif r["kind"] == "timed":
                rss_kb.append(r["rss_kb"])
                loop_ms += r["wall_ms"]
        last = recs
    if not ops:
        raise BenchError("no timed ops")

    by_row = {}
    for r in ops:
        by_row.setdefault(r["name"], []).append(r["ms"])
    # A row's op time is the 10th percentile of its timed ops over the
    # run. Contention on a shared host only ever adds time, and it comes
    # and goes in phases of minutes: between a quiet and a busy phase the
    # per-row medians moved 33-48%, the per-row 10th percentiles 21% (see
    # README.md). The percentiles below are over the row mix, each row
    # weighted equally, as the cycle runs them; the tail over all ops is
    # the per-layer workload.op_ms_p90_all_ops.
    row_ms = [p10(v) for v in by_row.values()]
    res = {
        "attempted": len(ops),
        "failed": sum(not r["ok"] for r in ops),
        "ops_per_s": len(row_ms) / (sum(row_ms) / 1e3),
        "op_ms_p50": statistics.median(row_ms),
        "op_ms_p90": p90(row_ms),
        "setup_s": statistics.median(setups) / 1e3,
        "peak_rss_mb": max(rss_kb) / 1024.0,
        "failures": checker.failures,
    }
    if opts.trace:
        res["layers"] = in_process_layers(last, ops, by_row, loop_ms,
                                          checker)
    return res


def in_process_layers(recs, ops, by_row, loop_ms, checker):
    """Per-layer metrics: counts, System and traced-pass records come from
    @p recs (the last process); times from the pooled timed @p ops."""
    m = {}
    counts = [r for r in recs if r["kind"] == "counts"]
    total = lambda key: sum(c[key] for c in counts)

    m["sim.events"] = total("events")
    m["sim.ns_per_event"] = ratio(sum(r["ms"] for r in ops) * 1e6,
                                  sum(r["events"] for r in ops))
    m["sim.eq_slab_slots"] = max(c["eq_slab_slots"] for c in counts)
    m["sim.arena_slab_bytes"] = max(c["arena_slab_bytes"] for c in counts)
    m["sim.arena_freelist_hit_ratio"] = ratio(
        total("arena_freelist_hits"),
        total("arena_freelist_hits") + total("arena_slab_carves"))

    systems = [r for r in recs if r["kind"] == "system"]
    cold = [r["name"] for r in systems if not r["reset_warm"]]
    if cold:
        raise BenchError("the lease after the counted run was cold, so "
                         "system.reset_ms would time a build: %s" % cold)
    m["system.build_ms"] = statistics.mean(s["build_ms"] for s in systems)
    m["system.reset_ms"] = statistics.mean(s["reset_ms"] for s in systems)
    timed = next(r for r in recs if r["kind"] == "timed")
    m["system.warm_lease_ratio"] = ratio(timed["warm_leases"],
                                         timed["leases"])

    for name, ms in by_row.items():
        m["row.%s.ms_p50" % name.replace("/", ".")] = statistics.median(ms)
    m["workload.after_run_ms_p50"] = statistics.median(
        r["after_ms"] for r in ops)
    m["workload.timed_ops_per_s"] = len(ops) / (loop_ms / 1e3)
    m["workload.op_ms_p90_all_ops"] = p90([r["ms"] for r in ops])

    m["cpu.loads"] = total("cpu_loads")
    m["cpu.stores"] = total("cpu_stores")
    m["cpu.amos"] = total("cpu_amos")
    m["cpu.mmios"] = total("cpu_mmios")
    m["cpu.l1_hit_ratio"] = ratio(total("cpu_l1_hits"), total("cpu_loads"))

    l2 = total("cache_l2_hits") + total("cache_l2_misses")
    m["cache.l2_accesses"] = l2
    m["cache.l2_hit_ratio"] = ratio(total("cache_l2_hits"), l2)
    m["cache.l2_evictions"] = total("cache_l2_evictions")
    m["cache.l2_writebacks"] = total("cache_l2_writebacks")
    m["cache.l3_requests"] = total("cache_l3_requests")
    m["cache.l3_hit_ratio"] = ratio(
        total("cache_l3_hits"),
        total("cache_l3_hits") + total("cache_l3_misses"))
    m["cache.l3_mem_reads"] = total("cache_l3_mem_reads")
    m["cache.recalls_sent"] = total("cache_recalls_sent")
    m["cache.invs_sent"] = total("cache_invs_sent")

    m["noc.delivered"] = total("noc_delivered")
    m["noc.flit_cycles_per_msg"] = ratio(total("noc_flit_cycles"),
                                         total("noc_delivered"))
    m["core.mmio_reads"] = total("core_mmio_reads")
    m["core.mmio_writes"] = total("core_mmio_writes")
    m["core.ctrl_timeouts"] = total("core_ctrl_timeouts")
    m["mem.pages"] = max(c["mem_pages"] for c in counts)

    # Traced pass: profiled and latency-breakdown runs must replay the
    # untraced runs exactly.
    traced = [r for r in recs if r["kind"] == "traced"]
    for r in recs:
        if r["kind"] in ("traced", "lat_run"):
            checker.check(r, r["kind"])
    lat = [r for r in recs if r["kind"] == "lat"]
    lat_total = sum(r[c] for r in lat for c in ("noc", "fast", "slow", "cdc"))
    for c in ("noc", "fast", "slow", "cdc"):
        m["lat.%s_share" % c] = ratio(sum(r[c] for r in lat), lat_total)

    prof = next(r for r in recs if r["kind"] == "prof")["data"]
    comps = {c["name"]: c for c in prof["components"]}
    wall_ns = sum(c["wall_ns"] for c in prof["components"])
    for c in PROF_CLASSES:
        e = comps.get(c, {"events": 0, "wall_ns": 0})
        m["prof.%s.ns_per_event" % c] = ratio(e["wall_ns"], e["events"])
        m["prof.%s.share" % c] = ratio(e["wall_ns"], wall_ns)
    traced_by_row = {}
    for r in traced:
        traced_by_row.setdefault(r["name"], []).append(r["ms"])
    m["prof.overhead_frac"] = ratio(
        sum(statistics.median(v) for v in traced_by_row.values()),
        sum(statistics.median(by_row[n]) for n in traced_by_row)) - 1.0

    m["host.cpu_frac"] = ratio(sum(r["cpu_ms"] for r in ops),
                               sum(r["ms"] for r in ops))
    return m


# --------------------------------------------------------------------------
# serve_mix: duet_sim --serve over one stdin/stdout pipe
# --------------------------------------------------------------------------

def registry_rows():
    """The 21 default Fig. 12 rows, from the committed reference."""
    with open(REFERENCE) as f:
        serve = json.load(f)["serve"]
    rows = sorted({(r["workload"], r["mode"]) for r in serve})
    ticks = {(r["workload"], r["mode"], r["l2_kib"], r["l3_kib"]):
             r["runtime_ticks"] for r in serve}
    return rows, ticks


# Lines the server must answer with status "invalid": malformed JSON, an
# unknown key, unknown names, and out-of-bounds values.
INVALID_LINES = (
    'this is not json',
    '{"id": "%s", "workload": "bfs", "size": 999999}',
    '{"id": "%s", "workload": "no_such_app"}',
    '{"id": "%s", "workload": "sort", "mode": "gpu"}',
    '{"id": "%s", "workload": "tangent", "l2_kib": 99999999}',
    '{"id": "%s", "workload": "bfs", "bogus_key": 1}',
)


def request_cycle(rows, input_seed):
    """The (kind, key, line-template) requests of one cycle: each default
    row DEFAULT_COPIES times, each row once with a cache-ladder override
    (row j takes rung j mod 4), and each invalid line once. With the 21
    Fig. 12 rows that is 84 + 21 + 6 requests, about 76/19/5%."""
    cycle = []
    for j, (workload, mode) in enumerate(rows):
        for l2, l3 in [(0, 0)] * DEFAULT_COPIES + [LADDER[j % len(LADDER)]]:
            req = {"id": "%s", "workload": workload, "mode": mode}
            if l2:
                req["l2_kib"], req["l3_kib"] = l2, l3
            if input_seed:
                req["seed"] = input_seed
            cycle.append((("ladder" if l2 else "default"),
                          (workload, mode, l2, l3), json.dumps(req)))
    cycle += [("invalid", line, line) for line in INVALID_LINES]
    return cycle


def request_stream(rng, rows, input_seed):
    """Endless stream of request cycles. Every cycle holds the same
    requests, so every window of one cycle's length holds the same work
    whatever the seed; the seed only shuffles each cycle's order."""
    cycle = request_cycle(rows, input_seed)
    while True:
        rng.shuffle(cycle)
        yield from cycle


class Server:
    """One `duet_sim --serve --jobs 2` process and its request pipe."""

    def __init__(self, stderr_path):
        self.stderr = open(stderr_path, "w")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [DUET_SIM, "--serve", "--jobs", str(SERVE_JOBS)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self.stderr, bufsize=0)
        self.lines = 0
        self.buf = b""

    def send(self, line):
        self.lines += 1
        self.proc.stdin.write(line.encode() + b"\n")
        return self.lines

    def recv(self):
        """The next response line; BenchError if none comes in time."""
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + RECV_TIMEOUT_S
        while b"\n" not in self.buf:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise BenchError("duet_sim --serve sent no response in "
                                 "%d s" % RECV_TIMEOUT_S)
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise BenchError("duet_sim --serve closed its output")
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)

    def warm_up(self):
        """One request per worker; returns (first, all) answered, ms."""
        for w in range(SERVE_JOBS):
            self.send('{"id": "warm%d", "workload": "tangent"}' % w)
        times = []
        for _ in range(SERVE_JOBS):
            resp = self.recv()
            if resp.get("status") != "ok":
                raise BenchError("warm-up request failed: %s" % resp)
            times.append((time.perf_counter() - self.t0) * 1e3)
        return times[0], times[-1]

    def processes(self):
        pids = [self.proc.pid]
        path = "/proc/%d/task/%d/children" % (self.proc.pid, self.proc.pid)
        try:
            with open(path) as f:
                pids += [int(p) for p in f.read().split()]
        except OSError:
            pass
        return pids

    def peak_rss_kb(self):
        total = 0
        for pid in self.processes():
            try:
                with open("/proc/%d/status" % pid) as f:
                    for line in f:
                        if line.startswith("VmHWM:"):
                            total += int(line.split()[1])
            except OSError:
                pass
        return total

    def worker_cpu_ms(self):
        hz = os.sysconf("SC_CLK_TCK")
        total = 0.0
        for pid in self.processes()[1:]:
            try:
                with open("/proc/%d/stat" % pid) as f:
                    fields = f.read().rsplit(")", 1)[1].split()
                total += (int(fields[11]) + int(fields[12])) * 1e3 / hz
            except OSError:
                pass
        return total

    def close(self):
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()


def serve_mix(opts):
    """Runs the timed window as PROCESSES fresh servers of
    seconds/PROCESSES each, one after another, and pools their windows.

    Each server answers whole cycles of the request stream (request_stream)
    with SERVE_OUTSTANDING requests in flight. A window is one cycle's
    worth of consecutive responses, so every window holds the same work.
    Host contention only ever adds time and comes and goes, so the
    end-to-end figures come from the quiet windows, as the in-process
    workloads take each row's 10th-percentile op: ops_per_s is one cycle
    over the 10th-percentile window time, and op_ms_p50/p90 are the 10th
    percentiles over the windows of each window's p50/p90 round trip."""
    rows, ticks = registry_rows()
    stream = request_stream(random.Random(opts.seed), rows, opts.input_seed)
    cycle_len = len(request_cycle(rows, opts.input_seed))
    stderr_path = os.path.join(BUILD, "serve_stderr.log")
    seen = {}          # held-out seed: request shape -> runtime_ticks
    failures, done, windows, servers = [], [], [], []
    for _ in range(PROCESSES):
        server = Server(stderr_path)
        try:
            first, setup = server.warm_up()
            slice_ = serve_slice(opts, server, stream, cycle_len, ticks, seen)
            servers.append(dict(slice_, first_ms=first, setup_ms=setup))
        finally:
            server.close()
        failures += slice_["failures"]
        done += slice_["done"]
        windows += slice_["windows"]
    if not windows:
        raise BenchError("no whole window of %d requests" % cycle_len)

    res = {
        "attempted": len(done),
        "failed": len(failures),
        "ops_per_s": cycle_len / p10([w["s"] for w in windows]),
        "op_ms_p50": p10([statistics.median(w["rtt"]) for w in windows]),
        "op_ms_p90": p10([p90(w["rtt"]) for w in windows]),
        "setup_s": statistics.median(s["setup_ms"] for s in servers) / 1e3,
        "peak_rss_mb": max(s["rss_kb"] for s in servers) / 1024.0,
        "failures": failures,
    }
    if opts.trace:
        med = lambda f: statistics.median(f(s["stats"]) for s in servers)
        invalid = [ms for kind, _, ms in done if kind == "invalid"]
        res["layers"] = {
            "service.queue_ms_p50": med(lambda s: s["queue_us"]["p50"]) / 1e3,
            "service.queue_ms_p99": med(lambda s: s["queue_us"]["p99"]) / 1e3,
            "service.req_ms_p99": med(lambda s: s["latency_us"]["p99"]) / 1e3,
            "service.worker_util": med(lambda s: statistics.mean(
                w["utilization"] for w in s["workers"])),
            "service.warm_start_ratio": ratio(
                sum(s["stats"]["warm_starts"] for s in servers),
                sum(s["stats"]["completed"] for s in servers)),
            "service.invalid_ms_p50": statistics.median(invalid),
            "service.first_response_ms": statistics.median(
                s["first_ms"] for s in servers),
            "host.cpu_frac": ratio(
                sum(s["cpu_ms"] for s in servers),
                sum(w["busy_ms"] for s in servers
                    for w in s["stats"]["workers"])),
        }
    return res


def serve_slice(opts, server, stream, cycle_len, ticks, seen):
    """One server's share of the timed window: whole cycles of @p stream
    until seconds/PROCESSES have passed, then its stats reply."""
    pending = {}       # response id -> (kind, key, sent_at, aliases)
    done = []          # (kind, key, rtt_ms)
    failures = []
    windows = []       # {"s": window seconds, "rtt": [ms, ...]}
    seq = 0
    to_send = 0        # requests left in the cycle being sent

    def submit():
        nonlocal seq, to_send
        kind, key, template = next(stream)
        to_send -= 1
        seq += 1
        rid = "r%d" % seq
        line = template % rid if "%s" in template else template
        lineno = server.send(line)
        # A line that does not parse is answered under its line number.
        ids = (rid, str(lineno)) if kind == "invalid" else (rid,)
        entry = (kind, key, time.perf_counter(), ids)
        for i in ids:
            pending[i] = entry

    def check(kind, key, resp):
        status = resp.get("status")
        if kind == "invalid":
            return status == "invalid" or "status %s" % status
        if status != "ok" or resp.get("correct") is not True:
            return "status %s: %s" % (status, resp.get("error", ""))
        got = resp.get("runtime_ticks")
        want = ticks.get(key) if not opts.input_seed else \
            seen.setdefault(key, got)
        return got == want or "runtime_ticks %s != %s" % (got, want)

    t0 = time.perf_counter()
    deadline = t0 + opts.seconds / PROCESSES
    window_t0 = t0
    to_send = cycle_len
    for _ in range(SERVE_OUTSTANDING):
        submit()
    while pending:
        resp = server.recv()
        now = time.perf_counter()
        if "id" not in resp or resp["id"] not in pending:
            raise BenchError("unexpected response: %s" % resp)
        kind, key, sent, ids = pending[resp["id"]]
        for i in ids:
            del pending[i]
        verdict = check(kind, key, resp)
        if verdict is not True:
            failures.append("%s %s: %s" % (kind, key, verdict))
        done.append((kind, key, (now - sent) * 1e3))
        if len(done) % cycle_len == 0:
            windows.append({"s": now - window_t0,
                            "rtt": [ms for _, _, ms in done[-cycle_len:]]})
            window_t0 = now
        # A new cycle starts only before the deadline; a started one is
        # sent to its end.
        if to_send == 0 and now < deadline:
            to_send = cycle_len
        if to_send > 0:
            submit()

    server.send('{"type": "stats"}')
    stats = server.recv()
    if stats.get("type") != "stats":
        raise BenchError("expected a stats reply, got %s" % stats)
    return {"done": done, "failures": failures, "windows": windows,
            "stats": stats, "rss_kb": server.peak_rss_kb(),
            "cpu_ms": server.worker_cpu_ms()}


# --------------------------------------------------------------------------
# Report
# --------------------------------------------------------------------------

def model_layers():
    rec = next(r for r in run_inproc(["--model"]) if r["kind"] == "model")
    if not rec["correct"]:
        raise BenchError("Fig. 12 model step: a configuration is incorrect")
    m = {}
    for key, paper in PAPER.items():
        m["model.%s_geomean" % key] = rec[key]
        m["model.%s_rel_err" % key] = abs(rec[key] - paper) / paper
    return m


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def report(opts, res):
    spec = load_spec()
    attempted, failed = res["attempted"], res["failed"]
    if opts.trace:
        wanted = spec["per_layer"]
        values = dict(res["layers"])
        values.update(model_layers())
    else:
        wanted = spec["end_to_end"]
        values = {k: res[k] for k in ("ops_per_s", "op_ms_p50", "op_ms_p90",
                                      "setup_s", "peak_rss_mb")}
        values["ok_frac"] = 1.0 - failed / attempted
    for f in res["failures"][:20]:
        log("FAILED " + f)
    print("workload %s  seed %d  attempted %d  failed %d  failed_frac %.6f"
          % (opts.workload, opts.seed, attempted, failed, failed / attempted))
    metrics = {}
    for m in wanted:
        name = m["name"]
        if name not in values:
            if not any(fnmatch.fnmatchcase(name, pattern)
                       for pattern in BYPASSED[opts.workload]):
                raise BenchError("no value for metric " + name)
            values[name] = 0.0
        v = float(values[name])
        metrics[name] = {"value": v, "unit": m["unit"]}
        print("  %-36s %16.6f %s" % (m["name"], v, m["unit"]))
    correct = failed == 0 and not res["failures"]
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def write_reference():
    recs = run_inproc(["--reference"], timeout=600)
    ref = {"cpu_spill": {}, "serve": []}
    for r in recs:
        if not r["correct"]:
            raise BenchError("reference run incorrect: %s" % r)
        if r["kind"] == "cpu_spill":
            ref["cpu_spill"][r["name"]] = {"events": r["events"],
                                           "sim_ticks": r["sim_ticks"]}
        else:
            ref["serve"].append({k: r[k] for k in (
                "workload", "mode", "l2_kib", "l3_kib", "runtime_ticks")})
    with open(REFERENCE, "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")
    log("wrote " + REFERENCE)
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="length of the timed window (default: "
                         "BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--input-seed", type=int, default=0,
                    help="held-out scenario input seed (default: the "
                         "registered seeds)")
    ap.add_argument("--write-reference", action="store_true")
    opts = ap.parse_args()
    global DEADLINE
    try:
        if opts.seconds is None:
            opts.seconds = load_spec()["run_seconds"]
        build()
        DEADLINE = time.monotonic() + RUN_LIMIT_S
        if opts.write_reference:
            return write_reference()
        if opts.workload is None:
            ap.error("--workload is required")
        if opts.workload == "serve_mix":
            res = serve_mix(opts)
        else:
            res = in_process(opts)
        return report(opts, res)
    except (BenchError, OSError, subprocess.SubprocessError,
            ValueError, KeyError, StopIteration) as e:
        log("perfbench: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
