#include "sim/config.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "sim/trace.hh"
#include "system/system.hh"

namespace duet
{
namespace
{

bool
parseU32(const std::string &s, unsigned &out)
{
    std::uint64_t v = 0;
    if (!parseDecimal(s, v) || v > 0xffffffffull)
        return false;
    out = static_cast<unsigned>(v);
    return true;
}

} // namespace

bool
parseDecimal(const std::string &s, std::uint64_t &out)
{
    // strtoull accepts leading whitespace and signs (wrapping negatives
    // modulo 2^64); only plain digit strings are valid flag values.
    if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos)
        return false;
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (errno != 0 || end == nullptr || *end != '\0')
        return false;
    out = v;
    return true;
}

const char *
simUsage()
{
    return
        "usage: duet_sim [options]\n"
        "\n"
        "Runs one Duet benchmark scenario, a whole cross-product of\n"
        "scenarios (--sweep), a long-lived scenario server (--serve)\n"
        "that schedules JSONL requests on the worker-process pool, the\n"
        "simulator's own performance benchmark (--bench), or every\n"
        "paper figure and table (--figures).\n"
        "\n"
        "scenario selection (with --sweep these take comma/range lists,\n"
        "e.g. `--cores 4,8` or `--cores 4:16:4`):\n"
        "  --workload NAME   bfs | dijkstra | sort | popcount | barnes_hut\n"
        "                    | pdes | tangent        (default: bfs)\n"
        "  --mode MODE       duet | cpu | fpsoc      (default: duet;\n"
        "                    --sweep also accepts `all`)\n"
        "  --cores N         worker threads (bfs/pdes; others are fixed)\n"
        "  --size N          problem size: graph nodes (bfs/dijkstra),\n"
        "                    particles (barnes_hut), vectors (popcount),\n"
        "                    calls (tangent), event chains (pdes), or the\n"
        "                    sort slice size 32|64|128\n"
        "  --sort-elems N    alias for --size (sort slice keys)\n"
        "  --seed N          input-generator RNG seed (workloads with\n"
        "                    random inputs; default: the paper's seeds)\n"
        "\n"
        "sweep mode:\n"
        "  --sweep           expand the cross-product of the selection\n"
        "                    lists and run every scenario; --l2-kib and\n"
        "                    --l3-kib also take lists here (cache ladders)\n"
        "  --preset NAME     axis shorthand; `cache-ladder` sweeps\n"
        "                    --l3-kib 64,256,1024,4096 unless an explicit\n"
        "                    L3 list is given\n"
        "  --jobs N          worker processes running scenarios in\n"
        "                    parallel (default: the hardware thread\n"
        "                    count); results are aggregated in scenario\n"
        "                    order, so outputs are byte-identical to -j1\n"
        "  --scenario-timeout-s N\n"
        "                    per-scenario wall-clock budget; a scenario\n"
        "                    past it is killed and recorded as a failed\n"
        "                    row (default: unlimited)\n"
        "  --csv PATH        write one CSV row per scenario (`-` = stdout)\n"
        "  --jsonl PATH      write one JSON object per scenario per line\n"
        "                    (file sinks write to PATH.tmp and rename at\n"
        "                    batch end)\n"
        "  --quiet           suppress the live progress line (progress\n"
        "                    only renders on an interactive stderr)\n"
        "\n"
        "serve mode:\n"
        "  --serve           read one JSONL scenario request per line\n"
        "                    from stdin, stream one JSONL response per\n"
        "                    request (tagged with the request id) as\n"
        "                    rows complete, exit on EOF/SIGTERM with an\n"
        "                    `N served / M failed` summary\n"
        "  --listen PATH     serve one connection on a unix socket at\n"
        "                    PATH instead of stdin/stdout\n"
        "                    (--jobs/--scenario-timeout-s apply; cache\n"
        "                    and clock flags set the base geometry that\n"
        "                    per-request overrides layer onto)\n"
        "\n"
        "bench mode:\n"
        "  --bench           run the fixed reference scenario set (every\n"
        "                    workload x duet/cpu/fpsoc at registered\n"
        "                    defaults) in-process and report wall time,\n"
        "                    events/sec and ticks/sec per scenario as one\n"
        "                    JSON document (schema duet-bench-sim/1)\n"
        "  --bench-reps N    timed repetitions per scenario, after one\n"
        "                    untimed warm-up; the report carries the min\n"
        "                    and mean wall time (default: 3)\n"
        "  --bench-out PATH  write the report to PATH (atomically, via\n"
        "                    PATH.tmp + rename; `-` = stdout, the default)\n"
        "\n"
        "derive mode:\n"
        "  --derive PATH     recompute the derived columns (speedup,\n"
        "                    area_mm2, adp_norm) from a previously\n"
        "                    written --jsonl file (`-` = stdin) without\n"
        "                    re-simulating; output via --csv/--jsonl or\n"
        "                    the default table\n"
        "\n"
        "figures mode:\n"
        "  --figures DIR     regenerate the paper's evaluation artifacts\n"
        "                    at their fixed configurations: writes\n"
        "                    DIR/{fig9,fig10,fig11,fig12,table1,table2,\n"
        "                    ablation}.csv (DIR is created if missing) and\n"
        "                    prints each table with its paper reference;\n"
        "                    takes no other flag except --paranoid\n"
        "\n"
        "system shape:\n"
        "  --l2-kib N        private (L2) cache capacity per tile, KiB\n"
        "                    (comma/range list with --sweep)\n"
        "  --l2-ways N       private cache associativity\n"
        "  --l3-kib N        L3 capacity per shard, KiB\n"
        "                    (comma/range list with --sweep)\n"
        "  --l3-ways N       L3 shard associativity\n"
        "  --spm-kib N       eFPGA scratchpad (BRAM) capacity, KiB; by\n"
        "                    default it is sized from the workload's\n"
        "                    computed memory layout\n"
        "  --cpu-mhz N       core clock, MHz\n"
        "  --fpga-mhz N      eFPGA clock before an image overrides it, MHz\n"
        "  --max-us N        simulated-time watchdog, microseconds\n"
        "\n"
        "output:\n"
        "  --json            dump scenario result + stats registry as JSON\n"
        "  --stats           dump the stats registry as text\n"
        "  --stats-filter G  restrict --json/--stats registry output to\n"
        "                    stat names matching shell glob G (`*`, `?`)\n"
        "  --list            list available workloads and exit\n"
        "  --help            this text\n"
        "\n"
        "observability (single-run and --bench only; attribution never\n"
        "changes simulated timing):\n"
        "  --trace PATH      record simulated-time events as Chrome\n"
        "                    trace_event JSON at PATH; open in Perfetto\n"
        "                    (ui.perfetto.dev) or chrome://tracing\n"
        "  --trace-filter L  comma list of categories to record:\n"
        "                    queue,noc,cache,ctrl,cdc,core (default: all)\n"
        "  --prof PATH       sample wall-clock cost per event-target\n"
        "                    component into a duet-prof/1 JSON table at\n"
        "                    PATH (`-` = stdout); diff two tables with\n"
        "                    tools/prof_diff.py\n"
        "  --latency-breakdown\n"
        "                    accumulate per-category transaction latency\n"
        "                    (lat_noc/lat_fast/lat_slow/lat_cdc tick\n"
        "                    totals, paper Fig. 9) and emit them in the\n"
        "                    --json stats and as extra --sweep JSONL keys\n"
        "\n"
        "debugging:\n"
        "  --paranoid        enable the DUET_DCHECK invariant layer\n"
        "                    (per-access bounds, coroutine state, event\n"
        "                    monotonicity); on by default in sanitizer\n"
        "                    builds (DUET_SANITIZE). Violations panic\n"
        "                    with the failed expression and location\n";
}

bool
parseSystemMode(const std::string &name, SystemMode &mode)
{
    if (name == "duet") {
        mode = SystemMode::Duet;
    } else if (name == "cpu" || name == "cpu-only" || name == "baseline") {
        mode = SystemMode::CpuOnly;
    } else if (name == "fpsoc") {
        mode = SystemMode::Fpsoc;
    } else {
        return false;
    }
    return true;
}

const char *
systemModeName(SystemMode mode)
{
    switch (mode) {
      case SystemMode::CpuOnly:
        return "cpu";
      case SystemMode::Duet:
        return "duet";
      case SystemMode::Fpsoc:
        return "fpsoc";
    }
    return "?";
}

ParseStatus
parseSimOptions(int argc, char **argv, SimOptions &opts, std::string &err)
{
    // Set by the dispatch branches below (one source of truth with the
    // flag names): --derive rejects both groups, since nothing is
    // simulated there and an ignored flag would mislead.
    bool selectionSeen = false;
    bool shapeSeen = false;
    std::string otherThanFigures; // the first flag --figures rejects
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag != "--figures" && flag != "--paranoid" &&
            otherThanFigures.empty())
            otherThanFigures = flag;
        auto value = [&](std::string &out) {
            if (i + 1 >= argc) {
                err = "missing value for " + flag;
                return false;
            }
            out = argv[++i];
            return true;
        };
        auto u32 = [&](unsigned &out) {
            std::string v;
            if (!value(v))
                return false;
            if (!parseU32(v, out)) {
                err = "bad value for " + flag + ": " + v;
                return false;
            }
            return true;
        };
        auto u64 = [&](std::uint64_t &out) {
            std::string v;
            if (!value(v))
                return false;
            if (!parseDecimal(v, out)) {
                err = "bad value for " + flag + ": " + v;
                return false;
            }
            return true;
        };

        if (flag == "--help" || flag == "-h") {
            opts.help = true;
            return ParseStatus::Exit;
        } else if (flag == "--list") {
            opts.list = true;
            return ParseStatus::Exit;
        } else if (flag == "--json") {
            opts.json = true;
        } else if (flag == "--stats") {
            opts.stats = true;
        } else if (flag == "--sweep") {
            opts.sweep = true;
        } else if (flag == "--serve") {
            opts.serve = true;
        } else if (flag == "--listen") {
            if (!value(opts.listenPath))
                return ParseStatus::Error;
            // An empty path would silently fall back to stdin/stdout
            // serving (and a zero-length sun_path means Linux autobind).
            if (opts.listenPath.empty()) {
                err = "--listen needs a non-empty socket PATH";
                return ParseStatus::Error;
            }
        } else if (flag == "--quiet") {
            opts.quiet = true;
        } else if (flag == "--paranoid") {
            opts.paranoid = true;
        } else if (flag == "--preset") {
            if (!value(opts.preset))
                return ParseStatus::Error;
            if (opts.preset != "cache-ladder") {
                err = "unknown --preset: " + opts.preset +
                      " (want cache-ladder)";
                return ParseStatus::Error;
            }
        } else if (flag == "--jobs") {
            if (!u32(opts.jobs))
                return ParseStatus::Error;
            if (opts.jobs == 0 || opts.jobs > 1024) {
                err = "--jobs must be in [1, 1024]";
                return ParseStatus::Error;
            }
        } else if (flag == "--scenario-timeout-s") {
            if (!u32(opts.scenarioTimeoutS))
                return ParseStatus::Error;
            if (opts.scenarioTimeoutS == 0 ||
                opts.scenarioTimeoutS > 86400) {
                err = "--scenario-timeout-s must be in [1, 86400]";
                return ParseStatus::Error;
            }
        } else if (flag == "--bench") {
            opts.bench = true;
        } else if (flag == "--bench-reps") {
            if (!u32(opts.benchReps))
                return ParseStatus::Error;
            if (opts.benchReps == 0 || opts.benchReps > 1000) {
                err = "--bench-reps must be in [1, 1000]";
                return ParseStatus::Error;
            }
        } else if (flag == "--bench-out") {
            if (!value(opts.benchOut))
                return ParseStatus::Error;
            if (opts.benchOut.empty()) {
                err = "--bench-out needs a non-empty PATH (`-` = stdout)";
                return ParseStatus::Error;
            }
        } else if (flag == "--derive") {
            if (!value(opts.derivePath))
                return ParseStatus::Error;
        } else if (flag == "--figures") {
            if (!value(opts.figuresDir))
                return ParseStatus::Error;
            if (opts.figuresDir.empty()) {
                err = "--figures needs a non-empty DIR";
                return ParseStatus::Error;
            }
        } else if (flag == "--trace") {
            if (!value(opts.tracePath))
                return ParseStatus::Error;
            if (opts.tracePath.empty()) {
                err = "--trace needs a non-empty PATH";
                return ParseStatus::Error;
            }
        } else if (flag == "--trace-filter") {
            if (!value(opts.traceFilter))
                return ParseStatus::Error;
        } else if (flag == "--prof") {
            if (!value(opts.profPath))
                return ParseStatus::Error;
            if (opts.profPath.empty()) {
                err = "--prof needs a non-empty PATH (`-` = stdout)";
                return ParseStatus::Error;
            }
        } else if (flag == "--stats-filter") {
            if (!value(opts.statsFilter))
                return ParseStatus::Error;
            if (opts.statsFilter.empty()) {
                err = "--stats-filter needs a non-empty glob";
                return ParseStatus::Error;
            }
        } else if (flag == "--latency-breakdown") {
            opts.latencyBreakdown = true;
        } else if (flag == "--workload") {
            selectionSeen = true;
            if (!value(opts.workload))
                return ParseStatus::Error;
        } else if (flag == "--mode") {
            selectionSeen = true;
            if (!value(opts.modeName))
                return ParseStatus::Error;
        } else if (flag == "--cores") {
            selectionSeen = true;
            if (!value(opts.coresSpec))
                return ParseStatus::Error;
        } else if (flag == "--size" || flag == "--sort-elems") {
            selectionSeen = true;
            if (!value(opts.sizeSpec))
                return ParseStatus::Error;
        } else if (flag == "--seed") {
            selectionSeen = true;
            if (!value(opts.seedSpec))
                return ParseStatus::Error;
        } else if (flag == "--csv") {
            if (!value(opts.csvPath))
                return ParseStatus::Error;
        } else if (flag == "--jsonl") {
            if (!value(opts.jsonlPath))
                return ParseStatus::Error;
        } else if (flag == "--l2-kib") {
            // Raw spec: a list under --sweep (cache-ladder axis), a
            // scalar otherwise — disambiguated after the flag loop.
            shapeSeen = true;
            if (!value(opts.l2Spec))
                return ParseStatus::Error;
        } else if (flag == "--l2-ways") {
            shapeSeen = true;
            if (!u32(opts.l2Ways))
                return ParseStatus::Error;
        } else if (flag == "--l3-kib") {
            shapeSeen = true;
            if (!value(opts.l3Spec))
                return ParseStatus::Error;
        } else if (flag == "--l3-ways") {
            shapeSeen = true;
            if (!u32(opts.l3Ways))
                return ParseStatus::Error;
        } else if (flag == "--spm-kib") {
            shapeSeen = true;
            if (!u32(opts.spmKiB))
                return ParseStatus::Error;
            if (opts.spmKiB == 0 || opts.spmKiB > kMaxCacheKiB) {
                err = "--spm-kib must be in [1, 1048576]";
                return ParseStatus::Error;
            }
        } else if (flag == "--cpu-mhz") {
            shapeSeen = true;
            if (!u64(opts.cpuFreqMhz))
                return ParseStatus::Error;
        } else if (flag == "--fpga-mhz") {
            shapeSeen = true;
            if (!u64(opts.fpgaFreqMhz))
                return ParseStatus::Error;
        } else if (flag == "--max-us") {
            shapeSeen = true;
            if (!u64(opts.maxTicksUs))
                return ParseStatus::Error;
            if (opts.maxTicksUs > ~0ull / kTicksPerUs) {
                err = "--max-us too large";
                return ParseStatus::Error;
            }
        } else {
            err = "unknown flag: " + flag;
            return ParseStatus::Error;
        }
    }

    if (!opts.figuresDir.empty()) {
        // The artifacts are the paper's fixed configurations: a mode,
        // selection, shape or output flag would silently change what a
        // figure means.
        if (!otherThanFigures.empty()) {
            err = "--figures takes no other flag except --paranoid (got " +
                  otherThanFigures + ")";
            return ParseStatus::Error;
        }
        return ParseStatus::Ok;
    }
    if (!opts.derivePath.empty() && opts.sweep) {
        err = "--derive and --sweep are mutually exclusive";
        return ParseStatus::Error;
    }
    if (opts.bench) {
        // The bench measures the fixed reference scenario set so the
        // BENCH_sim.json trajectory stays comparable commit to commit; a
        // selection or shape flag would silently change what the numbers
        // mean.
        if (opts.sweep || opts.serve || !opts.derivePath.empty()) {
            err = "--bench is exclusive with --sweep/--serve/--derive";
            return ParseStatus::Error;
        }
        if (selectionSeen || shapeSeen) {
            err = "--bench runs the fixed reference scenario set; "
                  "selection and shape flags do not apply";
            return ParseStatus::Error;
        }
        if (opts.json || opts.stats || !opts.csvPath.empty() ||
            !opts.jsonlPath.empty()) {
            err = "--bench writes its own JSON report; use --bench-out";
            return ParseStatus::Error;
        }
    }
    if ((opts.benchReps != 0 || !opts.benchOut.empty()) && !opts.bench) {
        err = "--bench-reps/--bench-out require --bench";
        return ParseStatus::Error;
    }
    if (opts.serve) {
        // The server takes scenarios off the request stream; a CLI
        // selection flag would be dead weight at best, misleading at
        // worst. Shape flags stay: they set the base geometry every
        // request layers its overrides onto.
        if (opts.sweep || !opts.derivePath.empty()) {
            err = "--serve is exclusive with --sweep/--derive";
            return ParseStatus::Error;
        }
        if (selectionSeen) {
            err = "scenario-selection flags do not apply to --serve "
                  "(send them per request)";
            return ParseStatus::Error;
        }
        if (opts.json || opts.stats) {
            err = "--json/--stats are single-run flags; --serve always "
                  "streams JSONL responses";
            return ParseStatus::Error;
        }
        if (!opts.csvPath.empty() || !opts.jsonlPath.empty()) {
            err = "--csv/--jsonl do not apply to --serve (responses "
                  "stream to stdout; pipe them through --derive)";
            return ParseStatus::Error;
        }
    }
    if (!opts.listenPath.empty() && !opts.serve) {
        err = "--listen requires --serve";
        return ParseStatus::Error;
    }
    if ((opts.jobs != 0 || opts.scenarioTimeoutS != 0) && !opts.sweep &&
        !opts.serve) {
        err = "--jobs/--scenario-timeout-s require --sweep or --serve";
        return ParseStatus::Error;
    }
    if (!opts.preset.empty() && !opts.sweep) {
        err = "--preset requires --sweep";
        return ParseStatus::Error;
    }
    if (opts.quiet && !opts.sweep) {
        // Progress is a sweep feature; accepting the flag elsewhere
        // would suggest it muted something.
        err = "--quiet requires --sweep";
        return ParseStatus::Error;
    }
    if (opts.preset == "cache-ladder" && opts.l3Spec.empty()) {
        // The default L3 shard is 64 KiB: the ladder climbs from there
        // past the >L3 working sets the computed layouts unlocked. An
        // explicit --l3-kib list wins over the preset.
        opts.l3Spec = "64,256,1024,4096";
    }
    if (!opts.derivePath.empty()) {
        if (selectionSeen) {
            // Nothing is simulated in derive mode; silently ignoring a
            // selection flag would suggest it filtered the input rows.
            err = "scenario-selection flags do not apply to --derive";
            return ParseStatus::Error;
        }
        if (shapeSeen) {
            // Same hazard: a cache/clock flag cannot change metrics
            // that were already measured.
            err = "system-shape flags do not apply to --derive";
            return ParseStatus::Error;
        }
        if (opts.json || opts.stats) {
            err = "--json/--stats are single-run flags; with --derive "
                  "use --csv or --jsonl";
            return ParseStatus::Error;
        }
    }
    // Observability: the trace sink and profiler are in-process
    // instruments; the sweep/serve workers simulate in forked processes
    // where an installed sink would record nothing. Single runs and the
    // in-process --bench are the meaningful hosts.
    if (!opts.tracePath.empty() || !opts.profPath.empty()) {
        if (opts.sweep || opts.serve || !opts.derivePath.empty()) {
            err = "--trace/--prof apply to single runs and --bench only "
                  "(sweep/serve simulate in worker processes)";
            return ParseStatus::Error;
        }
    }
    if (!opts.traceFilter.empty() && opts.tracePath.empty()) {
        err = "--trace-filter requires --trace";
        return ParseStatus::Error;
    }
    if (!opts.traceFilter.empty()) {
        std::uint32_t mask = 0;
        std::string ferr;
        if (!TraceSink::parseFilter(opts.traceFilter, mask, ferr)) {
            err = ferr;
            return ParseStatus::Error;
        }
    }
    if (!opts.statsFilter.empty() && !opts.json && !opts.stats) {
        err = "--stats-filter requires --json or --stats";
        return ParseStatus::Error;
    }
    if (opts.latencyBreakdown &&
        (opts.serve || opts.bench || !opts.derivePath.empty())) {
        err = "--latency-breakdown applies to single runs and --sweep";
        return ParseStatus::Error;
    }
    if ((!opts.csvPath.empty() || !opts.jsonlPath.empty()) &&
        !opts.sweep && opts.derivePath.empty()) {
        err = "--csv/--jsonl require --sweep or --derive";
        return ParseStatus::Error;
    }
    if (!opts.csvPath.empty() && opts.csvPath == opts.jsonlPath) {
        // Two independent ofstreams on one path would truncate and
        // interleave writes, corrupting the file.
        err = "--csv and --jsonl must name different outputs";
        return ParseStatus::Error;
    }
    if (opts.sweep && (opts.json || opts.stats)) {
        // Silently printing the text table would break a scripted
        // consumer expecting JSON.
        err = "--json/--stats are single-run flags; with --sweep use "
              "--csv or --jsonl";
        return ParseStatus::Error;
    }

    // Without --sweep, --l2-kib/--l3-kib must be single values too
    // (lists are a cache-ladder sweep feature); the scalars land in
    // l2KiB/l3KiB for applySimOverrides with the original bounds.
    if (!opts.sweep) {
        auto cacheScalar = [&err](const char *flag,
                                  const std::string &spec, unsigned &out) {
            if (spec.empty())
                return true;
            if (!parseU32(spec, out)) {
                err = std::string("bad value for ") + flag + ": " + spec +
                      " (lists need --sweep)";
                return false;
            }
            if (out > kMaxCacheKiB) {
                err = std::string(flag) + " too large (max " +
                      std::to_string(kMaxCacheKiB) + ")";
                return false;
            }
            return true;
        };
        if (!cacheScalar("--l2-kib", opts.l2Spec, opts.l2KiB))
            return ParseStatus::Error;
        if (!cacheScalar("--l3-kib", opts.l3Spec, opts.l3KiB))
            return ParseStatus::Error;
    }

    // Without --sweep the scenario-selection flags must be single values
    // (lists are a sweep feature; a stray comma should not silently fall
    // back to anything). Derive mode simulates nothing, so it skips
    // scenario validation entirely.
    if (!opts.sweep && !opts.serve && opts.derivePath.empty()) {
        SystemMode m;
        if (!parseSystemMode(opts.modeName, m)) {
            err = "unknown --mode: " + opts.modeName +
                  " (want duet|cpu|fpsoc)";
            return ParseStatus::Error;
        }
        auto scalar = [&err](const char *flag, const std::string &spec,
                             std::uint64_t &out) {
            if (spec.empty())
                return true;
            if (!parseDecimal(spec, out)) {
                err = std::string("bad value for ") + flag + ": " + spec +
                      " (lists need --sweep)";
                return false;
            }
            return true;
        };
        std::uint64_t v = 0;
        if (!scalar("--cores", opts.coresSpec, v))
            return ParseStatus::Error;
        if (!opts.coresSpec.empty()) {
            if (v == 0 || v > 0xffffffffull) {
                err = "--cores must be a positive 32-bit value";
                return ParseStatus::Error;
            }
            opts.cores = static_cast<unsigned>(v);
        }
        v = 0;
        if (!scalar("--size", opts.sizeSpec, v))
            return ParseStatus::Error;
        if (!opts.sizeSpec.empty()) {
            if (v == 0 || v > 0xffffffffull) {
                err = "--size must be a positive 32-bit value";
                return ParseStatus::Error;
            }
            opts.size = static_cast<unsigned>(v);
        }
        if (!scalar("--seed", opts.seedSpec, opts.seed))
            return ParseStatus::Error;
        if (!opts.seedSpec.empty() && opts.seed == 0) {
            // 0 is the "workload default" sentinel in WorkloadParams;
            // accepting it would silently substitute the default seed.
            err = "--seed must be positive (0 selects the workload "
                  "default seed)";
            return ParseStatus::Error;
        }
    }
    return ParseStatus::Ok;
}

void
applySimOverrides(const SimOptions &opts, SystemConfig &cfg)
{
    if (opts.l2KiB)
        cfg.l2.sizeBytes = opts.l2KiB * 1024; // bounded at parse time
    if (opts.l2Ways)
        cfg.l2.ways = opts.l2Ways;
    if (opts.l3KiB)
        cfg.l3.sizeBytes = opts.l3KiB * 1024;
    if (opts.l3Ways)
        cfg.l3.ways = opts.l3Ways;
    if (opts.spmKiB) {
        // Pin the capacity: workload layouts no longer grow it, so a
        // too-small value surfaces as a scratchpad OOB diagnostic.
        cfg.scratchpadBytes = std::size_t{opts.spmKiB} * 1024;
        cfg.scratchpadAuto = false;
    }
    if (opts.cpuFreqMhz)
        cfg.cpuFreqMhz = opts.cpuFreqMhz;
    if (opts.fpgaFreqMhz)
        cfg.fpgaFreqMhz = opts.fpgaFreqMhz;
    if (opts.maxTicksUs)
        cfg.maxTicks = opts.maxTicksUs * kTicksPerUs;
    if (opts.latencyBreakdown)
        cfg.latencyBreakdown = true;
}

bool
publishOutput(const std::string &path,
              const std::function<void(std::ostream &)> &write)
{
    if (path == "-") {
        write(std::cout);
        return true;
    }
    const std::string tmp = path + ".tmp";
    std::ofstream file(tmp, std::ios::trunc);
    if (!file) {
        std::cerr << "duet_sim: cannot open " << tmp << " for writing\n";
        return false;
    }
    write(file);
    file.close(); // flushes; a failed flush sets failbit
    if (!file) {
        std::cerr << "duet_sim: writing " << tmp << " failed\n";
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::cerr << "duet_sim: cannot rename " << tmp << " to " << path
                  << "\n";
        return false;
    }
    return true;
}

} // namespace duet
