/**
 * @file
 * `duet_sim --bench`: the tracked simulator-performance trajectory.
 *
 * Runs the fixed reference scenario set — every registered workload in
 * Fig. 12 order, crossed with the duet/cpu/fpsoc modes, at the
 * registered parameter defaults — in-process, one untimed warm-up and
 * then several timed repetitions each, and reports wall time
 * (min/mean over the timed reps), executed events and simulated ticks
 * per scenario, plus the derived events-per-second and
 * ticks-per-second rates, as one JSON document (schema
 * `duet-bench-sim/1`, conventionally written to BENCH_sim.json).
 *
 * The scenario set and the simulated work are deterministic, so the
 * events and ticks columns double as a regression guard: a rep that
 * executes a different event count than the warm-up of the same
 * scenario marks the row incorrect. Only the wall-time columns vary
 * with the host; comparing two reports from the same machine tracks
 * simulator-core performance across commits.
 */

#ifndef DUET_SIM_BENCH_HH
#define DUET_SIM_BENCH_HH

namespace duet
{

struct SimOptions; // sim/config.hh

/**
 * Run the reference benchmark set per @p opts (benchReps repetitions,
 * report to benchOut or stdout). @return a process exit code: 0 when
 * every scenario verified correct and deterministic, 1 otherwise.
 */
int runBenchMode(const SimOptions &opts);

} // namespace duet

#endif // DUET_SIM_BENCH_HH
