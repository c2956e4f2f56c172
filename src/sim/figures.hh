/**
 * @file
 * `duet_sim --figures DIR`: regenerates the paper's evaluation artifacts
 * at their fixed configurations in one run.
 *
 * Writes DIR/{fig9,fig10,fig11,fig12,table1,table2,ablation}.csv and
 * prints each table's text view with its paper-reference note:
 *  - fig9: CPU-eFPGA round-trip latency and its NoC / fast cache / slow
 *    cache / CDC breakdown, six mechanisms at 100/200/500 MHz eFPGA;
 *  - fig10: single-processor bandwidth vs eFPGA clock (20-500 MHz);
 *  - fig11: per-processor soft-register bandwidth vs 1-16 contending
 *    processors (eFPGA at 500 MHz);
 *  - fig12: allApps() x {cpu, fpsoc, duet} through the sweep runner,
 *    in the sweep CSV layout, with per-mode geomeans in the text view;
 *  - table1/table2: the area model's Table I and Table II;
 *  - ablation: proxy-cache MSHR count vs eFPGA-pull time, and
 *    synchronizer depth vs shadow-register round trip.
 *
 * Every artifact except fig12 is one table type rendered by one CSV
 * writer and one text writer. Every timed quantity carries its exact
 * simulated tick count next to the derived ns or MB/s.
 */

#ifndef DUET_SIM_FIGURES_HH
#define DUET_SIM_FIGURES_HH

namespace duet
{

struct SimOptions; // sim/config.hh

/**
 * Regenerate every artifact into opts.figuresDir (created if missing).
 * @return a process exit code: 0 when every Fig. 12 row verified
 *         correct and every file was written, 1 on an incorrect row or
 *         a simulation failure, 2 on an output failure
 */
int runFiguresMode(const SimOptions &opts);

} // namespace duet

#endif // DUET_SIM_FIGURES_HH
