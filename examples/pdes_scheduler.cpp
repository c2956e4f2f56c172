/**
 * @file
 * Hardware-augmentation example: the eFPGA-emulated task scheduler of
 * paper Sec. III-B2 accelerating parallel discrete event simulation.
 * Sweeps the core count to show the software baseline's MCS-lock convoy
 * versus the widget's flat dispatch cost.
 */

#include <cstdio>

#include "workload/apps.hh"

using namespace duet;

int
main()
{
    std::printf("PDES with a hardware task scheduler (HA widget)\n");
    std::printf("-----------------------------------------------\n");
    std::printf("%6s %14s %14s %10s\n", "cores", "baseline (us)",
                "duet (us)", "speedup");
    bool all_correct = true;
    for (unsigned cores : {4u, 8u, 16u}) {
        AppResult cpu =
            runApp("pdes", SystemMode::CpuOnly, {.cores = cores});
        AppResult duet = runApp("pdes", SystemMode::Duet, {.cores = cores});
        all_correct &= cpu.correct && duet.correct;
        std::printf("%6u %14.1f %14.1f %9.1fx %s\n", cores,
                    cpu.runtime / 1e6, duet.runtime / 1e6,
                    double(cpu.runtime) / duet.runtime,
                    cpu.correct && duet.correct ? "" : "[INCORRECT]");
    }
    std::printf("\nThe baseline slows DOWN with more cores (lock convoy "
                "on the shared event\nqueue) while the widget's dispatch "
                "cost stays flat — the paper's motivation\nfor hardware "
                "augmentation.\n");
    return all_correct ? 0 : 1;
}
