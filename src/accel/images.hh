/**
 * @file
 * Soft-accelerator image factories — one per application benchmark of the
 * paper's Sec. V-D, plus the measurement accelerator (and its system
 * configuration) used by the Sec. V-C communication studies.
 *
 * Resource usage and Fmax are imported from the paper's Table II (the
 * Yosys/VTR/PRGA CAD flow is not available offline; see DESIGN.md). The
 * behavioural models implement the same interfaces, initiation intervals
 * and pipeline depths the paper describes.
 */

#ifndef DUET_ACCEL_IMAGES_HH
#define DUET_ACCEL_IMAGES_HH

#include <cstdint>
#include <memory>

#include "core/adapter.hh"
#include "mem/layout.hh"
#include "system/system.hh"

namespace duet::accel
{

// ---------------------------------------------------------------------
// Fixed-point helpers shared by accelerators and CPU baselines (identical
// arithmetic makes results bit-exact comparable).
// ---------------------------------------------------------------------

/** Q16.16 fixed-point tangent via 64-segment piecewise-linear table over
 *  [0, 0.75] rad; max error ~0.3% (the paper's Catapult HLS design). */
std::uint64_t pwlTangentQ16(std::uint64_t angle_q16);

/** Reference Q16.16 tangent from libm (CPU baseline functional result). */
std::uint64_t libmTangentQ16(std::uint64_t angle_q16);

/** The Barnes-Hut fixed-point pair-force kernel (shared by the CalcForce
 *  pipeline and the CPU baseline). Returns {fx, fy} contributions. */
struct FixVec
{
    std::int64_t x = 0;
    std::int64_t y = 0;
};
FixVec bhForce(std::int64_t px, std::int64_t py, std::int64_t qx,
               std::int64_t qy, std::int64_t qmass);

/** PDES gate-update value for an event (commutative accumulation). */
std::uint64_t pdesGateDelta(std::uint64_t time, std::uint64_t gate);

// ---------------------------------------------------------------------
// Image factories.
// ---------------------------------------------------------------------

/** The Dolly-P1M1 system (@p cores processors) of the Sec. V-C
 *  communication studies: one Memory Hub, no blocking-access watchdog,
 *  a 20x20-CLB fabric with 12 BRAM tiles. */
SystemConfig commConfig(SystemMode mode, unsigned cores = 1);

/** Where the comm image's eFPGA-pull command reports its timing. */
struct CommProbe
{
    LatencyTrace *trace = nullptr; ///< attached to accelerator loads
    Tick loadStart = 0;            ///< eFPGA-side load issue tick
    Tick loadEnd = 0;              ///< eFPGA-side load completion tick
};

/**
 * The Sec. V-C measurement accelerator (Figs. 9-11 and the ablations),
 * behind a pass-through memory port.
 *
 * Registers: 0 FPGA-bound cmd FIFO, 1 CPU-bound data FIFO,
 *            2/3 plain (src/dst buffer bases), 4 normal (doorbell),
 *            5 plain (quad-word count).
 *
 * Commands on reg 0 (high byte = opcode):
 *  - 0x01: echo the low 32 bits back on reg 1
 *  - 0x02: store `count` QW to the dst buffer (8 B stores), drain, then
 *          push done on reg 1 ("CPU pull" producer)
 *  - 0x03: load the line at the operand address (traced into
 *          @p probe), push done on reg 1 ("eFPGA pull")
 * Normal reg 4 read: pull count QW from src, push them back to dst, then
 * acknowledge (the Fig. 10 shared-memory round trip).
 */
AccelImage
commImage(std::shared_ptr<CommProbe> probe = std::make_shared<CommProbe>());

/** Tangent (P1M0): FPGA-bound arg FIFO -> PWL pipeline -> CPU-bound
 *  result FIFO. */
AccelImage tangentImage();

/** Popcount (P1M1): pops a 512-bit vector address, loads 4 lines through
 *  the Memory Hub, reduces, pushes the count. */
AccelImage popcountImage();

/** Streaming sort network (P1M2) for N in {32, 64, 128} 4-byte keys:
 *  hub 0 streams input, hub 1 streams output. */
AccelImage sortImage(unsigned n);

/** Dijkstra relaxation engine (P1M1) with a soft cache for adjacency
 *  reuse between consecutive invocations. */
AccelImage dijkstraImage();

/**
 * Barnes-Hut (P4M1): ApproxForce + CalcForce pipelines time-multiplexed
 * by up to 4 threads; force accumulation via hub atomics.
 *
 * @p spad is the BRAM-cache layout the pipelines run against (regions
 * "accum"/"pos" sized per particle, "node_cache"/"leaf_cache" per tree
 * node — see barnesHutSpadLayout()); the workload computes it from the
 * actual tree so the caches scale with the problem instead of capping it
 * at the seed era's 96 particles.
 */
AccelImage barnesHutImage(unsigned threads, const Layout &spad);

/** The Barnes-Hut BRAM-cache layout for @p particles / @p nodes (base 0
 *  = scratchpad offsets). Window floors keep the seed-era offsets
 *  (0/4096/8192/12288) for trees that fit them. */
Layout barnesHutSpadLayout(unsigned particles, unsigned nodes);

/** PDES hardware task scheduler widget (HA): scratchpad event queue,
 *  FPGA-bound insert/complete FIFOs, CPU-bound dispatch FIFO. */
AccelImage pdesSchedulerImage(unsigned cores, unsigned total_events);

/** BFS lock-free frontier queue widget (HA, M0): register-only. */
AccelImage bfsQueueImage(unsigned cores);

/** Sentinels used by the widget protocols. */
constexpr std::uint64_t kLevelSentinel = 0xFFFFFFFFull;
constexpr std::uint64_t kDoneSentinel = 0xFFFFFFFEull;

} // namespace duet::accel

#endif // DUET_ACCEL_IMAGES_HH
