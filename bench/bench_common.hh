/**
 * @file
 * Shared helpers for the Sec. V-C communication benches (Fig. 9/10/11):
 * a single-purpose measurement accelerator and system construction.
 */

#ifndef DUET_BENCH_COMMON_HH
#define DUET_BENCH_COMMON_HH

#include <cstdio>
#include <deque>
#include <memory>

#include "accel/images.hh"
#include "system/system.hh"

namespace duet::bench
{

/** P1M1 system with a given mode and default app-style knobs. */
inline SystemConfig
commConfig(SystemMode mode, unsigned cores = 1)
{
    SystemConfig cfg;
    cfg.numCores = cores;
    cfg.numMemHubs = 1;
    cfg.mode = mode;
    cfg.ctrl.timeoutCycles = 0;
    cfg.fabric.clbColumns = 20;
    cfg.fabric.clbRows = 20;
    cfg.fabric.bramTiles = 12;
    return cfg;
}

/**
 * The Sec. V-C measurement accelerator.
 *
 * Registers: 0 FPGA-bound cmd FIFO, 1 CPU-bound data FIFO,
 *            2/3 plain (src/dst buffer bases), 4 normal (doorbell),
 *            5 plain (quad-word count).
 *
 * Commands on reg 0 (high byte = opcode):
 *  - 0x01: echo the low 32 bits back on reg 1
 *  - 0x02: store `count` QW to the dst buffer (8 B stores), drain, then
 *          push done on reg 1 ("CPU pull" producer)
 *  - 0x03: load the line at the operand address (traced via the global
 *          pointers), push done on reg 1 ("eFPGA pull")
 * Normal reg 4 read: pull count QW from src, push them back to dst, then
 * acknowledge (the Fig. 10 shared-memory round trip).
 */
struct CommProbe
{
    LatencyTrace *trace = nullptr; ///< attached to accelerator loads
    Tick loadStart = 0;            ///< eFPGA-side load issue tick
    Tick loadEnd = 0;              ///< eFPGA-side load completion tick
};

inline AccelImage
commImage(bool with_soft_cache, std::shared_ptr<CommProbe> probe)
{
    AccelImage img;
    img.name = "comm";
    img.resources = FabricResources{400, 600, 64 * 1024, 0};
    img.fmaxMHz = 100;
    img.regLayout.kinds = {RegKind::FpgaFifo, RegKind::CpuFifo,
                           RegKind::Plain,    RegKind::Plain,
                           RegKind::Normal,   RegKind::Plain};
    SoftCacheParams scp;
    scp.enabled = with_soft_cache;
    scp.mshrs = 8;
    scp.writeBufferEntries = 8;
    img.softCaches = {scp};
    img.start = [probe](FpgaContext &ctx) {
        spawn([](FpgaContext ctx,
                 std::shared_ptr<CommProbe> probe) -> CoTask<void> {
            EventQueue &eq = ctx.clk.eventQueue();
            while (true) {
                std::uint64_t cmd = co_await ctx.regs.pop(0);
                unsigned op = static_cast<unsigned>(cmd >> 56);
                std::uint64_t arg = cmd & 0x00ffffffffffffffull;
                switch (op) {
                  case 0x01:
                    ctx.regs.push(1, arg);
                    break;
                  case 0x02: {
                    Addr dst = ctx.regs.readPlain(3);
                    std::uint64_t n = ctx.regs.readPlain(5);
                    for (std::uint64_t i = 0; i < n; ++i)
                        co_await ctx.mem[0]->store(dst + 8 * i, i + 1, 8);
                    co_await ctx.mem[0]->drainWrites();
                    ctx.regs.push(1, 1);
                    break;
                  }
                  case 0x03: {
                    probe->loadStart = eq.now();
                    co_await ctx.mem[0]->load(arg, 8, probe->trace);
                    probe->loadEnd = eq.now();
                    ctx.regs.push(1, 1);
                    break;
                  }
                  default:
                    break;
                }
            }
        }(ctx, probe));
        // Doorbell: the Fig. 10 "eFPGA pull + store back" round trip.
        ctx.regs.setReadHandler(
            4, [ctx](FpgaRegFile::ReadReply done) {
                spawn([](FpgaContext ctx,
                         FpgaRegFile::ReadReply done) -> CoTask<void> {
                    Addr src = ctx.regs.readPlain(2);
                    Addr dst = ctx.regs.readPlain(3);
                    std::uint64_t n = ctx.regs.readPlain(5);
                    // Pull at line granularity: the eFPGA loads up to one
                    // 16 B line per cycle (paper Sec. V-C).
                    std::deque<SoftCache::LoadOp> loads;
                    for (std::uint64_t i = 0; i < n / 2; ++i)
                        loads.emplace_back(*ctx.mem[0],
                                           src + kLineBytes * i, 8);
                    std::vector<std::uint64_t> data;
                    for (auto &f : loads)
                        data.push_back(co_await f);
                    // Store back: the L2 store port takes at most 8 B, so
                    // two stores per line (the paper's bottleneck).
                    for (std::uint64_t i = 0; i < n; ++i) {
                        ctx.spad.write((8 * i) % ctx.spad.size(),
                                       data[i / 2]);
                        co_await ctx.mem[0]->store(dst + 8 * i,
                                                   data[i / 2], 8);
                    }
                    co_await ctx.mem[0]->drainWrites();
                    done(n);
                }(ctx, std::move(done)));
            });
    };
    return img;
}

} // namespace duet::bench

#endif // DUET_BENCH_COMMON_HH
