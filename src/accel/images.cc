/**
 * @file
 * Behavioural models of the soft accelerators. Each factory returns an
 * AccelImage whose resources/Fmax come from the paper's Table II and whose
 * start() spawns coroutines in the eFPGA clock domain implementing the
 * accelerator's datapath with its initiation interval and pipeline depth.
 */

#include "accel/images.hh"

#include <bit>
#include <deque>
#include <vector>

namespace duet::accel
{

namespace
{

/** Issue @p n pipelined loads of 8 B and await them all (streaming read;
 *  the soft-cache/pass-through port issues one per eFPGA cycle, multiple
 *  outstanding). */
CoTask<void>
streamLoad(SoftCache &port, Addr base, unsigned n,
           std::vector<std::uint64_t> *out)
{
    // A deque, not a vector: the LoadOp awaitables are immovable (the
    // cache holds their addresses) and deque never relocates elements.
    std::deque<SoftCache::LoadOp> ops;
    for (unsigned i = 0; i < n; ++i)
        ops.emplace_back(port, base + 8ull * i, 8);
    for (SoftCache::LoadOp &op : ops) {
        std::uint64_t v = co_await op;
        if (out)
            out->push_back(v);
    }
}

/** Issue @p n pipelined 8 B stores and drain the write buffer. */
CoTask<void>
streamStore(SoftCache &port, Addr base, const std::vector<std::uint64_t> &v)
{
    for (std::size_t i = 0; i < v.size(); ++i)
        co_await port.store(base + 8ull * i, v[i], 8);
    co_await port.drainWrites();
}

} // namespace

// =====================================================================
// Measurement accelerator (Sec. V-C studies)
// =====================================================================

SystemConfig
commConfig(SystemMode mode, unsigned cores)
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

AccelImage
commImage(std::shared_ptr<CommProbe> probe)
{
    AccelImage img;
    img.name = "comm";
    img.resources = FabricResources{400, 600, 64 * 1024, 0};
    img.fmaxMHz = 100; // the studies sweep the clock afterwards
    img.regLayout.kinds = {RegKind::FpgaFifo, RegKind::CpuFifo,
                           RegKind::Plain,    RegKind::Plain,
                           RegKind::Normal,   RegKind::Plain};
    SoftCacheParams pass;
    pass.enabled = false;
    pass.mshrs = 8;
    pass.writeBufferEntries = 8;
    img.softCaches = {pass};
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

// =====================================================================
// Tangent (P1M0, fine-grained)
// =====================================================================

AccelImage
tangentImage()
{
    AccelImage img;
    img.name = "tangent";
    // Table II: 282 MHz, 0.84 CLB utilization, no BRAM.
    img.resources = FabricResources{840, 620, 4 * 1024, 2};
    img.fmaxMHz = 282;
    img.regLayout.kinds = {RegKind::FpgaFifo, RegKind::CpuFifo};
    img.start = [](FpgaContext &ctx) {
        spawn([](FpgaContext ctx) -> CoTask<void> {
            while (true) {
                std::uint64_t a = co_await ctx.regs.pop(0);
                // 3-stage PWL pipeline (segment select, BRAM read,
                // multiply-add); II = 1, modeled as its latency because
                // the CPU round-trip dominates anyway.
                co_await ClockDelay(ctx.clk, 3);
                ctx.regs.push(1, pwlTangentQ16(a));
            }
        }(ctx));
    };
    return img;
}

// =====================================================================
// Popcount (P1M1, fine-grained)
// =====================================================================

AccelImage
popcountImage()
{
    AccelImage img;
    img.name = "popcount";
    // Table II: 189 MHz, 0.83 CLB, 0.56 BRAM.
    img.resources = FabricResources{830, 900, 18 * 1024, 0};
    img.fmaxMHz = 189;
    img.regLayout.kinds = {RegKind::FpgaFifo, RegKind::CpuFifo};
    SoftCacheParams pass;
    pass.enabled = false;
    pass.mshrs = 8;
    img.softCaches = {pass};
    img.start = [](FpgaContext &ctx) {
        spawn([](FpgaContext ctx) -> CoTask<void> {
            while (true) {
                Addr a = co_await ctx.regs.pop(0);
                // Load the 512-bit vector (8 pipelined 8 B loads).
                std::vector<std::uint64_t> words;
                co_await streamLoad(*ctx.mem[0], a, 8, &words);
                std::uint64_t count = 0;
                for (std::uint64_t w : words)
                    count += static_cast<std::uint64_t>(std::popcount(w));
                // Adder-tree depth.
                co_await ClockDelay(ctx.clk, 2);
                ctx.regs.push(1, count);
            }
        }(ctx));
    };
    return img;
}

// =====================================================================
// Streaming sort network (P1M2, fine-grained)
// =====================================================================

AccelImage
sortImage(unsigned n)
{
    AccelImage img;
    img.name = "sort" + std::to_string(n);
    // Table II: 228/234/228 MHz; area grows with N.
    switch (n) {
      case 32:
        img.resources = FabricResources{1200, 2600, 96 * 1024, 0};
        img.fmaxMHz = 228;
        break;
      case 64:
        img.resources = FabricResources{1500, 3400, 152 * 1024, 0};
        img.fmaxMHz = 234;
        break;
      default: // 128
        img.resources = FabricResources{1900, 4200, 200 * 1024, 0};
        img.fmaxMHz = 228;
        break;
    }
    // regs: 0 = slice command (FPGA-bound), 1 = done (CPU-bound),
    //       2 = input base, 3 = output base, 4 = slice bytes.
    img.regLayout.kinds = {RegKind::FpgaFifo, RegKind::CpuFifo,
                           RegKind::Plain, RegKind::Plain, RegKind::Plain};
    SoftCacheParams pass;
    pass.enabled = false;
    pass.mshrs = 8;
    img.softCaches = {pass, pass}; // two memory hubs: read + write streams
    img.start = [n](FpgaContext &ctx) {
        spawn([](FpgaContext ctx, unsigned n) -> CoTask<void> {
            const unsigned depth =
                [](unsigned k) { // bitonic network depth: log(k)(log(k)+1)/2
                    unsigned lg = 0;
                    while ((1u << lg) < k)
                        ++lg;
                    return lg * (lg + 1) / 2;
                }(n);
            while (true) {
                std::uint64_t slice = co_await ctx.regs.pop(0);
                Addr in = ctx.regs.readPlain(2) + slice * 4ull * n;
                Addr out = ctx.regs.readPlain(3) + slice * 4ull * n;
                // Stream in: two 4 B keys per 8 B load, hub 0.
                std::vector<std::uint64_t> words;
                co_await streamLoad(*ctx.mem[0], in, n / 2, &words);
                std::vector<std::uint32_t> keys;
                keys.reserve(n);
                for (std::uint64_t w : words) {
                    keys.push_back(static_cast<std::uint32_t>(w));
                    keys.push_back(static_cast<std::uint32_t>(w >> 32));
                }
                std::sort(keys.begin(), keys.end());
                // The streaming network: one element per cycle + depth.
                co_await ClockDelay(ctx.clk, depth);
                std::vector<std::uint64_t> out_words(n / 2);
                for (unsigned i = 0; i < n / 2; ++i) {
                    out_words[i] = static_cast<std::uint64_t>(keys[2 * i]) |
                                   (static_cast<std::uint64_t>(
                                        keys[2 * i + 1])
                                    << 32);
                }
                // Stream out via hub 1 (8 B stores: the L2 store-port
                // limit the paper calls out in Sec. V-C).
                co_await streamStore(*ctx.mem[1], out, out_words);
                ctx.regs.push(1, slice);
            }
        }(ctx, n));
    };
    return img;
}

// =====================================================================
// Dijkstra relaxation engine (P1M1, fine-grained, soft cache)
// =====================================================================

AccelImage
dijkstraImage()
{
    AccelImage img;
    img.name = "dijkstra";
    // Table II: 127 MHz, 0.96 CLB, 0.31 BRAM.
    img.resources = FabricResources{960, 1100, 10 * 1024, 4};
    img.fmaxMHz = 127;
    // regs: 0 = (node | dist<<32) request, 1 = relaxation updates,
    //       2 = offsets base, 3 = edges base, 4 = dist base.
    img.regLayout.kinds = {RegKind::FpgaFifo, RegKind::CpuFifo,
                           RegKind::Plain, RegKind::Plain, RegKind::Plain};
    SoftCacheParams scp;
    scp.enabled = true;
    scp.sizeBytes = 4096;
    scp.ways = 2;
    scp.mshrs = 4;
    img.softCaches = {scp};
    img.start = [](FpgaContext &ctx) {
        spawn([](FpgaContext ctx) -> CoTask<void> {
            SoftCache &mem = *ctx.mem[0];
            while (true) {
                std::uint64_t req = co_await ctx.regs.pop(0);
                std::uint64_t u = req & 0xffffffffull;
                std::uint64_t du = req >> 32;
                Addr offs = ctx.regs.readPlain(2);
                Addr edges = ctx.regs.readPlain(3);
                Addr dist = ctx.regs.readPlain(4);
                std::uint64_t beg =
                    co_await mem.load(offs + 4 * u, 4);
                std::uint64_t end =
                    co_await mem.load(offs + 4 * (u + 1), 4);
                // The HLS pipeline streams the adjacency list and the
                // candidate distances with multiple loads in flight
                // (deque: the op awaitables must not relocate).
                std::deque<SoftCache::LoadOp> edge_ops;
                for (std::uint64_t e = beg; e < end; ++e)
                    edge_ops.emplace_back(mem, edges + 8 * e, 8);
                std::vector<std::uint64_t> vws;
                for (auto &f : edge_ops)
                    vws.push_back(co_await f);
                std::deque<SoftCache::LoadOp> dist_ops;
                for (std::uint64_t vw : vws)
                    dist_ops.emplace_back(
                        mem, dist + 8 * (vw & 0xffffffffull), 8);
                std::vector<std::uint64_t> dvs;
                for (auto &f : dist_ops)
                    dvs.push_back(co_await f);
                // Relax one edge per cycle; dedupe repeated targets so a
                // later (worse) candidate never overwrites a better one.
                std::unordered_map<std::uint64_t, std::uint64_t> best;
                for (std::size_t i = 0; i < vws.size(); ++i) {
                    co_await ClockDelay(ctx.clk, 1);
                    std::uint64_t v = vws[i] & 0xffffffffull;
                    std::uint64_t w = vws[i] >> 32;
                    std::uint64_t nd = du + w;
                    std::uint64_t cur = dvs[i];
                    auto it = best.find(v);
                    if (it != best.end())
                        cur = std::min(cur, it->second);
                    if (nd < cur)
                        best[v] = nd;
                }
                for (auto &[v, nd] : best) {
                    co_await mem.store(dist + 8 * v, nd, 8);
                    ctx.regs.push(1, v | (nd << 32));
                }
                co_await mem.drainWrites();
                ctx.regs.push(1, kLevelSentinel); // node finished
            }
        }(ctx));
    };
    return img;
}

// =====================================================================
// Barnes-Hut force pipelines (P4M1, fine-grained)
// =====================================================================

Layout
barnesHutSpadLayout(unsigned particles, unsigned nodes)
{
    LayoutBuilder b(0);
    b.region("accum", 16, particles, {.minWindowBytes = 4096});
    b.region("pos", 16, particles, {.minWindowBytes = 4096});
    b.region("node_cache", 24, nodes, {.minWindowBytes = 4096});
    b.region("leaf_cache", 40, nodes);
    return b.build();
}

AccelImage
barnesHutImage(unsigned threads, const Layout &spad)
{
    AccelImage img;
    img.name = "barnes-hut";
    // Table II: 85 MHz, 0.99 CLB, 0.05 BRAM — the largest accelerator.
    img.resources = FabricResources{2800, 3600, 4 * 1024, 24};
    img.fmaxMHz = 85;
    // regs: 0 = request FIFO (both engines), 1..threads = per-thread
    // completion token FIFOs, then 3 plain bases (particles, nodes, -).
    RegLayout layout;
    layout.kinds.push_back(RegKind::FpgaFifo);
    for (unsigned t = 0; t < threads; ++t)
        layout.kinds.push_back(RegKind::TokenFifo);
    layout.kinds.push_back(RegKind::Plain); // particles base
    layout.kinds.push_back(RegKind::Plain); // nodes base
    layout.fifoDepth = 32;
    img.regLayout = layout;
    SoftCacheParams scp;
    scp.enabled = true;
    scp.sizeBytes = 4096;
    scp.mshrs = 4;
    img.softCaches = {scp};
    // The shared BRAM caches: offsets from the computed scratchpad
    // layout (seed-era fixed offsets 0/4096/8192/12288 reappear whenever
    // the tree fits them).
    const std::size_t accum_base = spad.base("accum");
    const std::size_t pos_base = spad.base("pos");
    const std::size_t node_base = spad.base("node_cache");
    const std::size_t leaf_base = spad.base("leaf_cache");
    const std::size_t particles = spad.payloadBytes("accum") / 16;
    const std::size_t nodes = spad.payloadBytes("node_cache") / 24;
    img.start = [threads, accum_base, pos_base, node_base, leaf_base,
                 particles, nodes](FpgaContext &ctx) {
        // Request word: [0]=type (0 = CalcForce with a concrete particle,
        // 1 = ApproxForce with a tree node), [1..3]=thread,
        // [4..17]=target particle index, [18..41]=source index.
        // Two engines (the paper's ApproxForce and CalcForce pipelines)
        // pull from the shared request FIFO.
        struct BhState
        {
            std::vector<bool> pCached, nCached, lCached;
        };
        auto st = std::make_shared<BhState>();
        st->pCached.assign(particles, false);
        st->nCached.assign(nodes, false);
        st->lCached.assign(nodes, false);
        // BRAM cache offsets, passed by value: the engine coroutines
        // outlive this start() call, so they must not capture locals.
        struct SpadMap
        {
            std::size_t accum, pos, node, leaf;
        };
        const SpadMap sm{accum_base, pos_base, node_base, leaf_base};
        auto engine = [](FpgaContext ctx, SpadMap sm,
                         std::shared_ptr<BhState> st) -> CoTask<void> {
            SoftCache &mem = *ctx.mem[0];
            Scratchpad &sp = ctx.adapter.scratchpad();
            const std::size_t accum_base = sm.accum;
            const std::size_t kPosBase = sm.pos;
            const std::size_t kNodeCacheBase = sm.node;
            while (true) {
                std::uint64_t req = co_await ctx.regs.pop(0);
                unsigned type = req & 3;
                unsigned thread = (req >> 2) & 7;
                std::uint64_t p = (req >> 5) & 0x3fff;
                std::uint64_t src = (req >> 19) & 0xffffff;
                Addr particles = ctx.regs.readPlain(5);
                Addr nodes = ctx.regs.readPlain(6);
                Addr pa = particles + 32 * p;
                if (type == 2) {
                    // Flush: write the accumulated force to shared memory
                    // and make it globally visible before signaling.
                    co_await ClockDelay(ctx.clk, 1);
                    co_await mem.store(pa + 16,
                                       sp.read(accum_base + 16 * p), 8);
                    co_await mem.store(
                        pa + 24, sp.read(accum_base + 16 * p + 8), 8);
                    co_await mem.drainWrites();
                    ctx.regs.pushTokens(1 + thread, 1);
                    continue;
                }
                // Positions stream into BRAM once and stay there — the
                // pipelines then run near II=1 from local memory.
                auto cache_particle =
                    [&](std::uint64_t idx) -> CoTask<void> {
                    if (st->pCached[idx])
                        co_return;
                    Addr qa = particles + 32 * idx;
                    std::uint64_t x = co_await mem.load(qa, 8);
                    std::uint64_t y = co_await mem.load(qa + 8, 8);
                    sp.write(kPosBase + 16 * idx, x);
                    sp.write(kPosBase + 16 * idx + 8, y);
                    st->pCached[idx] = true;
                };
                co_await cache_particle(p);
                std::int64_t px = static_cast<std::int64_t>(
                    sp.read(kPosBase + 16 * p));
                std::int64_t py = static_cast<std::int64_t>(
                    sp.read(kPosBase + 16 * p + 8));
                if (type == 0) {
                    // CalcForce over a whole leaf: stream the leaf's
                    // particle list into BRAM once, then II=1 pair forces.
                    const std::size_t kLeafBase = sm.leaf;
                    Addr na = nodes + 96 * src;
                    if (!st->lCached[src]) {
                        std::uint64_t count =
                            co_await mem.load(na + 88, 8);
                        sp.write(kLeafBase + 40 * src, count);
                        for (std::uint64_t i = 0; i < count; ++i) {
                            std::uint64_t q =
                                co_await mem.load(na + 48 + 8 * i, 8);
                            sp.write(kLeafBase + 40 * src + 8 + 8 * i, q);
                            co_await cache_particle(q);
                        }
                        st->lCached[src] = true;
                    }
                    std::uint64_t count = sp.read(kLeafBase + 40 * src);
                    std::int64_t fx = 0, fy = 0;
                    for (std::uint64_t i = 0; i < count; ++i) {
                        std::uint64_t q =
                            sp.read(kLeafBase + 40 * src + 8 + 8 * i);
                        if (q == p)
                            continue;
                        auto qx2 = static_cast<std::int64_t>(
                            sp.read(kPosBase + 16 * q));
                        auto qy2 = static_cast<std::int64_t>(
                            sp.read(kPosBase + 16 * q + 8));
                        co_await ClockDelay(ctx.clk, 1); // II=1 pipeline
                        FixVec f = bhForce(px, py, qx2, qy2, 1);
                        fx += f.x;
                        fy += f.y;
                    }
                    sp.write(accum_base + 16 * p,
                             sp.read(accum_base + 16 * p) +
                                 static_cast<std::uint64_t>(fx));
                    sp.write(accum_base + 16 * p + 8,
                             sp.read(accum_base + 16 * p + 8) +
                                 static_cast<std::uint64_t>(fy));
                    ctx.regs.pushTokens(1 + thread, 1);
                    continue;
                }
                std::int64_t qx, qy, qm;
                {
                    if (!st->nCached[src]) {
                        Addr na = nodes + 96 * src;
                        std::uint64_t x = co_await mem.load(na + 24, 8);
                        std::uint64_t y = co_await mem.load(na + 32, 8);
                        std::uint64_t m = co_await mem.load(na + 40, 8);
                        sp.write(kNodeCacheBase + 24 * src, x);
                        sp.write(kNodeCacheBase + 24 * src + 8, y);
                        sp.write(kNodeCacheBase + 24 * src + 16, m);
                        st->nCached[src] = true;
                    }
                    qx = static_cast<std::int64_t>(
                        sp.read(kNodeCacheBase + 24 * src));
                    qy = static_cast<std::int64_t>(
                        sp.read(kNodeCacheBase + 24 * src + 8));
                    qm = static_cast<std::int64_t>(
                        sp.read(kNodeCacheBase + 24 * src + 16));
                }
                // Pipelined force evaluation from BRAM (II=1).
                co_await ClockDelay(ctx.clk, 1);
                FixVec f = bhForce(px, py, qx, qy, qm);
                sp.write(accum_base + 16 * p,
                         sp.read(accum_base + 16 * p) +
                             static_cast<std::uint64_t>(f.x));
                sp.write(accum_base + 16 * p + 8,
                         sp.read(accum_base + 16 * p + 8) +
                             static_cast<std::uint64_t>(f.y));
                ctx.regs.pushTokens(1 + thread, 1);
            }
        };
        spawn(engine(ctx, sm, st));
        spawn(engine(ctx, sm, st));
    };
    return img;
}

// =====================================================================
// PDES hardware task scheduler (P4/8/16 M1, hardware augmentation)
// =====================================================================

AccelImage
pdesSchedulerImage(unsigned cores, unsigned total_events)
{
    AccelImage img;
    img.name = "pdes";
    // Table II: 126 MHz, 0.47 CLB, 0.56 BRAM.
    img.resources = FabricResources{470, 800, 18 * 1024, 0};
    img.fmaxMHz = 126;
    // regs: 0 = insert/complete FIFO (FPGA-bound; completion markers are
    //       (1<<63)|tid words), 1..cores = per-core dispatch FIFOs.
    RegLayout layout;
    layout.kinds.assign(1 + cores, RegKind::CpuFifo);
    layout.kinds[0] = RegKind::FpgaFifo;
    layout.fifoDepth = 64;
    img.regLayout = layout;
    img.start = [cores, total_events](FpgaContext &ctx) {
        spawn([](FpgaContext ctx, unsigned cores,
                 unsigned total_events) -> CoTask<void> {
            // Binary min-heap of packed events in the scratchpad.
            Scratchpad &sp = ctx.adapter.scratchpad();
            unsigned heap_size = 0;
            auto heap_push = [&sp, &heap_size](std::uint64_t v) {
                unsigned i = heap_size++;
                sp.write(8 * i, v);
                while (i > 0) {
                    unsigned parent = (i - 1) / 2;
                    std::uint64_t pv = sp.read(8 * parent);
                    std::uint64_t cv = sp.read(8 * i);
                    if (pv <= cv)
                        break;
                    sp.write(8 * parent, cv);
                    sp.write(8 * i, pv);
                    i = parent;
                }
            };
            auto heap_pop = [&sp, &heap_size]() -> std::uint64_t {
                std::uint64_t top = sp.read(0);
                std::uint64_t last = sp.read(8 * (--heap_size));
                sp.write(0, last);
                unsigned i = 0;
                while (true) {
                    unsigned l = 2 * i + 1, r = 2 * i + 2, m = i;
                    if (l < heap_size && sp.read(8 * l) < sp.read(8 * m))
                        m = l;
                    if (r < heap_size && sp.read(8 * r) < sp.read(8 * m))
                        m = r;
                    if (m == i)
                        break;
                    std::uint64_t a = sp.read(8 * i), b = sp.read(8 * m);
                    sp.write(8 * i, b);
                    sp.write(8 * m, a);
                    i = m;
                }
                return top;
            };

            std::vector<bool> busy(cores, false), done(cores, false);
            unsigned issued = 0, done_sent = 0;
            while (done_sent < cores) {
                // Dispatch the earliest events to idle cores.
                for (unsigned t = 0; t < cores; ++t) {
                    if (busy[t] || done[t] || heap_size == 0 ||
                        issued >= total_events)
                        continue;
                    co_await ClockDelay(ctx.clk, 1); // pipelined heap pop
                    ctx.regs.push(1 + t, heap_pop());
                    busy[t] = true;
                    ++issued;
                }
                // Retire idle cores once every event has been issued.
                if (issued >= total_events) {
                    for (unsigned t = 0; t < cores; ++t) {
                        if (!busy[t] && !done[t]) {
                            ctx.regs.push(1 + t, kDoneSentinel);
                            done[t] = true;
                            ++done_sent;
                        }
                    }
                    if (done_sent >= cores)
                        co_return;
                }
                // Wait for an insert or a completion marker.
                std::uint64_t v = co_await ctx.regs.pop(0);
                co_await ClockDelay(ctx.clk, 1); // pipelined heap insert
                if (v >> 63) {
                    busy[v & 0xffff] = false;
                } else {
                    heap_push(v);
                }
            }
        }(ctx, cores, total_events));
    };
    return img;
}

// =====================================================================
// BFS lock-free frontier queues (P4/8/16 M0, hardware augmentation)
// =====================================================================

AccelImage
bfsQueueImage(unsigned cores)
{
    AccelImage img;
    img.name = "bfs";
    // Table II: 208 MHz, 0.61 CLB, 0.75 BRAM.
    img.resources = FabricResources{610, 700, 24 * 1024, 0};
    img.fmaxMHz = 208;
    // regs: 0 = discovered-node / level-vote FIFO (FPGA-bound; votes are
    //       kLevelSentinel words), 1..cores = per-core frontier FIFOs,
    //       1+cores = seed FIFO (FPGA-bound).
    RegLayout layout;
    layout.kinds.assign(2 + cores, RegKind::CpuFifo);
    layout.kinds[0] = RegKind::FpgaFifo;
    layout.kinds[1 + cores] = RegKind::FpgaFifo;
    layout.fifoDepth = 64;
    img.regLayout = layout;
    img.start = [cores](FpgaContext &ctx) {
        spawn([](FpgaContext ctx, unsigned cores) -> CoTask<void> {
            // Frontier storage in the scratchpad: current frontier in the
            // low half, next frontier in the high half.
            Scratchpad &sp = ctx.adapter.scratchpad();
            const std::size_t half = sp.size() / 2;
            unsigned cur_size = 0, next_size = 0;

            std::uint64_t seed = co_await ctx.regs.pop(1 + cores);
            sp.write(0, seed);
            cur_size = 1;

            while (true) {
                // Round-robin the current frontier over the per-core
                // queues, then one level sentinel per core.
                for (unsigned i = 0; i < cur_size; ++i) {
                    co_await ClockDelay(ctx.clk, 1);
                    ctx.regs.push(1 + (i % cores), sp.read(8 * i));
                }
                for (unsigned c = 0; c < cores; ++c)
                    ctx.regs.push(1 + c, kLevelSentinel);

                // Collect discoveries until every core voted level-done.
                // Per-core FIFO ordering guarantees all of a core's
                // pushes precede its vote.
                unsigned votes = 0;
                while (votes < cores) {
                    std::uint64_t v = co_await ctx.regs.pop(0);
                    co_await ClockDelay(ctx.clk, 1);
                    if (v == kLevelSentinel) {
                        ++votes;
                    } else {
                        sp.write(half + 8 * next_size, v);
                        ++next_size;
                    }
                }

                if (next_size == 0) {
                    for (unsigned c = 0; c < cores; ++c)
                        ctx.regs.push(1 + c, kDoneSentinel);
                    co_return;
                }
                // Swap frontiers (BRAM copy, pipelined).
                for (unsigned i = 0; i < next_size; ++i)
                    sp.write(8 * i, sp.read(half + 8 * i));
                co_await ClockDelay(ctx.clk, 1 + next_size / 8);
                cur_size = next_size;
                next_size = 0;
            }
        }(ctx, cores));
    };
    return img;
}

} // namespace duet::accel
