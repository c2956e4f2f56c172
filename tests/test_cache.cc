/**
 * @file
 * Unit, integration and property tests for the MESI cache hierarchy:
 * private caches, L3 shards with blocking directory, atomics, evictions,
 * races, and multi-core coherence invariants.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <set>
#include <vector>

#include "cache/l1_cache.hh"
#include "cache/l3_shard.hh"
#include "cache/private_cache.hh"
#include "mem/page_table.hh"
#include "noc/mesh.hh"
#include "sim/stats.hh"
#include "sim/task.hh"

namespace duet
{
namespace
{

/** A miniature coherent system: one L2 + one L3 shard per mesh tile. */
struct CacheSystem
{
    EventQueue eq;
    ClockDomain clk{eq, "sys", 1000};
    FunctionalMemory mem;
    Mesh mesh;
    std::vector<std::unique_ptr<PrivateCache>> l2;
    std::vector<std::unique_ptr<L3Shard>> l3;

    explicit CacheSystem(unsigned tiles,
                         PrivateCacheParams l2p = PrivateCacheParams{},
                         L3ShardParams l3p = L3ShardParams{})
        : mesh(clk, MeshConfig{tiles, 1})
    {
        auto home = [tiles](Addr la) {
            return NodeId{static_cast<std::uint16_t>(lineNumber(la) % tiles),
                          TilePort::L3};
        };
        for (unsigned t = 0; t < tiles; ++t) {
            auto id16 = static_cast<std::uint16_t>(t);
            l2.push_back(std::make_unique<PrivateCache>(
                clk, "l2." + std::to_string(t), l2p, mem,
                NodeId{id16, TilePort::L2}, home,
                LatencyTrace::Cat::FastCache));
            l3.push_back(std::make_unique<L3Shard>(
                clk, "l3." + std::to_string(t), l3p, mem,
                NodeId{id16, TilePort::L3}));
            l2.back()->setSendFn([this](Message m) { mesh.inject(m); });
            l3.back()->setSendFn([this](Message m) { mesh.inject(m); });
            mesh.registerEndpoint({id16, TilePort::L2},
                                  [this, t](const Message &m) {
                                      l2[t]->receive(m);
                                  });
            mesh.registerEndpoint({id16, TilePort::L3},
                                  [this, t](const Message &m) {
                                      l3[t]->receive(m);
                                  });
        }
    }

    /** Blocking load helper: runs the queue until completion. */
    std::uint64_t
    load(unsigned tile, Addr a, unsigned size = 8)
    {
        std::uint64_t result = 0;
        bool done = false;
        CacheReq r;
        r.kind = CacheReq::Kind::Load;
        r.addr = a;
        r.size = size;
        r.done = [&](std::uint64_t v) {
            result = v;
            done = true;
        };
        l2[tile]->request(std::move(r));
        eq.run();
        EXPECT_TRUE(done);
        return result;
    }

    void
    store(unsigned tile, Addr a, std::uint64_t v, unsigned size = 8)
    {
        bool done = false;
        CacheReq r;
        r.kind = CacheReq::Kind::Store;
        r.addr = a;
        r.size = size;
        r.wdata = v;
        r.done = [&](std::uint64_t) { done = true; };
        l2[tile]->request(std::move(r));
        eq.run();
        EXPECT_TRUE(done);
    }

    std::uint64_t
    amo(unsigned tile, AmoOp op, Addr a, std::uint64_t operand,
        std::uint64_t operand2 = 0, unsigned size = 8)
    {
        std::uint64_t result = 0;
        bool done = false;
        CacheReq r;
        r.kind = CacheReq::Kind::Amo;
        r.amoOp = op;
        r.addr = a;
        r.size = size;
        r.wdata = operand;
        r.wdata2 = operand2;
        r.done = [&](std::uint64_t v) {
            result = v;
            done = true;
        };
        l2[tile]->request(std::move(r));
        eq.run();
        EXPECT_TRUE(done);
        return result;
    }

    L3Shard &homeOf(Addr a) { return *l3[lineNumber(a) % l3.size()]; }
};

TEST(FunctionalMemory, ReadWriteRoundtrip)
{
    FunctionalMemory mem;
    EXPECT_EQ(mem.read(0x1000, 8), 0u);
    mem.write(0x1000, 8, 0xdeadbeefcafef00dull);
    EXPECT_EQ(mem.read(0x1000, 8), 0xdeadbeefcafef00dull);
    EXPECT_EQ(mem.read(0x1000, 4), 0xcafef00dull);
    mem.write(0x1004, 2, 0x1234);
    EXPECT_EQ(mem.read(0x1004, 2), 0x1234u);
}

TEST(FunctionalMemory, BulkCopyAcrossPages)
{
    FunctionalMemory mem;
    std::vector<std::uint8_t> in(10000), out(10000);
    for (std::size_t i = 0; i < in.size(); ++i)
        in[i] = static_cast<std::uint8_t>(i * 7);
    mem.writeBytes(4000, in.data(), in.size()); // spans 3+ pages
    mem.readBytes(4000, out.data(), out.size());
    EXPECT_EQ(in, out);
}

TEST(FunctionalMemory, AmoSemantics)
{
    FunctionalMemory mem;
    mem.write(0x100, 8, 10);
    EXPECT_EQ(mem.amo(AmoOp::Add, 0x100, 8, 5), 10u);
    EXPECT_EQ(mem.read(0x100, 8), 15u);
    EXPECT_EQ(mem.amo(AmoOp::Swap, 0x100, 8, 99), 15u);
    EXPECT_EQ(mem.read(0x100, 8), 99u);
    // CAS failure leaves memory intact and returns old.
    EXPECT_EQ(mem.amo(AmoOp::Cas, 0x100, 8, 1, 42), 99u);
    EXPECT_EQ(mem.read(0x100, 8), 99u);
    // CAS success.
    EXPECT_EQ(mem.amo(AmoOp::Cas, 0x100, 8, 99, 42), 99u);
    EXPECT_EQ(mem.read(0x100, 8), 42u);
    EXPECT_EQ(mem.amo(AmoOp::Max, 0x100, 8, 100), 42u);
    EXPECT_EQ(mem.read(0x100, 8), 100u);
}

TEST(FunctionalMemory, ReadMatchesAByteWiseLittleEndianReference)
{
    // For every (offset, size) checkAccess accepts, read() must equal
    // the bytes assembled little-endian one by one, on pages present
    // and absent, with consecutive reads hopping across more pages than
    // the one-entry MRU page cache holds.
    constexpr Addr kBase = 0x40000;
    constexpr unsigned kPages = 5; // pages 0, 2, 4 written; 1, 3 absent
    FunctionalMemory mem;
    std::vector<std::uint8_t> bytes(kPages * kPageBytes, 0);
    std::mt19937_64 rng(4096);
    for (unsigned pg = 0; pg < kPages; pg += 2) {
        for (unsigned i = 0; i < kPageBytes; ++i)
            bytes[pg * kPageBytes + i] = static_cast<std::uint8_t>(rng());
        mem.writeBytes(kBase + pg * kPageBytes, &bytes[pg * kPageBytes],
                       kPageBytes);
    }
    auto accepted = [](Addr off, unsigned size) {
        return (off & (size - 1)) == 0 && off + size <= kPageBytes;
    };
    std::uint64_t reads = 0;
    for (unsigned size = 1; size <= 8; ++size) {
        for (Addr off = 0; off < kPageBytes; ++off) {
            if (!accepted(off, size)) {
                if (off < 16) {
                    EXPECT_THROW(mem.read(kBase + off, size), SimPanic);
                }
                continue;
            }
            for (unsigned pg = 0; pg < kPages; ++pg) {
                const std::size_t at = pg * kPageBytes + off;
                std::uint64_t ref = 0;
                for (unsigned b = 0; b < size; ++b)
                    ref |= std::uint64_t{bytes[at + b]} << (8 * b);
                ASSERT_EQ(mem.read(kBase + at, size), ref)
                    << "page " << pg << " offset " << off << " size "
                    << size;
                ++reads;
            }
        }
    }
    // Sizes 1, 2, 4, 8 fit at every multiple of their size; 3, 5, 6, 7
    // at the in-word offsets their alignment mask admits (4, 4, 2, 2).
    const std::uint64_t perWord = 8 + 4 + 4 + 2 + 4 + 2 + 2 + 1;
    EXPECT_EQ(reads, perWord * (kPageBytes / 8) * kPages);
    EXPECT_EQ(mem.pagesAllocated(), 3u); // reads never create pages
}

TEST(FunctionalMemory, MisalignedAccessPanics)
{
    FunctionalMemory mem;
    EXPECT_THROW(mem.read(0x1001, 8), SimPanic);
    EXPECT_THROW(mem.write(0x1002, 4, 0), SimPanic);
}

TEST(PageTable, TranslateAndFault)
{
    PageTable pt;
    pt.map(/*vpn=*/5, /*ppn=*/9);
    auto pa = pt.translate(5 * kPageBytes + 0x123);
    ASSERT_TRUE(pa.has_value());
    EXPECT_EQ(*pa, 9 * kPageBytes + 0x123);
    EXPECT_FALSE(pt.translate(6 * kPageBytes).has_value());
    pt.unmap(5);
    EXPECT_FALSE(pt.translate(5 * kPageBytes).has_value());
}

TEST(CacheArray, LruVictimSelection)
{
    CacheArray<L1Line> arr(1, 2); // one set, two ways
    L1Line &a = arr.victimFor(0);
    arr.install(a, 0);
    L1Line &b = arr.victimFor(16 * 1); // same set
    arr.install(b, 16);
    // Touch line 0 so line 16 becomes LRU.
    EXPECT_NE(arr.find(0), nullptr);
    L1Line &victim = arr.victimFor(32);
    EXPECT_TRUE(victim.valid);
    EXPECT_EQ(victim.addr, 16u);
}

TEST(Coherence, ColdLoadFillsExclusive)
{
    CacheSystem sys(2);
    sys.mem.write(0x1000, 8, 77);
    EXPECT_EQ(sys.load(0, 0x1000), 77u);
    EXPECT_EQ(sys.l2[0]->stateOf(0x1000), LineState::E);
    EXPECT_EQ(sys.l2[0]->misses.value(), 1u);
    EXPECT_EQ(sys.load(0, 0x1008), 77u * 0 + sys.mem.read(0x1008, 8));
    EXPECT_EQ(sys.l2[0]->hits.value(), 1u); // same line
}

TEST(Coherence, StoreMakesLineModified)
{
    CacheSystem sys(2);
    sys.store(0, 0x2000, 123);
    EXPECT_EQ(sys.l2[0]->stateOf(0x2000), LineState::M);
    EXPECT_EQ(sys.load(0, 0x2000), 123u);
    EXPECT_TRUE(sys.homeOf(0x2000).isOwned(0x2000));
}

TEST(Coherence, TwoReadersShareTheLine)
{
    CacheSystem sys(2);
    sys.mem.write(0x3000, 8, 5);
    EXPECT_EQ(sys.load(0, 0x3000), 5u);
    EXPECT_EQ(sys.load(1, 0x3000), 5u);
    EXPECT_EQ(sys.l2[0]->stateOf(0x3000), LineState::S);
    EXPECT_EQ(sys.l2[1]->stateOf(0x3000), LineState::S);
    auto holders = sys.homeOf(0x3000).holders(0x3000);
    EXPECT_EQ(holders.size(), 2u);
}

TEST(Coherence, ReaderPullsFromModifiedOwner)
{
    CacheSystem sys(2);
    sys.store(0, 0x4000, 0xabcd);
    EXPECT_EQ(sys.l2[0]->stateOf(0x4000), LineState::M);
    // Core 1's load recalls the dirty line (secondary writeback).
    EXPECT_EQ(sys.load(1, 0x4000), 0xabcdu);
    EXPECT_EQ(sys.l2[0]->stateOf(0x4000), LineState::S);
    EXPECT_EQ(sys.l2[1]->stateOf(0x4000), LineState::S);
    EXPECT_EQ(sys.l2[0]->recallsReceived.value(), 1u);
    EXPECT_GE(sys.homeOf(0x4000).memWrites.value(), 1u);
}

TEST(Coherence, WriterInvalidatesSharers)
{
    CacheSystem sys(3);
    sys.mem.write(0x5000, 8, 1);
    sys.load(0, 0x5000);
    sys.load(1, 0x5000);
    sys.load(2, 0x5000);
    sys.store(0, 0x5000, 2);
    EXPECT_EQ(sys.l2[0]->stateOf(0x5000), LineState::M);
    EXPECT_EQ(sys.l2[1]->stateOf(0x5000), LineState::I);
    EXPECT_EQ(sys.l2[2]->stateOf(0x5000), LineState::I);
    EXPECT_EQ(sys.l2[1]->invsReceived.value(), 1u);
    EXPECT_EQ(sys.l2[2]->invsReceived.value(), 1u);
    // Re-read observes the new value.
    EXPECT_EQ(sys.load(1, 0x5000), 2u);
}

TEST(Coherence, InvalidateHookFires)
{
    CacheSystem sys(2);
    std::vector<Addr> invalidated;
    sys.l2[1]->setInvalidateHook(
        [&](Addr a, std::uint64_t) { invalidated.push_back(a); });
    sys.load(1, 0x6000);
    sys.store(0, 0x6000, 9);
    ASSERT_EQ(invalidated.size(), 1u);
    EXPECT_EQ(invalidated[0], lineAlign(Addr{0x6000}));
}

TEST(Coherence, LineMetaStoredAndReportedOnInvalidate)
{
    CacheSystem sys(2);
    std::uint64_t meta_seen = 0;
    sys.l2[1]->setInvalidateHook(
        [&](Addr, std::uint64_t m) { meta_seen = m; });
    bool done = false;
    CacheReq r;
    r.kind = CacheReq::Kind::Load;
    r.addr = 0x7000;
    r.size = 8;
    r.lineMeta = 0x42; // e.g. the VPN a Proxy Cache must remember
    r.done = [&](std::uint64_t) { done = true; };
    sys.l2[1]->request(std::move(r));
    sys.eq.run();
    ASSERT_TRUE(done);
    sys.store(0, 0x7000, 1);
    EXPECT_EQ(meta_seen, 0x42u);
}

TEST(Coherence, EvictionWritesBackDirtyLine)
{
    // Tiny cache: 2 sets x 1 way = 2 lines, so a third line evicts.
    PrivateCacheParams small;
    small.sizeBytes = 2 * kLineBytes;
    small.ways = 1;
    CacheSystem sys(1, small);
    sys.store(0, 0x0, 11);                  // set 0
    sys.store(0, 2 * kLineBytes, 22);       // set 0, evicts line 0
    sys.eq.run();
    EXPECT_EQ(sys.l2[0]->evictions.value(), 1u);
    EXPECT_EQ(sys.l2[0]->writebacks.value(), 1u);
    EXPECT_EQ(sys.l2[0]->stateOf(0x0), LineState::I);
    EXPECT_FALSE(sys.l2[0]->evicting(0x0)); // WbAck drained the buffer
    EXPECT_EQ(sys.load(0, 0x0), 11u);       // re-fetch is correct
}

TEST(Coherence, CleanEvictionSendsPutS)
{
    PrivateCacheParams small;
    small.sizeBytes = 2 * kLineBytes;
    small.ways = 1;
    CacheSystem sys(1, small);
    sys.load(0, 0x0);
    sys.load(0, 2 * kLineBytes); // evicts clean line 0
    sys.eq.run();
    EXPECT_EQ(sys.l2[0]->evictions.value(), 1u);
    EXPECT_EQ(sys.l2[0]->writebacks.value(), 0u);
    // Directory no longer lists tile 0 for line 0.
    EXPECT_TRUE(sys.homeOf(0x0).holders(0x0).empty());
}

TEST(Coherence, AmoFetchAddInvalidatesCachedCopies)
{
    CacheSystem sys(2);
    sys.mem.write(0x8000, 8, 100);
    sys.load(0, 0x8000);
    sys.load(1, 0x8000);
    std::uint64_t old = sys.amo(0, AmoOp::Add, 0x8000, 5);
    EXPECT_EQ(old, 100u);
    EXPECT_EQ(sys.mem.read(0x8000, 8), 105u);
    EXPECT_EQ(sys.l2[0]->stateOf(0x8000), LineState::I);
    EXPECT_EQ(sys.l2[1]->stateOf(0x8000), LineState::I);
    EXPECT_EQ(sys.load(1, 0x8000), 105u);
}

TEST(Coherence, AmoOnModifiedLineRecallsOwner)
{
    CacheSystem sys(2);
    sys.store(1, 0x9000, 7);
    std::uint64_t old = sys.amo(0, AmoOp::Swap, 0x9000, 50);
    EXPECT_EQ(old, 7u);
    EXPECT_EQ(sys.mem.read(0x9000, 8), 50u);
    EXPECT_EQ(sys.l2[1]->stateOf(0x9000), LineState::I);
}

TEST(Coherence, CasSuccessAndFailure)
{
    CacheSystem sys(1);
    sys.mem.write(0xa000, 8, 0);
    EXPECT_EQ(sys.amo(0, AmoOp::Cas, 0xa000, 0, 1), 0u); // success
    EXPECT_EQ(sys.mem.read(0xa000, 8), 1u);
    EXPECT_EQ(sys.amo(0, AmoOp::Cas, 0xa000, 0, 2), 1u); // failure
    EXPECT_EQ(sys.mem.read(0xa000, 8), 1u);
}

TEST(Coherence, MshrCoalescesSameLineMisses)
{
    CacheSystem sys(1);
    int completions = 0;
    for (int i = 0; i < 2; ++i) {
        CacheReq r;
        r.kind = CacheReq::Kind::Load;
        r.addr = 0xb000 + 8 * i;
        r.size = 8;
        r.done = [&](std::uint64_t) { ++completions; };
        sys.l2[0]->request(std::move(r));
    }
    sys.eq.run();
    EXPECT_EQ(completions, 2);
    EXPECT_EQ(sys.l2[0]->misses.value(), 1u); // one GetS for the line
}

TEST(Coherence, MshrLimitStallsAndRecovers)
{
    PrivateCacheParams p;
    p.mshrs = 2;
    CacheSystem sys(1, p);
    int completions = 0;
    for (int i = 0; i < 8; ++i) {
        CacheReq r;
        r.kind = CacheReq::Kind::Load;
        r.addr = 0xc000 + static_cast<Addr>(i) * kLineBytes;
        r.size = 8;
        r.done = [&](std::uint64_t) { ++completions; };
        sys.l2[0]->request(std::move(r));
    }
    sys.eq.run();
    EXPECT_EQ(completions, 8);
    EXPECT_EQ(sys.l2[0]->misses.value(), 8u);
}

TEST(Coherence, StoreUpgradeFromShared)
{
    CacheSystem sys(2);
    sys.mem.write(0xd000, 8, 3);
    sys.load(0, 0xd000);
    sys.load(1, 0xd000); // both S
    sys.store(1, 0xd000, 4);
    EXPECT_EQ(sys.l2[1]->stateOf(0xd000), LineState::M);
    EXPECT_EQ(sys.l2[0]->stateOf(0xd000), LineState::I);
    EXPECT_EQ(sys.load(0, 0xd000), 4u);
}

TEST(Coherence, EvictionRecallRaceResolves)
{
    // Core 0 owns a dirty line in a 1-line cache; a new store evicts it
    // while core 1 concurrently loads the same line: the recall must be
    // served from the eviction buffer without deadlock.
    PrivateCacheParams tiny;
    tiny.sizeBytes = kLineBytes;
    tiny.ways = 1;
    CacheSystem sys(2, tiny);
    sys.store(0, 0x0, 55);

    bool store_done = false, load_done = false;
    std::uint64_t loaded = 0;
    CacheReq st;
    st.kind = CacheReq::Kind::Store;
    st.addr = kLineBytes; // evicts line 0
    st.size = 8;
    st.wdata = 66;
    st.done = [&](std::uint64_t) { store_done = true; };
    sys.l2[0]->request(std::move(st));

    CacheReq ld;
    ld.kind = CacheReq::Kind::Load;
    ld.addr = 0x0;
    ld.size = 8;
    ld.done = [&](std::uint64_t v) {
        loaded = v;
        load_done = true;
    };
    sys.l2[1]->request(std::move(ld));

    sys.eq.run();
    EXPECT_TRUE(store_done);
    EXPECT_TRUE(load_done);
    EXPECT_EQ(loaded, 55u);
    EXPECT_FALSE(sys.l2[0]->evicting(0x0));
}

TEST(Coherence, L2HitLatencyMatchesParameter)
{
    CacheSystem sys(1);
    sys.load(0, 0x100); // warm
    Tick start = sys.eq.now();
    sys.load(0, 0x100);
    Tick hit_latency = sys.eq.now() - start;
    // hitLatency cycles (3) at 1 GHz; allow edge alignment slack.
    EXPECT_GE(hit_latency, 3000u);
    EXPECT_LE(hit_latency, 4000u);
}

TEST(Coherence, MissLatencyIncludesDirectoryAndDram)
{
    CacheSystem sys(1);
    Tick start = sys.eq.now();
    sys.load(0, 0xe000);
    Tick miss_latency = sys.eq.now() - start;
    // Must include the 80-cycle DRAM latency at least.
    EXPECT_GT(miss_latency, 80'000u);
}

TEST(Coherence, SharersKeepArrivalOrder)
{
    // The directory lists sharers in the order they joined, not in tile
    // order: the Inv fan-out walks this list, and its order decides
    // which same-tick mesh link claim wins.
    PrivateCacheParams small;
    small.sizeBytes = 2 * kLineBytes; // 2 sets x 1 way
    small.ways = 1;
    CacheSystem sys(3, small);
    const Addr line = 0x0;
    sys.load(2, line); // E at tile 2
    sys.load(0, line); // recall: tile 2 keeps S, tile 0 joins
    sys.load(1, line);
    EXPECT_EQ(sys.homeOf(line).holders(line),
              (std::vector<std::uint16_t>{2, 0, 1}));

    sys.load(0, line + 2 * kLineBytes); // same set: tile 0 sends PutS
    sys.eq.run();
    EXPECT_EQ(sys.l2[0]->stateOf(line), LineState::I);
    EXPECT_EQ(sys.homeOf(line).holders(line),
              (std::vector<std::uint16_t>{2, 1}));
}

TEST(Coherence, SpuriousInvsIsRegistered)
{
    CacheSystem sys(1);
    StatRegistry reg;
    sys.l2[0]->registerStats(reg);
    EXPECT_NE(reg.findCounter("l2.0.spuriousInvs"), nullptr);
}

/** Property test: random multicore traffic preserves coherence invariants
 *  and sequential semantics per address. */
class CoherenceFuzz : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(CoherenceFuzz, RandomTrafficKeepsInvariants)
{
    const unsigned seed = GetParam();
    std::mt19937 rng(seed);
    const unsigned tiles = 4;
    PrivateCacheParams small;
    small.sizeBytes = 8 * kLineBytes; // tiny: force lots of evictions
    small.ways = 2;
    CacheSystem sys(tiles, small);

    // Each core performs random ops over a small pool of hot lines. Each
    // address's value is tagged (core, sequence) so any torn/stale write
    // is detectable as a violated per-address monotonicity at the end.
    // Beside the hot pool runs a stream of cold lines, each touched
    // once: every shard creates, erases and reuses directory entries
    // while hot lines are mid-transaction with requests queued behind
    // them, so no event may keep a reference to an entry that is erased
    // and reused for another line.
    const unsigned kOpsPerCore = 300;
    const Addr kPool = 16;         // hot lines
    const Addr kColdBase = 1024;   // first cold line
    Addr cold_next = kColdBase;
    std::set<Addr> touched; // line numbers
    std::vector<int> remaining(tiles, kOpsPerCore);
    std::uint64_t total_increments = 0;

    std::function<void(unsigned)> issue = [&](unsigned t) {
        if (remaining[t]-- <= 0)
            return;
        std::uniform_int_distribution<int> kindDist(0, 11);
        std::uniform_int_distribution<Addr> lineDist(0, kPool - 1);
        int k = kindDist(rng);
        Addr a = lineDist(rng) * kLineBytes;
        if (k >= 10) {
            a = cold_next++ * kLineBytes;
            k = k == 10 ? 0 : 5; // a load or a store
        }
        CacheReq r;
        r.size = 8;
        r.addr = a;
        if (k < 5) {
            r.kind = CacheReq::Kind::Load;
        } else if (k < 9) {
            r.kind = CacheReq::Kind::Store;
            r.wdata = (static_cast<std::uint64_t>(t) << 32) |
                      static_cast<std::uint32_t>(remaining[t]);
        } else {
            r.kind = CacheReq::Kind::Amo;
            r.amoOp = AmoOp::Add;
            r.addr = (kPool + 1) * kLineBytes; // shared counter line
            r.wdata = 1;
            ++total_increments;
        }
        touched.insert(r.addr / kLineBytes);
        r.done = [&, t](std::uint64_t) { issue(t); };
        sys.l2[t]->request(std::move(r));
    };
    for (unsigned t = 0; t < tiles; ++t)
        issue(t);
    sys.eq.run();

    // Every touched line reached its home directory at least once, and a
    // line's entry is erased once no L2 holds it. Cold lines pass through
    // the tiny L2s, so each shard reused erased entry slots while hot
    // lines had requests queued: it carved fewer slots than it saw
    // lines (about 8 against 55), and whatever the directory still holds
    // is cached somewhere. An index grows when it holds more than 8
    // lines at once; at least one shard's did, under the same traffic.
    std::vector<unsigned> per_shard(tiles, 0);
    for (Addr line : touched)
        ++per_shard[line % tiles];
    std::size_t widest_index = 0;
    for (unsigned s = 0; s < tiles; ++s) {
        const L3Shard &shard = *sys.l3[s];
        EXPECT_LT(shard.dirSlots(), per_shard[s]) << "shard " << s;
        widest_index = std::max(widest_index, shard.dirIndexSlots());
        for (Addr la : shard.dirEntries())
            EXPECT_FALSE(shard.holders(la).empty()) << "line " << la;
    }
    EXPECT_GT(widest_index, 16u);

    for (Addr line : touched) {
        // Invariant 1: single-writer — at most one cache in E/M per line,
        // and no sharers coexist with an owner.
        Addr a = line * kLineBytes;
        unsigned owners = 0, sharers = 0;
        for (unsigned t = 0; t < tiles; ++t) {
            LineState s = sys.l2[t]->stateOf(a);
            if (s == LineState::E || s == LineState::M)
                ++owners;
            else if (s == LineState::S)
                ++sharers;
        }
        EXPECT_LE(owners, 1u) << "line " << line;
        if (owners) {
            EXPECT_EQ(sharers, 0u) << "line " << line;
        }
        // Invariant 2: directory ownership matches reality.
        if (sys.homeOf(a).isOwned(a)) {
            EXPECT_EQ(owners, 1u) << "line " << line;
        }
        // Invariant 4: no transaction left dangling.
        EXPECT_FALSE(sys.homeOf(a).isBusy(a)) << "line " << line;
    }

    // Invariant 3: the shared counter saw every AMO exactly once.
    EXPECT_EQ(sys.mem.read((kPool + 1) * kLineBytes, 8), total_increments);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoherenceFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 11u, 23u,
                                           47u));

TEST(L1Cache, FilterBehaviour)
{
    L1Cache l1;
    EXPECT_FALSE(l1.loadHit(0x100));
    l1.fill(0x100);
    EXPECT_TRUE(l1.loadHit(0x100));
    EXPECT_TRUE(l1.loadHit(0x108)); // same line
    l1.invalidateLine(0x104);
    EXPECT_FALSE(l1.loadHit(0x100));
    EXPECT_EQ(l1.hits.value(), 2u);
    EXPECT_EQ(l1.misses.value(), 2u);
}

} // namespace
} // namespace duet
