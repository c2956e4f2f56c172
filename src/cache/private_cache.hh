/**
 * @file
 * A private, write-back, MESI cache — the P-Mesh L2 model.
 *
 * The same class implements (a) each core's private L2, (b) the Duet Proxy
 * Cache's coherent half (the paper implements the Proxy Cache "by adding a
 * coherent memory interface to the unmodified P-Mesh L2 cache", Sec. IV),
 * and (c) the FPSoC baseline's FPGA-side cache, by constructing it in the
 * slow clock domain with CDC-wrapped NoC ports.
 *
 * Protocol: blocking-directory MESI (see DESIGN.md). The cache has a
 * processor-side request interface (CacheReq) and a network-side
 * receive/send pair. Evicted lines sit in an eviction buffer and keep
 * answering recalls until the directory acknowledges the writeback, which
 * removes all request/recall races.
 */

#ifndef DUET_CACHE_PRIVATE_CACHE_HH
#define DUET_CACHE_PRIVATE_CACHE_HH

#include <string>
#include <vector>

#include "cache/cache_array.hh"
#include "cache/coherence.hh"
#include "noc/message.hh"
#include "sim/clock.hh"
#include "sim/stats.hh"

namespace duet
{

/** One private-cache line: state + dirtiness + user metadata. */
struct PrivateLine
{
    Addr addr = 0;
    bool valid = false;
    LineState state = LineState::I;
    bool dirty = false;
    std::uint64_t meta = 0; ///< Proxy Cache stores the VPN here (Sec. II-D)
};

/** A private MESI cache with MSHRs and an eviction buffer. */
class PrivateCache
{
  public:
    using SendFn = InlineFunction<void(Message), 32>;
    /** Called whenever a line leaves the cache (Inv/RecallM/eviction). */
    using InvalidateHook = InlineFunction<void(Addr, std::uint64_t meta), 32>;
    /** Maps a line address to its home directory endpoint. */
    using HomeFn = InlineFunction<NodeId(Addr), 16>;

    /**
     * @param clk        clock domain the cache logic runs in (fast for CPU
     *                   L2s and the Proxy Cache; the eFPGA domain for the
     *                   FPSoC baseline's FPGA-side cache)
     * @param name       stats name
     * @param params     geometry/timing
     * @param mem        functional memory (data source of truth)
     * @param self       this cache's NoC endpoint
     * @param home_of    maps a line address to its home directory endpoint
     * @param domain_cat latency-trace category for this cache's processing
     */
    PrivateCache(ClockDomain &clk, std::string name,
                 const PrivateCacheParams &params, FunctionalMemory &mem,
                 NodeId self, HomeFn home_of,
                 LatencyTrace::Cat domain_cat);

    /** Wire the network transmit path (mesh inject or a CDC wrapper). */
    void setSendFn(SendFn fn) { send_ = std::move(fn); }

    /** Install the inclusive-invalidation hook (L1 shootdown / soft-cache
     *  invalidation forwarding for the Proxy Cache). */
    void setInvalidateHook(InvalidateHook h) { invHook_ = std::move(h); }

    /** Processor-/accelerator-side request. */
    void request(CacheReq req);

    /** Network-side input: coherence messages addressed to this cache. */
    void receive(const Message &msg);

    /** Stable state of a line (probe; I if absent). */
    LineState stateOf(Addr addr) const;

    /** True if the line sits in the eviction buffer awaiting WbAck. */
    bool evicting(Addr addr) const
    {
        return evictBuf_.contains(lineAlign(addr));
    }

    const std::string &name() const { return name_; }
    ClockDomain &clock() const { return clk_; }
    FunctionalMemory &memoryRef() { return mem_; }

    // Statistics.
    Counter hits, misses, evictions, invsReceived, recallsReceived,
        spuriousInvs, writebacks, amosForwarded;

    void registerStats(StatRegistry &reg) const;

  private:
    /** One MSHR slot. A free slot keeps its waiting vector's capacity,
     *  so a warmed-up cache allocates nothing per miss. */
    struct Mshr
    {
        Addr line = kNoLine;            ///< kNoLine when the slot is free
        std::vector<CacheReq> waiting;  ///< replayed on fill
    };

    struct EvictEntry
    {
        bool dirty = false;
        std::uint64_t meta = 0;
    };

    /** Serialize on the cache's single pipeline; returns operation start. */
    Tick startOp();

    /** Process a request at tick @p start (after pipeline occupancy). */
    void process(CacheReq req, Tick arrival);

    /** Handle a network message after the pipeline delay. */
    void handle(const Message &msg);

    void completeLoad(const CacheReq &req);
    void completeStore(const CacheReq &req, PrivateLine &line);
    void sendToHome(MsgType t, Addr line_addr, LatencyTrace *trace,
                    std::uint64_t value = 0);
    void evictLine(PrivateLine &line);
    void fill(const Message &msg);
    void replayPending();
    Mshr *findMshr(Addr line_addr);
    void addTrace(LatencyTrace *t, Cycles cycles) const;

    ClockDomain &clk_;
    std::string name_;
    PrivateCacheParams params_;
    FunctionalMemory &mem_;
    NodeId self_;
    HomeFn homeOf_;
    LatencyTrace::Cat domainCat_;
    SendFn send_;
    InvalidateHook invHook_;

    CacheArray<PrivateLine> array_;
    std::vector<Mshr> mshrs_;      ///< params.mshrs slots
    unsigned mshrsBusy_ = 0;
    LineTable<EvictEntry> evictBuf_;
    std::vector<CacheReq> stalled_; ///< requests waiting for a free MSHR
    /// replayPending()'s working list: it trades capacity with stalled_,
    /// so a replay allocates nothing.
    std::vector<CacheReq> replayScratch_;
    FlatTable<std::uint32_t, CacheReq, 0> outstandingAmos_; ///< by txn id
    std::uint32_t nextTxnId_ = 1;
    Tick busyUntil_ = 0;
};

} // namespace duet

#endif // DUET_CACHE_PRIVATE_CACHE_HH
