/**
 * @file
 * A distributed shared-L3 shard with its directory slice.
 *
 * Each tile hosts one shard (paper Sec. IV: 64 KB per shard, directory-based
 * MESI together with the private L2 caches). Lines are home-interleaved
 * across shards by line number. The directory is *blocking*: one transaction
 * per line at a time; later requests queue in arrival order.
 *
 * All data flows through the directory (no cache-to-cache forwarding),
 * matching the paper's measured "secondary write-back requests" that the
 * distributed directory sends and processes (Fig. 9 caption).
 */

#ifndef DUET_CACHE_L3_SHARD_HH
#define DUET_CACHE_L3_SHARD_HH

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "cache/cache_array.hh"
#include "cache/coherence.hh"
#include "noc/message.hh"
#include "sim/clock.hh"
#include "sim/stats.hh"

namespace duet
{

/** L3 tag-array line (timing only). */
struct L3Line
{
    Addr addr = 0;
    bool valid = false;
};

/** One L3 shard + directory slice. */
class L3Shard
{
  public:
    using SendFn = InlineFunction<void(Message), 32>;

    L3Shard(ClockDomain &clk, std::string name, const L3ShardParams &params,
            FunctionalMemory &mem, NodeId self);

    void setSendFn(SendFn fn) { send_ = std::move(fn); }

    /** Network-side input: requests and transaction responses. */
    void receive(const Message &msg);

    const std::string &name() const { return name_; }

    /** Directory probe for tests: list of sharer tiles (owner if E/M). */
    std::vector<std::uint16_t> holders(Addr line_addr) const;
    bool isOwned(Addr line_addr) const;
    bool isBusy(Addr line_addr) const;

    // Statistics.
    Counter requests, recallsSent, invsSent, l3Hits, l3Misses, memReads,
        memWrites, atomics;

    void registerStats(StatRegistry &reg) const;

  private:
    enum class DirState : std::uint8_t
    {
        U,  ///< uncached in private caches
        S,  ///< shared by >= 1 private caches
        EM, ///< exclusively owned by one private cache
    };

    struct DirEntry
    {
        DirState state = DirState::U;
        std::vector<std::uint16_t> sharers; ///< tile ids (port = L2)
        std::uint16_t owner = 0;
        bool busy = false;
        Message cur;              ///< request being served while busy
        unsigned acksNeeded = 0;  ///< outstanding InvAcks
        std::deque<Message> pending;
    };

    /**
     * Directory index: line address -> DirEntry. Entries are created on
     * first touch and never erased, and every receive() is one lookup, so
     * this sits on the coherence hot path — std::unordered_map's
     * prime-modulo hashing was the single largest cost in scenario
     * profiles. A power-of-two open-addressing table (multiply-shift
     * hash, linear probing) over pointer-stable deque storage replaces
     * it: references handed out stay valid across table growth.
     */
    class DirMap
    {
      public:
        DirMap();

        /// Get-or-create the entry for line-aligned address @p la.
        DirEntry &operator[](Addr la);

        /// Probe without creating; null when @p la was never touched.
        const DirEntry *find(Addr la) const;

      private:
        /// Occupied-slot marker: line-aligned keys can never equal it.
        static constexpr Addr kEmpty = ~Addr{0};

        std::size_t slotOf(Addr la) const;
        void grow();

        /// Open-addressing table of {key, index into entries_}.
        std::vector<std::pair<Addr, std::uint32_t>> slots_;
        std::deque<DirEntry> entries_;
        std::size_t mask_;
    };

    /** Serialize on the shard pipeline; returns operation start tick. */
    Tick startOp();

    /** Begin serving request @p msg (the line must not be busy). */
    void startTxn(const Message &msg);

    void handleGetS(DirEntry &e, const Message &msg);
    void handleGetM(DirEntry &e, const Message &msg);
    void handleAtomic(DirEntry &e, const Message &msg);
    void handlePut(DirEntry &e, const Message &msg);

    /** Transaction response (InvAck / RecallAck*) while busy. */
    void handleTxnResp(DirEntry &e, const Message &msg);

    /** Finish the current transaction and drain one queued request. */
    void finishTxn(DirEntry &e, Addr line_addr);

    /**
     * Send a data response for @p line_addr, paying the L3-array / DRAM
     * latency. @p touch_dirty marks the L3 copy as freshly written.
     */
    void sendData(MsgType t, const Message &req, bool from_mem_path);

    void sendSimple(MsgType t, NodeId dst, Addr addr, LatencyTrace *trace,
                    std::uint64_t value = 0, std::uint32_t txn_id = 0);

    /** Look up the L3 array; returns extra latency in ticks and installs
     *  the line on a miss. */
    Tick arrayLatency(Addr line_addr);

    void sendRecalls(DirEntry &e, MsgType t, Addr line_addr,
                     LatencyTrace *trace);

    ClockDomain &clk_;
    std::string name_;
    L3ShardParams params_;
    FunctionalMemory &mem_;
    NodeId self_;
    SendFn send_;

    CacheArray<L3Line> array_;
    DirMap dir_;
    Tick busyUntil_ = 0;
    Tick memBusyUntil_ = 0;
};

} // namespace duet

#endif // DUET_CACHE_L3_SHARD_HH
