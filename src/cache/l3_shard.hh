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

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
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

    /** Directory footprint for tests: the lines that hold an entry now,
     *  entry slots ever carved, and index slots (the index never
     *  shrinks, so this tracks its peak size). */
    std::vector<Addr> dirEntries() const { return dir_.lines(); }
    std::size_t dirSlots() const { return dir_.slots(); }
    std::size_t dirIndexSlots() const { return dir_.indexSlots(); }

    // Statistics.
    Counter requests, recallsSent, invsSent, l3Hits, l3Misses, memReads,
        memWrites, atomics;

    void registerStats(StatRegistry &reg) const;

    /** Sharer-list capacity of a directory line, and so the largest
     *  System: System::build() panics past it. */
    static constexpr unsigned kMaxTiles = 64;

  private:
    enum class DirState : std::uint8_t
    {
        U,  ///< uncached in private caches
        S,  ///< shared by >= 1 private caches
        EM, ///< exclusively owned by one private cache
    };

    /// Message-pool index meaning "none".
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};

    /**
     * One directory line. It owns no memory, so building or recycling one
     * costs no allocator call. A busy line's requests form a FIFO in the
     * shard's message pool, from head (the request in service) to tail
     * (the newest queued one).
     */
    struct DirEntry
    {
        DirState state = DirState::U;
        bool busy = false;
        std::uint8_t acksNeeded = 0; ///< outstanding InvAcks / RecallAcks
        std::uint8_t numSharers = 0;
        std::uint16_t owner = 0;     ///< E/M owner tile
        /// Sharer tiles in arrival order. The Inv fan-out walks them in
        /// this order, and that order decides which same-tick mesh link
        /// claim wins, so a tile-ordered bitmask would change timing.
        std::uint8_t sharers[kMaxTiles] = {};
        std::uint32_t head = kNil; ///< request in service (busy lines)
        std::uint32_t tail = kNil; ///< newest queued request
    };
    static_assert(std::is_trivially_destructible_v<DirEntry>);

    /**
     * Directory index: line address -> DirEntry. An entry is created on
     * a line's first request and erased when a transaction leaves it
     * idle in U, so the directory holds only the lines that private
     * caches hold or that are mid-transaction, as a hardware slice
     * does. (An idle U entry is indistinguishable from a fresh one:
     * owner and stale sharer bytes are read only in EM or S.) A
     * LineTable maps each line to its entry number; the entries sit in
     * fixed-size chunks that never move, so a DirEntry reference (and
     * the pointers that scheduled events capture, all inside a busy
     * transaction) stays valid while the index grows. A freed entry
     * number is reused before a new chunk is carved.
     */
    class DirMap
    {
      public:
        /// Get-or-create the entry for line-aligned address @p la.
        DirEntry &operator[](Addr la);

        /// Probe without creating; null when @p la holds no entry.
        const DirEntry *find(Addr la) const;

        /// Drop @p la's entry, which must be idle in U; its slot joins
        /// the free list.
        void erase(Addr la);

        /// Lines that hold an entry, in index order.
        std::vector<Addr> lines() const;
        std::size_t slots() const { return slots_; }
        std::size_t indexSlots() const { return index_.capacity(); }

      private:
        static constexpr std::uint32_t kChunk = 256;

        DirEntry &
        at(std::uint32_t n) const
        {
            return chunks_[n / kChunk][n % kChunk];
        }

        LineTable<std::uint32_t> index_;
        std::vector<std::unique_ptr<DirEntry[]>> chunks_;
        std::uint32_t slots_ = 0;          ///< entries carved so far
        std::vector<std::uint32_t> free_;  ///< erased entry numbers, LIFO
    };

    /** A queued request and the next one in its line's FIFO. */
    struct PoolNode
    {
        Message msg;
        std::uint32_t next = kNil;
    };

    /** Serialize on the shard pipeline; returns operation start tick. */
    Tick startOp();

    /** Append @p msg to @p e's request FIFO. */
    void enqueue(DirEntry &e, const Message &msg);

    /** Begin serving @p e's head request. */
    void startTxn(DirEntry &e);

    void handleGetS(DirEntry &e, const Message &msg);
    void handleGetM(DirEntry &e, const Message &msg);
    void handleAtomic(DirEntry &e, const Message &msg);
    void handlePut(DirEntry &e, const Message &msg);

    /** Transaction response (InvAck / RecallAck*) while busy. */
    void handleTxnResp(DirEntry &e, const Message &msg);

    /** Finish the current transaction and drain one queued request; a
     *  line left idle in U loses its entry, and @p e with it. */
    void finishTxn(DirEntry &e);

    /**
     * Send a data response to @p req, paying the L3-array / DRAM latency
     * when @p from_mem_path, then finish @p e's transaction.
     */
    void sendData(DirEntry &e, MsgType t, const Message &req,
                  bool from_mem_path);

    void sendSimple(MsgType t, NodeId dst, Addr addr, LatencyTrace *trace,
                    std::uint64_t value = 0, std::uint32_t txn_id = 0);

    /** Look up the L3 array; returns extra latency in ticks and installs
     *  the line on a miss. */
    Tick arrayLatency(Addr line_addr);

    void sendRecalls(DirEntry &e, MsgType t, Addr line_addr,
                     LatencyTrace *trace);

    /** Append @p tile to @p e's sharer list. */
    static void addSharer(DirEntry &e, std::uint16_t tile);

    ClockDomain &clk_;
    std::string name_;
    L3ShardParams params_;
    FunctionalMemory &mem_;
    NodeId self_;
    SendFn send_;

    CacheArray<L3Line> array_;
    DirMap dir_;
    std::vector<PoolNode> pool_;      ///< every line's request FIFO
    std::uint32_t freeNodes_ = kNil;  ///< free list through PoolNode::next
    Tick busyUntil_ = 0;
    Tick memBusyUntil_ = 0;
};

} // namespace duet

#endif // DUET_CACHE_L3_SHARD_HH
