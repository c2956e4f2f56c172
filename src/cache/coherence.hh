/**
 * @file
 * Shared coherence-protocol types: MESI states, the processor-side cache
 * request interface, and timing parameters.
 */

#ifndef DUET_CACHE_COHERENCE_HH
#define DUET_CACHE_COHERENCE_HH

#include <cstdint>

#include "mem/addr.hh"
#include "mem/functional_mem.hh"
#include "sim/flat_table.hh"
#include "sim/inline_function.hh"
#include "sim/latency_trace.hh"
#include "sim/types.hh"

namespace duet
{

/** MESI stable states of a private-cache line. */
enum class LineState : std::uint8_t
{
    I, ///< invalid
    S, ///< shared, clean
    E, ///< exclusive, clean
    M, ///< exclusive, dirty
};

/** Readable state names. */
constexpr const char *
lineStateName(LineState s)
{
    switch (s) {
      case LineState::I: return "I";
      case LineState::S: return "S";
      case LineState::E: return "E";
      case LineState::M: return "M";
    }
    return "?";
}

/** FlatTable hash for line-aligned keys: the line number itself, so
 *  consecutive lines are consecutive multiplier inputs. */
struct LineHash
{
    constexpr std::uint64_t operator()(Addr la) const { return lineNumber(la); }
};

/** No line-aligned address equals this: the empty key of a LineTable. */
constexpr Addr kNoLine = ~Addr{0};

/** A FlatTable keyed by line-aligned address. */
template <typename Value>
using LineTable = FlatTable<Addr, Value, kNoLine, LineHash>;

/**
 * A processor-side (or eFPGA-side, for the Proxy Cache) request into a
 * private cache. Move-only: the completion callback's capture lives
 * inline in the request, so a CacheReq travels through MSHR queues and
 * event captures without touching the allocator.
 */
struct CacheReq
{
    enum class Kind : std::uint8_t { Load, Store, Amo };

    /** Completion callback type: result is the load value / AMO old
     *  value / 0 for stores. 40 inline bytes cover every capture in the
     *  tree — the largest are the core load continuation
     *  [op, core, addr] and the memory hub's [this, id, va, pa, trace]. */
    using DoneFn = InlineFunction<void(std::uint64_t), 40>;

    Kind kind = Kind::Load;
    Addr addr = 0;               ///< byte address (not line-aligned)
    unsigned size = 8;           ///< 1-8 bytes, naturally aligned
    std::uint64_t wdata = 0;     ///< store data / AMO operand
    std::uint64_t wdata2 = 0;    ///< AMO second operand (CAS desired)
    AmoOp amoOp = AmoOp::Add;
    std::uint64_t lineMeta = 0;  ///< metadata stored with the filled line
                                 ///< (the Proxy Cache stores the VPN here)
    LatencyTrace *trace = nullptr;

    /** Completion callback: load value / AMO old value / 0 for stores. */
    DoneFn done;
};

/** Timing parameters of a private cache. */
struct PrivateCacheParams
{
    unsigned sizeBytes = 8 * 1024; ///< 8 KB like P-Mesh L2
    unsigned ways = 4;
    Cycles hitLatency = 3;        ///< tag+data pipeline
    unsigned mshrs = 8;           ///< concurrent outstanding line fills
    unsigned maxStoreBytes = 8;   ///< P-Mesh L2 accepts stores up to 8 B
};

/** Timing parameters of an L3 shard + directory slice. */
struct L3ShardParams
{
    unsigned sizeBytes = 64 * 1024; ///< per-shard, like Dolly
    unsigned ways = 4;
    Cycles dirLatency = 4;          ///< directory/tag processing per step
    Cycles memLatencyCycles = 80;   ///< off-chip DRAM latency (fast cycles)
    Cycles memBurstCycles = 4;      ///< DRAM occupancy per line transfer
};

} // namespace duet

#endif // DUET_CACHE_COHERENCE_HH
