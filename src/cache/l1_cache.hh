/**
 * @file
 * The L1 data-cache model: a passive tag filter in front of the private L2.
 *
 * Dolly's Ariane cores have 8 KB write-through L1D caches tightly interwoven
 * with the core (paper Sec. IV). We model the L1 as a tag array the core
 * consults for 1-cycle load hits; stores write through to the L2. The L2
 * keeps the L1 inclusive through its invalidate hook.
 */

#ifndef DUET_CACHE_L1_CACHE_HH
#define DUET_CACHE_L1_CACHE_HH

#include "cache/cache_array.hh"
#include "mem/addr.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace duet
{

/** L1 tag-array line. */
struct L1Line
{
    Addr addr = 0;
    bool valid = false;
};

/** Geometry of an L1 cache. */
struct L1Params
{
    unsigned sizeBytes = 8 * 1024;
    unsigned ways = 4;
    Cycles hitLatency = 1;
};

/** A passive, write-through, read-allocate L1 tag filter. */
class L1Cache
{
  public:
    explicit L1Cache(const L1Params &params = {})
        : params_(params),
          array_(params.sizeBytes / kLineBytes / params.ways, params.ways)
    {
    }

    const L1Params &params() const { return params_; }

    /** Load lookup; updates LRU on hit. */
    bool
    loadHit(Addr a)
    {
        if (array_.find(lineAlign(a))) {
            hits.inc();
            return true;
        }
        misses.inc();
        return false;
    }

    /** Allocate the line after a load fill from the L2. */
    void
    fill(Addr a)
    {
        const Addr la = lineAlign(a);
        if (array_.peek(la))
            return;
        L1Line &slot = array_.victimFor(la);
        array_.install(slot, la);
    }

    /** Inclusive invalidation from the L2 (line left the L2). */
    void invalidateLine(Addr a) { array_.erase(lineAlign(a)); }

    Counter hits, misses;

  private:
    L1Params params_;
    CacheArray<L1Line> array_;
};

} // namespace duet

#endif // DUET_CACHE_L1_CACHE_HH
