/**
 * @file
 * A generic set-associative tag array with true-LRU replacement.
 *
 * Data values are not stored (see DESIGN.md: functional memory is the
 * source of truth); lines carry coherence state and user metadata only.
 *
 * Lookups probe a contiguous tag mirror (`tags_`), not the LineT records:
 * one set's tags are adjacent (8 ways x 8 B = one 64 B host cache line),
 * an invalid way is the sentinel ~Addr{0} (never a line-aligned address),
 * so a probe is a single u64 compare per way covering valid+match at
 * once, and the common hit touches one host cache line instead of
 * striding across sizeof(LineT) records.
 */

#ifndef DUET_CACHE_CACHE_ARRAY_HH
#define DUET_CACHE_CACHE_ARRAY_HH

#include <cstdint>
#include <vector>

#include "mem/addr.hh"
#include "sim/logging.hh"

namespace duet
{

/**
 * Tag array of LineT, which must provide:
 *   Addr addr;     // full line-aligned address
 *   bool valid;
 * Replacement is true LRU via a monotonic use counter.
 *
 * All valid-bit transitions must go through install()/erase()/
 * invalidate() so the tag mirror stays coherent with the LineT
 * records; callers must not flip `line->valid` directly.
 */
template <typename LineT>
class CacheArray
{
  public:
    CacheArray(unsigned sets, unsigned ways) : sets_(sets), ways_(ways)
    {
        simAssert(sets > 0 && (sets & (sets - 1)) == 0,
                  "set count must be a power of two");
        simAssert(ways > 0, "need at least one way");
        lines_.resize(sets * ways);
        tags_.resize(sets * ways, kInvalidTag);
        lastUse_.resize(sets * ways, 0);
    }

    unsigned sets() const { return sets_; }
    unsigned ways() const { return ways_; }

    /** Find the valid line holding @p line_addr; nullptr on miss. */
    LineT *
    find(Addr line_addr)
    {
        const std::size_t i = slotOf(line_addr);
        if (i == kNoSlot)
            return nullptr;
        lastUse_[i] = ++clock_;
        return &lines_[i];
    }

    /** Find without updating LRU state (for probes). */
    const LineT *
    peek(Addr line_addr) const
    {
        const std::size_t i = slotOf(line_addr);
        return i == kNoSlot ? nullptr : &lines_[i];
    }

    /**
     * Pick the victim slot for inserting @p line_addr: an invalid way if
     * one exists, otherwise the LRU way. The caller must handle eviction
     * of a valid victim before overwriting it.
     * @return reference to the chosen slot (may be a valid line!)
     */
    LineT &
    victimFor(Addr line_addr)
    {
        const unsigned base = setIndex(line_addr) * ways_;
        const Addr *tags = tags_.data() + base;
        unsigned best = 0;
        std::uint64_t best_use = ~0ull;
        for (unsigned w = 0; w < ways_; ++w) {
            if (tags[w] == kInvalidTag)
                return lines_[base + w];
            if (lastUse_[base + w] < best_use) {
                best_use = lastUse_[base + w];
                best = w;
            }
        }
        return lines_[base + best];
    }

    /**
     * Install @p line_addr into @p slot (a reference previously returned by
     * victimFor) and mark it most recently used.
     */
    void
    install(LineT &slot, Addr line_addr)
    {
        slot = LineT{};
        slot.addr = line_addr;
        slot.valid = true;
        const std::size_t idx = indexOf(slot);
        tags_[idx] = line_addr;
        lastUse_[idx] = ++clock_;
    }

    /** Invalidate the line holding @p line_addr if present. */
    void
    erase(Addr line_addr)
    {
        const std::size_t i = slotOf(line_addr);
        if (i != kNoSlot)
            invalidate(lines_[i]);
    }

    /**
     * Invalidate @p line (a reference into this array, e.g. from find()).
     * The only sanctioned way to drop a line the caller already holds:
     * keeps the tag mirror in sync where `line.valid = false` would not.
     */
    void
    invalidate(LineT &line)
    {
        line.valid = false;
        tags_[indexOf(line)] = kInvalidTag;
    }

  private:
    /** Never a line-aligned address, so it doubles as the invalid mark. */
    static constexpr Addr kInvalidTag = ~Addr{0};
    /** slotOf()'s miss answer. */
    static constexpr std::size_t kNoSlot = ~std::size_t{0};

    unsigned
    setIndex(Addr line_addr) const
    {
        return static_cast<unsigned>(lineNumber(line_addr)) & (sets_ - 1);
    }

    std::size_t
    indexOf(const LineT &l) const
    {
        return static_cast<std::size_t>(&l - lines_.data());
    }

    /** Index of the valid line holding @p line_addr, or kNoSlot: one
     *  u64 compare per way of its set. */
    std::size_t
    slotOf(Addr line_addr) const
    {
        const std::size_t base = std::size_t{setIndex(line_addr)} * ways_;
        for (unsigned w = 0; w < ways_; ++w)
            if (tags_[base + w] == line_addr)
                return base + w;
        return kNoSlot;
    }

    unsigned sets_;
    unsigned ways_;
    std::vector<LineT> lines_;
    std::vector<Addr> tags_;               ///< set-contiguous tag mirror
    std::vector<std::uint64_t> lastUse_;
    std::uint64_t clock_ = 0;
};

} // namespace duet

#endif // DUET_CACHE_CACHE_ARRAY_HH
