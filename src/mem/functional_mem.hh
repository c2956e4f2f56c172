/**
 * @file
 * Sparse functional memory: the single source of truth for data values.
 *
 * The timing model (caches, directory, NoC) decides *when* an access
 * completes; this object decides *what value* it observes. Atomic
 * operations are provided for the directory, which performs AMOs after
 * globally invalidating the line (see DESIGN.md).
 */

#ifndef DUET_MEM_FUNCTIONAL_MEM_HH
#define DUET_MEM_FUNCTIONAL_MEM_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>

#include "mem/addr.hh"
#include "sim/check.hh"

namespace duet
{

/** Atomic memory operation kinds (RISC-V "A" extension flavored). */
enum class AmoOp : std::uint8_t
{
    Swap,
    Add,
    And,
    Or,
    Xor,
    Max,
    Min,
    Cas, ///< compare-and-swap: operand = expected, operand2 = desired
};

/**
 * Byte-addressable sparse memory backed by 4 KB pages allocated on first
 * touch. Reads of untouched memory return zero.
 */
class FunctionalMemory
{
  public:
    /** Read @p size bytes (1-8, naturally aligned) as an integer. */
    std::uint64_t
    read(Addr a, unsigned size) const
    {
        checkAccess(a, size);
        const Page *p = findPage(a);
        if (!p)
            return 0;
        std::uint64_t v = 0;
        std::memcpy(&v, p->data() + pageOffset(a), size);
        return v;
    }

    /** Write the low @p size bytes of @p value at @p a. */
    void
    write(Addr a, unsigned size, std::uint64_t value)
    {
        checkAccess(a, size);
        Page &p = touchPage(a);
        std::memcpy(p.data() + pageOffset(a), &value, size);
    }

    /** Copy out an arbitrary byte range (may span pages). */
    void
    readBytes(Addr a, void *dst, std::size_t len) const
    {
        DUET_DCHECK(len == 0 || a + len > a,
                    "byte-range read wraps the address space");
        auto *out = static_cast<std::uint8_t *>(dst);
        while (len > 0) {
            std::size_t chunk =
                std::min<std::size_t>(len, kPageBytes - pageOffset(a));
            const Page *p = findPage(a);
            if (p)
                std::memcpy(out, p->data() + pageOffset(a), chunk);
            else
                std::memset(out, 0, chunk);
            a += chunk;
            out += chunk;
            len -= chunk;
        }
    }

    /** Copy in an arbitrary byte range (may span pages). */
    void
    writeBytes(Addr a, const void *src, std::size_t len)
    {
        DUET_DCHECK(len == 0 || a + len > a,
                    "byte-range write wraps the address space");
        auto *in = static_cast<const std::uint8_t *>(src);
        while (len > 0) {
            std::size_t chunk =
                std::min<std::size_t>(len, kPageBytes - pageOffset(a));
            Page &p = touchPage(a);
            std::memcpy(p.data() + pageOffset(a), in, chunk);
            a += chunk;
            in += chunk;
            len -= chunk;
        }
    }

    /**
     * Perform an atomic read-modify-write and return the *old* value.
     * For Cas, the store happens only if old == operand; the old value is
     * returned either way.
     */
    std::uint64_t
    amo(AmoOp op, Addr a, unsigned size, std::uint64_t operand,
        std::uint64_t operand2 = 0)
    {
        std::uint64_t old = read(a, size);
        std::uint64_t next = old;
        switch (op) {
          case AmoOp::Swap: next = operand; break;
          case AmoOp::Add:  next = old + operand; break;
          case AmoOp::And:  next = old & operand; break;
          case AmoOp::Or:   next = old | operand; break;
          case AmoOp::Xor:  next = old ^ operand; break;
          case AmoOp::Max:
            next = static_cast<std::int64_t>(old) >
                           static_cast<std::int64_t>(operand)
                       ? old
                       : operand;
            break;
          case AmoOp::Min:
            next = static_cast<std::int64_t>(old) <
                           static_cast<std::int64_t>(operand)
                       ? old
                       : operand;
            break;
          case AmoOp::Cas:
            next = (old == operand) ? operand2 : old;
            break;
        }
        if (next != old)
            write(a, size, next);
        return old;
    }

    /** Number of pages touched so far. */
    std::size_t pagesAllocated() const { return pages_.size(); }

  private:
    using Page = std::array<std::uint8_t, kPageBytes>;

    static void
    checkAccess(Addr a, unsigned size)
    {
        DUET_ASSERT(size >= 1 && size <= 8,
                    "access size must be 1-8 bytes");
        DUET_ASSERT(pageOffset(a) + size <= kPageBytes,
                    "access must not cross a page boundary");
        DUET_ASSERT((a & (size - 1)) == 0,
                    "access must be naturally aligned");
    }

    const Page *
    findPage(Addr a) const
    {
        const Addr pn = pageNumber(a);
        if (lastPage_ && lastPageNum_ == pn)
            return lastPage_;
        auto it = pages_.find(pn);
        if (it == pages_.end())
            return nullptr;
        lastPageNum_ = pn;
        lastPage_ = it->second.get();
        return lastPage_;
    }

    Page &
    touchPage(Addr a)
    {
        const Addr pn = pageNumber(a);
        if (lastPage_ && lastPageNum_ == pn)
            return *lastPage_;
        auto &slot = pages_[pn];
        if (!slot)
            slot = std::make_unique<Page>();
        lastPageNum_ = pn;
        lastPage_ = slot.get();
        return *slot;
    }

    std::unordered_map<Addr, std::unique_ptr<Page>> pages_;
    // 1-entry MRU page cache: workload access streams are page-local, so
    // this short-circuits most of the per-access hash lookups, including
    // the one behind every L1-hit load (Core::LoadOp reads here when its
    // resume fires). Safe to keep across inserts because Page storage is
    // heap-stable (the map rehashes unique_ptrs, not the pages). Never
    // caches absence: an absent page reads as zero without being
    // created, and the first write to it goes through touchPage().
    mutable Addr lastPageNum_ = 0;
    mutable Page *lastPage_ = nullptr;
};

} // namespace duet

#endif // DUET_MEM_FUNCTIONAL_MEM_HH
