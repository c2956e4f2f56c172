#include "sim/arena.hh"

#include <memory>
#include <new>
#include <vector>

namespace duet
{

namespace
{

/// Header magics for --paranoid double-free detection.
constexpr std::uint32_t kMagicLive = 0xA11F'00D5u;
constexpr std::uint32_t kMagicFree = 0xF4EE'B10Cu;

} // namespace

/**
 * The arena's real state. Heap-allocated and reference-held by the
 * owning FrameArena plus (logically) every outstanding block: when the
 * FrameArena dies first it orphans the Ctl, and the last block returned
 * deletes it. Slab storage is only released with the Ctl, so live
 * blocks never dangle.
 */
struct FrameArena::Ctl
{
    static constexpr std::size_t kNumBuckets =
        kMaxBlockBytes / kGranularity;

    /// One singly-linked LIFO free list per size bucket; the link
    /// pointer lives in the (dead) payload.
    void *freeList[kNumBuckets] = {};

    std::vector<std::unique_ptr<unsigned char[]>> slabs;
    unsigned char *bump = nullptr;
    std::size_t bumpLeft = 0;

    DetachedPool detached;     ///< spawn()ed frames, see DetachedPool

    std::size_t live = 0;      ///< blocks out in the wild
    bool orphaned = false;     ///< owning FrameArena destroyed
    std::size_t slabBytes = 0;
    std::uint64_t freeListHits = 0;
    std::uint64_t slabCarves = 0;
};

namespace
{

/**
 * Every block starts with one of these; the payload follows. 16 bytes,
 * so a 16-aligned block keeps the payload 16-aligned (enough for
 * max_align_t on the targets we build for).
 */
struct Header
{
    FrameArena::Ctl *owner; ///< null: global-new fallback block
    std::uint32_t bucket;
    std::uint32_t magic;
};

static_assert(sizeof(Header) == 16, "header must preserve alignment");
static_assert(alignof(std::max_align_t) <= 16,
              "slab carving assumes 16-byte max alignment");

void *
payloadOf(Header *h)
{
    return reinterpret_cast<unsigned char *>(h) + sizeof(Header);
}

Header *
headerOf(void *payload)
{
    return reinterpret_cast<Header *>(
        static_cast<unsigned char *>(payload) - sizeof(Header));
}

void *
globalAlloc(std::size_t n)
{
    auto *h = static_cast<Header *>(::operator new(sizeof(Header) + n));
    h->owner = nullptr;
    h->bucket = 0;
    h->magic = kMagicLive;
    return payloadOf(h);
}

} // namespace

thread_local FrameArena::Ctl *FrameArena::current_ = nullptr;

ArenaScope::ArenaScope(FrameArena &arena) : prev_(FrameArena::current_)
{
    FrameArena::current_ = arena.ctl_;
}

ArenaScope::~ArenaScope() { FrameArena::current_ = prev_; }

FrameArena::FrameArena() : ctl_(new Ctl) {}

FrameArena::~FrameArena()
{
    Ctl *c = ctl_;
    if (c->live == 0) {
        delete c;
    } else {
        // Frames that outlive the System (shouldn't happen, but a user
        // holding a CoTask across ~System is legal C++): keep the slabs
        // alive until the last block is returned.
        c->orphaned = true;
    }
    // A dangling current_ would still be memory-safe (the Ctl outlives
    // its blocks), but clear it if it points at us so later allocations
    // don't pool into a dying arena.
    if (current_ == c)
        current_ = nullptr;
}

void *
FrameArena::allocateRaw(std::size_t n)
{
    Ctl *c = current_;
    if (!c || n > kMaxBlockBytes || n == 0)
        return globalAlloc(n);

    const std::size_t bucket = (n - 1) / kGranularity;
    const std::size_t payload = (bucket + 1) * kGranularity;

    Header *h;
    if (void *reuse = c->freeList[bucket]) {
        // Pop the LIFO: the link pointer is stored in the dead payload.
        c->freeList[bucket] = *static_cast<void **>(reuse);
        h = headerOf(reuse);
        DUET_DCHECK(h->magic == kMagicFree,
                    "arena free-list block with live magic");
        ++c->freeListHits;
    } else {
        const std::size_t block = sizeof(Header) + payload;
        if (c->bumpLeft < block) {
            // Not zero-filled: a block's header and free-list link are
            // written before use, and untouched pages stay unmapped.
            c->slabs.push_back(
                std::make_unique_for_overwrite<unsigned char[]>(kSlabBytes));
            c->bump = c->slabs.back().get();
            c->bumpLeft = kSlabBytes;
            c->slabBytes += kSlabBytes;
        }
        h = reinterpret_cast<Header *>(c->bump);
        c->bump += block;
        c->bumpLeft -= block;
        ++c->slabCarves;
    }

    h->owner = c;
    h->bucket = static_cast<std::uint32_t>(bucket);
    h->magic = kMagicLive;
    ++c->live;
    return payloadOf(h);
}

void
FrameArena::deallocateRaw(void *p)
{
    if (!p)
        return;
    Header *h = headerOf(p);
    DUET_DCHECK(h->magic == kMagicLive,
                h->magic == kMagicFree ? "arena block double-freed"
                                       : "arena free of foreign pointer");
    if (!h->owner) {
        ::operator delete(h);
        return;
    }

    Ctl *c = h->owner;
    h->magic = kMagicFree;
    *static_cast<void **>(p) = c->freeList[h->bucket];
    c->freeList[h->bucket] = p;

    DUET_DCHECK(c->live > 0, "arena live-block count underflow");
    if (--c->live == 0 && c->orphaned)
        delete c;
}

DetachedPool &
DetachedPool::current()
{
    thread_local DetachedPool noArena;
    FrameArena::Ctl *c = FrameArena::current_;
    return c ? c->detached : noArena;
}

DetachedPool &FrameArena::detached() { return ctl_->detached; }
std::size_t FrameArena::liveBlocks() const { return ctl_->live; }
std::size_t FrameArena::slabBytes() const { return ctl_->slabBytes; }
std::uint64_t FrameArena::freeListHits() const { return ctl_->freeListHits; }
std::uint64_t FrameArena::slabCarves() const { return ctl_->slabCarves; }
bool FrameArena::isCurrent() const { return current_ == ctl_; }

} // namespace duet
