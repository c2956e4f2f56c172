#include "sim/arena.hh"

namespace duet
{

thread_local FrameArena *FrameArena::newest_ = nullptr;

FrameArena::FrameArena() : older_(newest_)
{
    if (older_)
        older_->newer_ = this;
    newest_ = this;
}

FrameArena::~FrameArena()
{
    if (older_)
        older_->newer_ = newer_;
    if (newer_)
        newer_->older_ = older_;
    else
        newest_ = older_;
}

bool FrameArena::isCurrent() const { return newest_ == this; }

DetachedPool &
DetachedPool::current()
{
    thread_local DetachedPool noArena;
    FrameArena *a = FrameArena::newest_;
    return a ? a->detached_ : noArena;
}

} // namespace duet
