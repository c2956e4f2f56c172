/**
 * @file
 * C++20 coroutine plumbing for simulated threads of execution.
 *
 * Workloads (software running on simulated cores) and soft accelerators
 * (logic emulated in the eFPGA clock domain) are written as coroutines that
 * co_await simulated operations. The kernel provides:
 *
 *  - CoTask<T>: a lazy, awaitable subtask with continuation chaining, so a
 *    workload can be factored into ordinary-looking functions;
 *  - PendingValue<T>/PendingVoid: the one rendezvous between a coroutine
 *    and the event-queue callback that completes its operation — the
 *    pending state (value, waiter handle, flag) lives inside the
 *    awaitable itself, so a simulated operation allocates nothing and
 *    touches no refcount;
 *  - spawn(): detach a CoTask<void> as a top-level simulated thread,
 *    registered with the current System's DetachedPool (sim/arena.hh);
 *  - ClockDelay: co_await n cycles in a clock domain — the one way to
 *    wait, from II=1 accelerator pipelines to spin loops: the event
 *    queue resumes the frame straight from its node, with no callback.
 *
 * Coroutine frames, CoTask subtasks and spawned threads alike, come from
 * the global allocator.
 */

#ifndef DUET_SIM_TASK_HH
#define DUET_SIM_TASK_HH

#include <coroutine>
#include <cstdint>
#include <utility>

#include "sim/arena.hh"
#include "sim/check.hh"
#include "sim/clock.hh"
#include "sim/logging.hh"

namespace duet
{

/**
 * A lazy coroutine task returning T. Starts when awaited; resumes its
 * awaiter (via symmetric transfer) when it finishes.
 */
template <typename T>
class [[nodiscard]] CoTask
{
  public:
    struct promise_type;
    using Handle = std::coroutine_handle<promise_type>;

    struct FinalAwaiter
    {
        bool await_ready() const noexcept { return false; }

        std::coroutine_handle<>
        await_suspend(Handle h) const noexcept
        {
            auto cont = h.promise().continuation;
            return cont ? cont : std::noop_coroutine();
        }

        void await_resume() const noexcept {}
    };

    struct promise_type
    {
        // Raw storage + flag rather than std::optional: the value path
        // is one load and one branch. T must be default-constructible
        // (every simulator CoTask returns an arithmetic type).
        T value{};
        bool hasValue = false;
        std::coroutine_handle<> continuation;

        CoTask get_return_object() { return CoTask(Handle::from_promise(*this)); }
        std::suspend_always initial_suspend() noexcept { return {}; }
        FinalAwaiter final_suspend() noexcept { return {}; }

        void
        return_value(T v)
        {
            value = std::move(v);
            hasValue = true;
        }

        void unhandled_exception() { std::terminate(); }
    };

    CoTask(CoTask &&other) noexcept : h_(std::exchange(other.h_, nullptr)) {}
    CoTask(const CoTask &) = delete;
    CoTask &operator=(const CoTask &) = delete;

    ~CoTask()
    {
        if (h_)
            h_.destroy();
    }

    // Awaitable interface: starting the subtask hands control to it.
    bool await_ready() const noexcept { return false; }

    std::coroutine_handle<>
    await_suspend(std::coroutine_handle<> cont)
    {
        DUET_ASSERT(h_ != nullptr, "awaiting a moved-from CoTask");
        DUET_ASSERT(!h_.promise().continuation, "CoTask awaited twice");
        h_.promise().continuation = cont;
        return h_;
    }

    T
    await_resume()
    {
        DUET_DCHECK(h_.promise().hasValue,
                    "CoTask resumed without a return value");
        return std::move(h_.promise().value);
    }

  private:
    explicit CoTask(Handle h) : h_(h) {}

    /// Owning handle; null only after a move-out, so the destructor
    /// destroys each coroutine frame exactly once.
    Handle h_;
};

/** CoTask specialization for void-returning subtasks. */
template <>
class [[nodiscard]] CoTask<void>
{
  public:
    struct promise_type;
    using Handle = std::coroutine_handle<promise_type>;

    struct FinalAwaiter
    {
        bool await_ready() const noexcept { return false; }

        std::coroutine_handle<>
        await_suspend(Handle h) const noexcept
        {
            auto cont = h.promise().continuation;
            return cont ? cont : std::noop_coroutine();
        }

        void await_resume() const noexcept {}
    };

    struct promise_type
    {
        std::coroutine_handle<> continuation;

        CoTask get_return_object() { return CoTask(Handle::from_promise(*this)); }
        std::suspend_always initial_suspend() noexcept { return {}; }
        FinalAwaiter final_suspend() noexcept { return {}; }
        void return_void() {}
        void unhandled_exception() { std::terminate(); }
    };

    CoTask(CoTask &&other) noexcept : h_(std::exchange(other.h_, nullptr)) {}
    CoTask(const CoTask &) = delete;
    CoTask &operator=(const CoTask &) = delete;

    ~CoTask()
    {
        if (h_)
            h_.destroy();
    }

    bool await_ready() const noexcept { return false; }

    std::coroutine_handle<>
    await_suspend(std::coroutine_handle<> cont)
    {
        DUET_ASSERT(h_ != nullptr, "awaiting a moved-from CoTask");
        DUET_ASSERT(!h_.promise().continuation, "CoTask awaited twice");
        h_.promise().continuation = cont;
        return h_;
    }

    void await_resume() {}

  private:
    explicit CoTask(Handle h) : h_(h) {}

    /// Owning handle; null only after a move-out, so the destructor
    /// destroys each coroutine frame exactly once.
    Handle h_;
};

namespace detail
{

/** Self-destroying top-level coroutine used by spawn(). */
struct Detached
{
    struct promise_type
    {
        /// The pool this frame joined at spawn time; another System's
        /// may be current by the time it completes.
        DetachedPool *pool = &DetachedPool::current();

        Detached
        get_return_object()
        {
            pool->add(
                std::coroutine_handle<promise_type>::from_promise(*this));
            return {};
        }

        std::suspend_never initial_suspend() noexcept { return {}; }

        /** Unregister, then destroy the frame — completion is the one
         *  place a detached frame may destroy itself (drain() owns the
         *  suspended ones). */
        struct FinalAwaiter
        {
            bool await_ready() const noexcept { return false; }

            void
            await_suspend(std::coroutine_handle<promise_type> h)
                const noexcept
            {
                h.promise().pool->remove(h);
                h.destroy();
            }

            void await_resume() const noexcept {}
        };

        FinalAwaiter final_suspend() noexcept { return {}; }
        void return_void() {}
        void unhandled_exception() { std::terminate(); }
    };
};

inline Detached
spawnImpl(CoTask<void> task)
{
    co_await std::move(task);
}

} // namespace detail

/**
 * Detach @p task as an independent simulated thread. The task starts
 * executing immediately (in the caller's event context) until its first
 * suspension point. The frame joins the DetachedPool of the newest
 * System alive on this thread; frames still suspended when the
 * simulation ends are reclaimed by that System's destructor or reset(),
 * or by drainDetachedTasks() outside any System.
 */
inline void
spawn(CoTask<void> task)
{
    detail::spawnImpl(std::move(task));
}

/**
 * Destroy every frame in the current DetachedPool that never ran to
 * completion — outside any System, the frames a bare event-queue
 * simulation spawned. Call only after the event loop that could resume
 * them has stopped for good. A System drains its own pool on
 * destruction and reset(), so accelerator threads parked in their
 * request loops don't outlive (and leak past) the simulated machine.
 */
inline void
drainDetachedTasks()
{
    DetachedPool::current().drain();
}

/**
 * Intrusive awaitable base for a simulated operation producing a T.
 *
 * The pending state — value, waiter handle, completion flag — lives
 * inside the awaitable object itself, which in turn lives inside the
 * awaiting coroutine's frame (the co_await temporary). Returning one by
 * prvalue from an op factory (Core::load etc.) constructs it directly
 * there via guaranteed copy elision, so the address captured by the
 * completion callback is stable for the operation's whole lifetime. The
 * result: zero allocations, zero refcounts, zero std::optional per
 * access — the pending state is three words the frame already owns.
 *
 * Contract: the derived op must be awaited exactly once, before the
 * frame that owns it dies; fulfill() must be called exactly once.
 * Non-movable by design — the completion callback holds `this`.
 */
template <typename T>
class PendingValue
{
  public:
    PendingValue() = default;
    PendingValue(const PendingValue &) = delete;
    PendingValue &operator=(const PendingValue &) = delete;

    bool await_ready() const noexcept { return has_; }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        simAssert(!waiter_, "pending op awaited twice");
        waiter_ = h;
    }

    T
    await_resume()
    {
        DUET_DCHECK(has_, "pending op resumed before completion");
        return std::move(value_);
    }

    /**
     * Deliver the result. If the consumer is already suspended on this
     * op, resume it inline (this is the tail of the producing event's
     * callback); if not — the pre-resolved fast path, e.g. an L1 hit
     * fulfilled before the co_await ran — await_ready() short-circuits
     * the suspension entirely.
     */
    void
    fulfill(T v)
    {
        simAssert(!has_, "pending op fulfilled twice");
        value_ = std::move(v);
        has_ = true;
        if (waiter_) {
            auto w = std::exchange(waiter_, nullptr);
            // Tail position: resuming the waiter may destroy the frame
            // holding *this, so no member access past this point.
            w.resume();
        }
    }

  protected:
    ~PendingValue() = default;

  private:
    T value_{};
    std::coroutine_handle<> waiter_;
    bool has_ = false;
};

/** PendingValue analogue for completion-only (void) operations. */
class PendingVoid
{
  public:
    PendingVoid() = default;
    PendingVoid(const PendingVoid &) = delete;
    PendingVoid &operator=(const PendingVoid &) = delete;

    bool await_ready() const noexcept { return done_; }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        simAssert(!waiter_, "pending op awaited twice");
        waiter_ = h;
    }

    void await_resume() const noexcept
    {
        DUET_DCHECK(done_, "pending op resumed before completion");
    }

    void
    fulfill()
    {
        simAssert(!done_, "pending op fulfilled twice");
        done_ = true;
        if (waiter_) {
            auto w = std::exchange(waiter_, nullptr);
            // Tail position — see PendingValue::fulfill().
            w.resume();
        }
    }

  protected:
    ~PendingVoid() = default;

  private:
    std::coroutine_handle<> waiter_;
    bool done_ = false;
};

/**
 * Awaitable that suspends for @p cycles rising edges of a clock domain.
 * Resumes on the target edge (aligned: first edge at-or-after now, plus
 * further whole periods). The suspension is one event-queue node that
 * names the frame (EventQueue::resumeAt): nothing is allocated or
 * type-erased, and the profiler attributes the resume to "cpu".
 */
class ClockDelay
{
  public:
    ClockDelay(const ClockDomain &clk, Cycles cycles)
        : clk_(clk), cycles_(cycles)
    {}

    bool await_ready() const noexcept { return false; }

    void
    await_suspend(std::coroutine_handle<> h) const
    {
        clk_.eventQueue().resumeAt(clk_.edgeAfterCycles(cycles_), h);
    }

    void await_resume() const noexcept {}

  private:
    const ClockDomain &clk_;
    Cycles cycles_;
};

} // namespace duet

#endif // DUET_SIM_TASK_HH
