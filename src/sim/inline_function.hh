/**
 * @file
 * A move-only callable wrapper with inline (small-buffer) storage.
 *
 * The simulator schedules millions of short-lived callbacks per scenario:
 * event-queue events, cache completion callbacks, NoC sinks. With
 * std::function, every capture larger than the library's tiny SSO buffer
 * (16 bytes on libstdc++) round-trips through malloc — one allocation and
 * one free per simulated event. InlineFunction stores every capture
 * inline, within a caller-chosen byte budget (no allocation, trivially
 * relocated by the owner's container): a capture past the budget in
 * size or alignment, or one whose move can throw, does not compile, so
 * a callback slot never allocates. A capture that is trivially copyable
 * and trivially destructible (only pointers and integers, like the
 * CacheReq completions) installs no manager at all: moving it is a
 * fixed-size buffer copy and dropping it clears the invoke pointer, with
 * no indirect call on either path.
 *
 * Differences from std::function, on purpose:
 *  - move-only (copying a capture would be a hidden cost; none of the
 *    simulator's callback slots need copies),
 *  - no target_type()/target() RTTI,
 *  - invoking an empty InlineFunction is a DUET_ASSERT violation, not
 *    std::bad_function_call.
 *
 * This header is on the event-queue include path: it must stay free of
 * std::function (tools/lint_sim.py R7 bans it from the hot headers).
 */

#ifndef DUET_SIM_INLINE_FUNCTION_HH
#define DUET_SIM_INLINE_FUNCTION_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "sim/check.hh"

namespace duet
{

template <typename Signature, std::size_t Bytes = 48>
class InlineFunction;

/**
 * @tparam R/Args  the call signature, std::function style
 * @tparam Bytes   inline capture budget; only callables that fit (size
 *                 and alignment) and are nothrow-move-constructible
 *                 compile
 */
template <typename R, typename... Args, std::size_t Bytes>
class InlineFunction<R(Args...), Bytes>
{
    /// Storage-management operation, dispatched through one manager
    /// function pointer per concrete callable type.
    enum class Op : std::uint8_t
    {
        MoveTo,  ///< move-construct into dst from src, destroy src
        Destroy, ///< destroy src
    };

    using InvokeFn = R (*)(void *, Args...);
    using ManageFn = void (*)(Op, void *src, void *dst) noexcept;

    /// A capture whose bytes are its value: it relocates by copying the
    /// buffer and needs no teardown, so it gets no manager.
    template <typename F>
    static constexpr bool bitwiseInline =
        std::is_trivially_copyable_v<F> &&
        std::is_trivially_destructible_v<F>;

  public:
    /// The inline capture budget, for tests probing the boundary.
    static constexpr std::size_t kInlineBytes = Bytes;

    /// Whether a callable of type F can be held: emplace() asserts it.
    template <typename F>
    static constexpr bool fitsInline =
        sizeof(F) <= Bytes && alignof(F) <= alignof(std::max_align_t) &&
        std::is_nothrow_move_constructible_v<F>;

    InlineFunction() = default;
    InlineFunction(std::nullptr_t) {} // NOLINT(google-explicit-constructor)

    /** Wrap any callable with a matching signature. Implicit, so lambdas
     *  convert at call sites exactly as they did with std::function. */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::remove_cvref_t<F>, InlineFunction> &&
                  std::is_invocable_r_v<R, std::remove_cvref_t<F> &,
                                        Args...>>>
    InlineFunction(F &&f) // NOLINT(google-explicit-constructor)
    {
        emplace(std::forward<F>(f));
    }

    InlineFunction(InlineFunction &&other) noexcept { moveFrom(other); }

    InlineFunction &
    operator=(InlineFunction &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    InlineFunction(const InlineFunction &) = delete;
    InlineFunction &operator=(const InlineFunction &) = delete;

    ~InlineFunction() { reset(); }

    /** Drop the held callable (if any); leaves *this empty. A bitwise
     *  capture has no manager and nothing to destroy. */
    void
    reset() noexcept
    {
        if (manage_) {
            manage_(Op::Destroy, &buf_, nullptr);
            manage_ = nullptr;
        }
        invoke_ = nullptr;
    }

    explicit operator bool() const noexcept { return invoke_ != nullptr; }
    bool operator==(std::nullptr_t) const noexcept { return !invoke_; }

    R
    operator()(Args... args) const
    {
        DUET_ASSERT(invoke_ != nullptr, "invoking an empty InlineFunction");
        return invoke_(bufPtr(), std::forward<Args>(args)...);
    }

    /** Replace the held callable with @p f, constructed directly in this
     *  object's storage. Public so owners of callable slots (the event
     *  queue's slab) can build the callable in place instead of moving a
     *  temporary InlineFunction in. */
    template <typename F>
    void
    emplace(F &&f)
    {
        reset();
        using Fn = std::remove_cvref_t<F>;
        static_assert(fitsInline<Fn>,
                      "capture exceeds the InlineFunction budget: at most "
                      "Bytes in size, max_align_t in alignment, and a "
                      "nothrow move");
        // A bitwise capture moves by copying the whole buffer, so the
        // bytes past (and inside) it get a value first.
        if constexpr (bitwiseInline<Fn>)
            std::memset(&buf_, 0, Bytes);
        ::new (static_cast<void *>(&buf_)) Fn(std::forward<F>(f));
        invoke_ = [](void *p, Args... args) -> R {
            return (*static_cast<Fn *>(p))(std::forward<Args>(args)...);
        };
        if constexpr (!bitwiseInline<Fn>) {
            manage_ = +[](Op op, void *src, void *dst) noexcept {
                Fn *from = static_cast<Fn *>(src);
                if (op == Op::MoveTo)
                    ::new (dst) Fn(std::move(*from));
                from->~Fn();
            };
        }
    }

  private:
    /** Take @p other's callable; @pre *this is empty. A bitwise capture
     *  (no manager) relocates by copying the whole fixed-size buffer. */
    void
    moveFrom(InlineFunction &other) noexcept
    {
        if (!other.invoke_)
            return;
        if (other.manage_) {
            other.manage_(Op::MoveTo, &other.buf_, &buf_);
        } else {
            // lint: checked-memcpy(both buffers are exactly Bytes long)
            std::memcpy(&buf_, &other.buf_, Bytes);
        }
        invoke_ = other.invoke_;
        manage_ = other.manage_;
        other.invoke_ = nullptr;
        other.manage_ = nullptr;
    }

    /// buf_ is mutable, so a const *this still yields a non-const
    /// callable address (matching std::function's const operator()).
    void *bufPtr() const noexcept { return static_cast<void *>(&buf_); }

    alignas(std::max_align_t) mutable unsigned char buf_[Bytes];
    InvokeFn invoke_ = nullptr;
    ManageFn manage_ = nullptr;
};

/**
 * A one-shot callable slot for owners that invoke a callback exactly once
 * and never move it (the event queue's slab). Where InlineFunction pays
 * two indirect calls per dispatch (invoke, then the manager's destroy),
 * OneShotFunction fuses run-and-destroy into a single trampoline: one
 * indirect call per simulated event, and the capture's destructor code
 * sits in the same function as its invocation. The slot itself is
 * pinned — no move or copy support — which is exactly the slab contract.
 *
 * @tparam Bytes inline capture budget, as in InlineFunction.
 */
template <std::size_t Bytes = 48>
class OneShotFunction
{
    enum class Act : std::uint8_t
    {
        RunDestroy, ///< invoke the capture, then destroy it
        Destroy,    ///< destroy the capture without running it
    };

    using Fn = void (*)(Act, void *);

  public:
    /// The inline capture budget, for tests probing the boundary.
    static constexpr std::size_t kInlineBytes = Bytes;

    /// Whether a callable of type F can be held: emplace() asserts it.
    template <typename F>
    static constexpr bool fitsInline =
        sizeof(F) <= Bytes && alignof(F) <= alignof(std::max_align_t) &&
        std::is_nothrow_move_constructible_v<F>;

    OneShotFunction() = default;
    OneShotFunction(const OneShotFunction &) = delete;
    OneShotFunction &operator=(const OneShotFunction &) = delete;
    ~OneShotFunction() { reset(); }

    bool empty() const noexcept { return fn_ == nullptr; }

    /** Construct @p f directly in this slot. @pre empty() */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::remove_cvref_t<F>, OneShotFunction> &&
                  std::is_invocable_r_v<void, std::remove_cvref_t<F> &>>>
    void
    emplace(F &&f)
    {
        DUET_DCHECK(fn_ == nullptr, "emplace into an occupied one-shot slot");
        using Fn_t = std::remove_cvref_t<F>;
        static_assert(fitsInline<Fn_t>,
                      "capture exceeds the OneShotFunction budget: at most "
                      "Bytes in size, max_align_t in alignment, and a "
                      "nothrow move");
        ::new (static_cast<void *>(&buf_)) Fn_t(std::forward<F>(f));
        fn_ = [](Act act, void *p) {
            Fn_t *obj = static_cast<Fn_t *>(p);
            if (act == Act::RunDestroy)
                (*obj)();
            obj->~Fn_t();
        };
    }

    /**
     * Invoke the capture and destroy it: one indirect call. The slot is
     * emptied after a successful run; if the capture throws, it stays
     * occupied (still un-run per the trampoline) so reset()/~ can
     * reclaim it.
     * @pre !empty()
     */
    void
    runDestroy()
    {
        DUET_ASSERT(fn_ != nullptr, "running an empty one-shot slot");
        fn_(Act::RunDestroy, &buf_);
        fn_ = nullptr;
    }

    /** Destroy the capture without running it (pending-event teardown);
     *  no-op when empty. */
    void
    reset() noexcept
    {
        if (fn_ != nullptr) {
            fn_(Act::Destroy, &buf_);
            fn_ = nullptr;
        }
    }

  private:
    alignas(std::max_align_t) unsigned char buf_[Bytes];
    Fn fn_ = nullptr;
};

template <typename Signature>
class FunctionRef;

/**
 * A copyable, non-owning reference to a callable — for hooks carried
 * inside copyable configuration structs, where the owning InlineFunction
 * above cannot go and std::function may not (lint R7 bans it from hot
 * headers). Two raw words: the callable's address and a trampoline.
 *
 * The referenced callable must outlive every call through the ref. Only
 * non-const lvalue callables bind, so assigning a temporary lambda is
 * rejected at compile time instead of dangling at run time.
 */
template <typename R, typename... Args>
class FunctionRef<R(Args...)>
{
  public:
    FunctionRef() = default;
    FunctionRef(std::nullptr_t) {} // NOLINT(google-explicit-constructor)

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
                  !std::is_const_v<F> &&
                  std::is_invocable_r_v<R, F &, Args...>>>
    FunctionRef(F &f) noexcept // NOLINT(google-explicit-constructor)
        : obj_(static_cast<void *>(std::addressof(f))),
          invoke_([](void *o, Args... args) -> R {
              return (*static_cast<F *>(o))(std::forward<Args>(args)...);
          })
    {
    }

    explicit operator bool() const noexcept { return invoke_ != nullptr; }

    R
    operator()(Args... args) const
    {
        DUET_ASSERT(invoke_ != nullptr, "invoking an empty FunctionRef");
        return invoke_(obj_, std::forward<Args>(args)...);
    }

  private:
    void *obj_ = nullptr;
    R (*invoke_)(void *, Args...) = nullptr;
};

} // namespace duet

#endif // DUET_SIM_INLINE_FUNCTION_HH
