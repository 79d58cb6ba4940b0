// Small-buffer, move-only callable — the event core's replacement for
// std::function.
//
// Every packet milestone in the simulator is a scheduled callback, so the
// per-event cost of type-erasing a lambda bounds whole-stack simulation rate.
// std::function heap-allocates once the capture list outgrows its tiny
// internal buffer and requires the callable to be copyable (forcing
// shared_ptr wrappers around move-only captures like PacketPtr).
// InlineFunction fixes both:
//
//  * 48 bytes of inline storage — every callback lambda in the stack (a
//    `this` pointer plus a few scalars or one PacketPtr) fits, and nothing
//    touches the heap. A larger callable (or an over-aligned one, or one
//    whose move can throw) does not compile.
//  * move-only semantics — unique_ptr captures are taken directly.
//
// Type erasure uses two raw function pointers (invoke + manage) instead of a
// vtable, so an InlineFunction is exactly `kInlineCallbackSize + 16` bytes.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace muzha {

// Inline capture budget. 48 bytes holds a `this` pointer plus five words of
// captures; tests/compile_fail/oversized_event_callback.cc pins that a
// seven-word callable is rejected.
inline constexpr std::size_t kInlineCallbackSize = 48;

template <typename Signature>
class InlineFunction;

template <typename R, typename... Args>
class InlineFunction<R(Args...)> {
 public:
  InlineFunction() noexcept = default;
  InlineFunction(std::nullptr_t) noexcept {}

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<D, InlineFunction> &&
                std::is_invocable_r_v<R, D&, Args...>>>
  InlineFunction(F&& f) { emplace(std::forward<F>(f)); }

  InlineFunction(InlineFunction&& other) noexcept { move_from(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  InlineFunction& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  // Assign a raw callable in place — no temporary InlineFunction, no move
  // through the type-erasure layer (the scheduler's schedule path leans on
  // this).
  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<D, InlineFunction> &&
                !std::is_same_v<D, std::nullptr_t> &&
                std::is_invocable_r_v<R, D&, Args...>>>
  InlineFunction& operator=(F&& f) {
    reset();
    emplace(std::forward<F>(f));
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

  R operator()(Args... args) {
    return invoke_(storage_, std::forward<Args>(args)...);
  }

  // True when the callable fits the inline buffer, i.e. when an
  // InlineFunction can hold it at all. Exposed so tests can pin capture
  // shapes.
  template <typename F>
  static constexpr bool stored_inline() {
    return fits_inline<std::decay_t<F>>();
  }

 private:
  enum class Op { kDestroy, kMoveTo };

  template <typename D>
  static constexpr bool fits_inline() {
    return sizeof(D) <= kInlineCallbackSize &&
           alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  template <typename D>
  static R inline_invoke(unsigned char* s, Args... args) {
    return (*std::launder(reinterpret_cast<D*>(s)))(
        std::forward<Args>(args)...);
  }

  template <typename D>
  static void inline_manage(Op op, unsigned char* self, unsigned char* dest) {
    D* f = std::launder(reinterpret_cast<D*>(self));
    if (op == Op::kMoveTo) ::new (static_cast<void*>(dest)) D(std::move(*f));
    f->~D();
  }

  template <typename F, typename D = std::decay_t<F>>
  void emplace(F&& f) {
    static_assert(fits_inline<D>(),
                  "callback exceeds kInlineCallbackSize, is over-aligned or "
                  "has a throwing move: capture less (e.g. a pointer to the "
                  "state)");
    ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
    invoke_ = &inline_invoke<D>;
    manage_ = &inline_manage<D>;
  }

  void move_from(InlineFunction& other) noexcept {
    if (other.invoke_ == nullptr) return;
    other.manage_(Op::kMoveTo, other.storage_, storage_);
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }

  void reset() noexcept {
    if (invoke_ != nullptr) {
      manage_(Op::kDestroy, storage_, nullptr);
      invoke_ = nullptr;
      manage_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineCallbackSize];
  R (*invoke_)(unsigned char*, Args...) = nullptr;
  void (*manage_)(Op, unsigned char*, unsigned char*) = nullptr;
};

}  // namespace muzha
