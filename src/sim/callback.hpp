// callback.hpp — the event kernel's move-only callable with inline storage.
//
// Every simulator event carries one Callback. A capture of up to
// kInlineBytes (8-byte aligned, nothrow-movable) is stored inside the object,
// so scheduling the hot-path closures touches no heap. The largest of them,
// LvrmSystem's pipeline-latency hand-off `[this, s, f]` (two pointers and a
// 144 B FrameMeta), is 160 B. Larger or over-aligned captures spill to
// one heap allocation. Unlike std::function, a Callback is move-only, so it
// also accepts move-only captures such as a std::unique_ptr.
#pragma once

#include <cstddef>
#include <cstring>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace lvrm::sim {

namespace detail {
template <typename T>
inline constexpr bool kIsStdFunction = false;
template <typename Sig>
inline constexpr bool kIsStdFunction<std::function<Sig>> = true;
}  // namespace detail

class Callback {
 public:
  /// Inline capture capacity: the 160 B hot capture above, rounded up so an
  /// event-queue slot (a Callback plus its 8 B sequence number) fills
  /// exactly three cache lines.
  static constexpr std::size_t kInlineBytes = 176;
  static constexpr std::size_t kInlineAlign = alignof(void*);

  /// True when a callable of type F is stored without a heap allocation.
  template <typename F>
  static constexpr bool stores_inline =
      sizeof(F) <= kInlineBytes && alignof(F) <= kInlineAlign &&
      std::is_nothrow_move_constructible_v<F>;

  Callback() noexcept = default;
  Callback(std::nullptr_t) noexcept {}  // NOLINT: implicit, like std::function

  /// Wraps `f`. A null function pointer or an empty std::function gives an
  /// empty Callback, as with std::function.
  template <typename F, typename D = std::decay_t<F>>
    requires(!std::is_same_v<D, Callback> && std::is_invocable_v<D&>)
  Callback(F&& f) {  // NOLINT: implicit, like std::function
    if (is_null(f)) return;
    if constexpr (stores_inline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
    } else {
      D* boxed = new D(std::forward<F>(f));
      std::memcpy(buf_, &boxed, sizeof boxed);
    }
    ops_ = &kOps<D>;
  }

  Callback(Callback&& other) noexcept { take(other); }
  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;
  ~Callback() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Invokes the callable; throws std::bad_function_call when empty.
  void operator()() {
    if (ops_ == nullptr) throw std::bad_function_call();
    ops_->invoke(buf_);
  }

  /// Destroys the callable, leaving the Callback empty. The Callback is
  /// already empty while the callable's destructor runs.
  void reset() noexcept {
    if (ops_ == nullptr) return;
    const Ops* ops = ops_;
    ops_ = nullptr;
    if (ops->destroy != nullptr) ops->destroy(buf_);
  }

 private:
  struct Ops {
    void (*invoke)(void* buf);
    /// Moves the callable from `from` into raw storage `to` and ends the
    /// source's lifetime. Null: copying the first `bytes` bytes of the
    /// buffer is a move.
    void (*relocate)(void* from, void* to) noexcept;
    /// Null: nothing to destroy.
    void (*destroy)(void* buf) noexcept;
    /// Bytes of the buffer in use: the capture, or the box pointer.
    std::size_t bytes;
  };

  template <typename D>
  static D* inline_ptr(void* buf) noexcept {
    return std::launder(static_cast<D*>(buf));
  }
  template <typename D>
  static D* boxed_ptr(void* buf) noexcept {
    D* boxed = nullptr;
    std::memcpy(&boxed, buf, sizeof boxed);
    return boxed;
  }

  template <typename D>
  static constexpr Ops make_ops() {
    if constexpr (stores_inline<D>) {
      Ops ops{[](void* buf) { (*inline_ptr<D>(buf))(); }, nullptr, nullptr,
              sizeof(D)};
      if constexpr (!std::is_trivially_copyable_v<D>) {
        ops.relocate = [](void* from, void* to) noexcept {
          D* src = inline_ptr<D>(from);
          ::new (to) D(std::move(*src));
          src->~D();
        };
      }
      if constexpr (!std::is_trivially_destructible_v<D>)
        ops.destroy = [](void* buf) noexcept { inline_ptr<D>(buf)->~D(); };
      return ops;
    } else {
      // The buffer holds only the pointer, which copies like any bytes.
      return Ops{[](void* buf) { (*boxed_ptr<D>(buf))(); }, nullptr,
                 [](void* buf) noexcept { delete boxed_ptr<D>(buf); },
                 sizeof(D*)};
    }
  }
  template <typename D>
  static constexpr Ops kOps = make_ops<D>();

  template <typename D>
  static bool is_null(const D& f) noexcept {
    if constexpr (std::is_pointer_v<D>)
      return f == nullptr;
    else if constexpr (detail::kIsStdFunction<D>)
      return !f;
    else
      return false;
  }

  void take(Callback& other) noexcept {
    if (other.ops_ == nullptr) return;
    if (other.ops_->relocate != nullptr)
      other.ops_->relocate(other.buf_, buf_);
    else
      std::memcpy(buf_, other.buf_, other.ops_->bytes);
    ops_ = std::exchange(other.ops_, nullptr);
  }

  const Ops* ops_ = nullptr;
  alignas(kInlineAlign) unsigned char buf_[kInlineBytes];
};

}  // namespace lvrm::sim
