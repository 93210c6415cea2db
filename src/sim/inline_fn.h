// InlineFn: a move-only `void()` callable with small-buffer optimization.
//
// Replaces std::function<void()> on the engine hot path. Every simulator
// event callback is a small lambda (a couple of pointers plus an int or a
// captured std::function wrapper); InlineFn stores anything up to
// kInlineSize bytes directly in the event node, so scheduling an event
// performs no heap allocation. Larger callables fall back to the heap —
// correct, just not free — so growing a capture never breaks a call site.
//
// Unlike std::function, InlineFn is move-only (no copyability tax: captures
// may hold move-only handles) and supports exactly one signature, which is
// all the engine needs.
#ifndef TLBSIM_SRC_SIM_INLINE_FN_H_
#define TLBSIM_SRC_SIM_INLINE_FN_H_

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace tlbsim {

class InlineFn {
 public:
  // Fits two captured std::functions, or half a dozen pointers; chosen so an
  // engine event node stays within one cacheline pair.
  static constexpr size_t kInlineSize = 48;

  InlineFn() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, InlineFn> &&
                                        std::is_invocable_r_v<void, std::decay_t<F>&>>>
  InlineFn(F&& f) {  // NOLINT(google-explicit-constructor)
    Emplace(std::forward<F>(f));
  }

  // Destroys the current target (if any) and constructs `f` in place. Lets
  // the engine build a callback directly in its pool slot instead of
  // constructing on the caller's stack and relocating the buffer.
  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, InlineFn> &&
                                        std::is_invocable_r_v<void, std::decay_t<F>&>>>
  void Emplace(F&& f) {
    Reset();
    using D = std::decay_t<F>;
    if constexpr (sizeof(D) <= kInlineSize && alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      vt_ = &kInlineVt<D>;
    } else {
      *reinterpret_cast<D**>(buf_) = new D(std::forward<F>(f));
      vt_ = &kHeapVt<D>;
    }
  }

  InlineFn(InlineFn&& other) noexcept : vt_(other.vt_) {
    if (vt_ != nullptr) {
      Relocate(other.buf_, buf_, vt_);  // leaves `other` empty
      other.vt_ = nullptr;
    }
  }

  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      Reset();
      vt_ = other.vt_;
      if (vt_ != nullptr) {
        Relocate(other.buf_, buf_, vt_);
        other.vt_ = nullptr;
      }
    }
    return *this;
  }

  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;

  ~InlineFn() { Reset(); }

  explicit operator bool() const noexcept { return vt_ != nullptr; }

  // Destroys the target, leaving this empty. Cheaper than assigning an empty
  // InlineFn, which builds and relocates a temporary: the engine frees a
  // slot this way after every event.
  void Reset() noexcept {
    if (vt_ != nullptr) {
      if (vt_->destroy != nullptr) {
        vt_->destroy(buf_);
      }
      vt_ = nullptr;
    }
  }

  // Const like std::function's: the target is logically owned state, and
  // call sites hold captured InlineFns inside const lambdas.
  void operator()() const { vt_->call(buf_); }

 private:
  // Null `relocate` means "memcpy the whole buffer" (trivially relocatable:
  // every trivially-copyable inline capture, and the heap case's raw
  // pointer); null `destroy` means trivially destructible. These fast paths
  // keep per-event moves on the engine hot path free of indirect calls — the
  // one unavoidable indirect transfer is the invocation itself.
  struct VTable {
    void (*call)(unsigned char* buf);
    // Move-construct into `to` and destroy the source ("destructive move").
    void (*relocate)(unsigned char* from, unsigned char* to) noexcept;
    void (*destroy)(unsigned char* buf) noexcept;
  };

  template <typename D>
  static constexpr VTable kInlineVt = {
      [](unsigned char* buf) { (*std::launder(reinterpret_cast<D*>(buf)))(); },
      std::is_trivially_copyable_v<D>
          ? nullptr
          : +[](unsigned char* from, unsigned char* to) noexcept {
              D* src = std::launder(reinterpret_cast<D*>(from));
              ::new (static_cast<void*>(to)) D(std::move(*src));
              src->~D();
            },
      std::is_trivially_destructible_v<D>
          ? nullptr
          : +[](unsigned char* buf) noexcept { std::launder(reinterpret_cast<D*>(buf))->~D(); },
  };

  template <typename D>
  static constexpr VTable kHeapVt = {
      [](unsigned char* buf) { (**reinterpret_cast<D**>(buf))(); },
      nullptr,  // the stored pointer relocates by memcpy
      [](unsigned char* buf) noexcept { delete *reinterpret_cast<D**>(buf); },
  };

  static void Relocate(unsigned char* from, unsigned char* to, const VTable* vt) noexcept {
    if (vt->relocate != nullptr) {
      vt->relocate(from, to);
    } else {
      std::memcpy(to, from, kInlineSize);
    }
  }

  alignas(std::max_align_t) mutable unsigned char buf_[kInlineSize];
  const VTable* vt_ = nullptr;
};

}  // namespace tlbsim

#endif  // TLBSIM_SRC_SIM_INLINE_FN_H_
