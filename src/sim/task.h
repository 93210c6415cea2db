// Coroutine task types used by the simulation.
//
// Two flavours:
//   - Co<T>: a *lazy* child coroutine. `co_await`ing it starts it and resumes
//     the parent (via symmetric transfer) when the child completes. This is
//     how simulated "kernel code" composes: every function that consumes
//     virtual time is a Co<> and is awaited by its caller.
//   - SimTask: a detached *root* coroutine (a simulated program or interrupt
//     handler). It starts suspended; the engine (or an interrupt dispatcher)
//     resumes it, and it self-destructs at completion after invoking an
//     optional completion callback.
//
// Exceptions thrown inside a Co<> propagate to the awaiter; an exception that
// escapes a SimTask terminates the process (simulated programs must handle
// their own failures — mirroring the fact that a kernel oops is fatal).
#ifndef TLBSIM_SRC_SIM_TASK_H_
#define TLBSIM_SRC_SIM_TASK_H_

#include <coroutine>
#include <cstdlib>
#include <exception>
#include <utility>

#include "src/sim/frame_pool.h"
#include "src/sim/inline_fn.h"

namespace tlbsim {

template <typename T>
class Co;

namespace detail {

// Promise bases derive from PooledFrame: coroutine frames come from (and
// return to) FramePool's size-bucketed free lists instead of the global
// allocator — awaited kernel functions are the simulator's hottest
// allocation site.
template <typename T>
struct CoPromiseBase : PooledFrame {
  std::coroutine_handle<> continuation;
  std::exception_ptr exception;

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(std::coroutine_handle<Promise> h) noexcept {
      std::coroutine_handle<> cont = h.promise().continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }

  void unhandled_exception() noexcept { exception = std::current_exception(); }
};

}  // namespace detail

// Lazy child task. Must be co_awaited exactly once (or dropped un-started).
template <typename T = void>
class [[nodiscard]] Co {
 public:
  struct promise_type : detail::CoPromiseBase<T> {
    T value;
    Co get_return_object() {
      return Co(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_value(T v) { value = std::move(v); }
  };

  Co(Co&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Co(const Co&) = delete;
  Co& operator=(const Co&) = delete;
  Co& operator=(Co&& other) noexcept {
    if (this != &other) {
      if (handle_) {
        handle_.destroy();
      }
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  ~Co() {
    if (handle_) {
      handle_.destroy();
    }
  }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiter) noexcept {
    handle_.promise().continuation = awaiter;
    return handle_;
  }
  T await_resume() {
    if (handle_.promise().exception) {
      std::rethrow_exception(handle_.promise().exception);
    }
    return std::move(handle_.promise().value);
  }

 private:
  explicit Co(std::coroutine_handle<promise_type> h) : handle_(h) {}
  friend struct promise_type;
  std::coroutine_handle<promise_type> handle_;
};

template <>
class [[nodiscard]] Co<void> {
 public:
  struct promise_type : detail::CoPromiseBase<void> {
    Co get_return_object() {
      return Co(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_void() noexcept {}
  };

  Co(Co&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Co(const Co&) = delete;
  Co& operator=(const Co&) = delete;
  Co& operator=(Co&& other) noexcept {
    if (this != &other) {
      if (handle_) {
        handle_.destroy();
      }
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  ~Co() {
    if (handle_) {
      handle_.destroy();
    }
  }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiter) noexcept {
    handle_.promise().continuation = awaiter;
    return handle_;
  }
  void await_resume() {
    if (handle_.promise().exception) {
      std::rethrow_exception(handle_.promise().exception);
    }
  }

 private:
  explicit Co(std::coroutine_handle<promise_type> h) : handle_(h) {}
  friend struct promise_type;
  std::coroutine_handle<promise_type> handle_;
};

// Detached root task. Created suspended; call Start() (or hand the handle to
// the engine) to begin. Destroys its own frame on completion, then invokes the
// completion callback, if any.
class SimTask {
 public:
  struct promise_type : PooledFrame {
    InlineFn on_done;
    // Runs after on_done: SimCpu::Spawn chains its interrupt-delivery kick
    // here. A function pointer, because wrapping on_done in a lambda would
    // not fit InlineFn's inline buffer and would allocate per task.
    void (*then)(void*) = nullptr;
    void* then_arg = nullptr;

    SimTask get_return_object() {
      return SimTask(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      void await_suspend(std::coroutine_handle<promise_type> h) noexcept {
        InlineFn done = std::move(h.promise().on_done);
        void (*then)(void*) = h.promise().then;
        void* then_arg = h.promise().then_arg;
        h.destroy();
        if (done) {
          done();
        }
        if (then != nullptr) {
          then(then_arg);
        }
      }
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_void() noexcept {}
    void unhandled_exception() noexcept {
      // A simulated program died with an unhandled exception: fatal, like a
      // kernel oops.
      std::terminate();
    }
  };

  SimTask(SimTask&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  SimTask(const SimTask&) = delete;
  SimTask& operator=(const SimTask&) = delete;
  ~SimTask() {
    // A never-started task is destroyed here; a started task owns itself.
    if (handle_) {
      handle_.destroy();
    }
  }

  // Releases ownership: after Start()/Release() the frame self-destructs at
  // final suspend.
  std::coroutine_handle<promise_type> Release() { return std::exchange(handle_, nullptr); }

  void set_on_done(InlineFn fn) { handle_.promise().on_done = std::move(fn); }

  // Runs the task to its first suspension point (or completion).
  void Start() { Release().resume(); }

 private:
  explicit SimTask(std::coroutine_handle<promise_type> h) : handle_(h) {}
  friend struct promise_type;
  std::coroutine_handle<promise_type> handle_;
};

}  // namespace tlbsim

#endif  // TLBSIM_SRC_SIM_TASK_H_
