// SimFlag: a one-bit synchronization cell with waiter notification.
//
// Models a memory word that one simulated CPU writes ("completion flag",
// "acknowledgement bit") and others spin on. The *coherence cost* of
// polling/writing the underlying cacheline is accounted separately by the
// cache layer; SimFlag only provides the wakeup plumbing in virtual time.
#ifndef TLBSIM_SRC_SIM_FLAG_H_
#define TLBSIM_SRC_SIM_FLAG_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/sim/engine.h"
#include "src/sim/time.h"

namespace tlbsim {

class SimFlag {
 public:
  using WaiterToken = uint64_t;

  explicit SimFlag(Engine* engine) : engine_(engine) {}
  SimFlag(const SimFlag&) = delete;
  SimFlag& operator=(const SimFlag&) = delete;

  // Sets the flag at virtual time `at` and wakes all current waiters. Waiter
  // callbacks run as engine events at `at` (clamped to engine-now).
  void Set(Cycles at);

  // Re-arms the flag (e.g. a reusable per-CPU completion word).
  void Clear() { set_ = false; }

  bool is_set() const { return set_; }

  // Time at which the flag was (last) set. Only meaningful when is_set().
  Cycles set_time() const { return set_time_; }

  // Registers a callback to run (with the set time) once the flag is set.
  // If the flag is already set the callback is scheduled immediately.
  // Waiters are woken in registration order.
  WaiterToken AddWaiter(std::function<void(Cycles)> cb);

  // Deregisters a not-yet-fired waiter. No-op for fired/unknown tokens.
  void RemoveWaiter(WaiterToken token);

 private:
  struct Waiter {
    WaiterToken token;
    std::function<void(Cycles)> cb;
  };

  Engine* engine_;
  bool set_ = false;
  Cycles set_time_ = 0;
  WaiterToken next_token_ = 1;
  // In registration (= token) order. A vector, not a map: a flag has a
  // waiter or two, and the cleared vector keeps its capacity, so re-waiting
  // on a reused flag allocates nothing.
  std::vector<Waiter> waiters_;
};

}  // namespace tlbsim

#endif  // TLBSIM_SRC_SIM_FLAG_H_
