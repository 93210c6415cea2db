#include "src/sim/flag.h"

#include <algorithm>
#include <utility>

namespace tlbsim {

void SimFlag::Set(Cycles at) {
  set_ = true;
  set_time_ = at;
  if (waiters_.empty()) {
    return;
  }
  Cycles when = std::max(at, engine_->now());
  // Scheduling never runs a callback, so the list is stable while we walk it.
  for (Waiter& w : waiters_) {
    engine_->Schedule(when, [cb = std::move(w.cb), at] { cb(at); });
  }
  waiters_.clear();
}

SimFlag::WaiterToken SimFlag::AddWaiter(std::function<void(Cycles)> cb) {
  WaiterToken token = next_token_++;
  if (set_) {
    Cycles at = set_time_;
    Cycles when = std::max(at, engine_->now());
    engine_->Schedule(when, [cb = std::move(cb), at] { cb(at); });
    return token;
  }
  waiters_.push_back(Waiter{token, std::move(cb)});
  return token;
}

void SimFlag::RemoveWaiter(WaiterToken token) {
  auto it = std::find_if(waiters_.begin(), waiters_.end(),
                         [token](const Waiter& w) { return w.token == token; });
  if (it != waiters_.end()) {
    waiters_.erase(it);
  }
}

}  // namespace tlbsim
