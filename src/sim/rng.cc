#include "src/sim/rng.h"

namespace tlbsim {

void Mt19937_64::Refill() {
  size_t k = 0;
  for (; k < kN - kM; ++k) {
    x_[k] = Twist(x_[k + kM], x_[k], x_[k + 1]);
  }
  for (; k < kN - 1; ++k) {
    x_[k] = Twist(x_[k + kM - kN], x_[k], x_[k + 1]);
  }
  x_[kN - 1] = Twist(x_[kM - 1], x_[kN - 1], x_[0]);
  p_ = 0;
}

}  // namespace tlbsim
