// CPU sets for the kernel's flush paths. mm_cpumask is a CpuBits
// (src/cache/cpu_bits.h); CpuList holds the target ids one shootdown
// computes from it.
#ifndef TLBSIM_SRC_KERNEL_CPUMASK_H_
#define TLBSIM_SRC_KERNEL_CPUMASK_H_

#include <cassert>
#include <cstddef>
#include <span>

#include "src/cache/cpu_bits.h"

namespace tlbsim {

// A list of at most kMaxCpus cpu ids with inline storage: shootdown target
// lists live in the initiator's coroutine frame instead of a fresh heap
// vector per shootdown.
class CpuList {
 public:
  void push_back(int cpu) {
    assert(size_ < static_cast<size_t>(kMaxCpus));
    ids_[size_++] = cpu;
  }
  void clear() { size_ = 0; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  int front() const { return ids_[0]; }
  const int* begin() const { return ids_; }
  const int* end() const { return ids_ + size_; }
  operator std::span<const int>() const { return {ids_, size_}; }  // NOLINT(google-explicit-constructor)

 private:
  int ids_[kMaxCpus] = {};
  size_t size_ = 0;
};

}  // namespace tlbsim

#endif  // TLBSIM_SRC_KERNEL_CPUMASK_H_
