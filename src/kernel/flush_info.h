// flush_tlb_info: the "work" descriptor of a TLB shootdown (paper §2.2),
// mirroring Linux's struct flush_tlb_info.
#ifndef TLBSIM_SRC_KERNEL_FLUSH_INFO_H_
#define TLBSIM_SRC_KERNEL_FLUSH_INFO_H_

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>

#include "src/mm/pte.h"

namespace tlbsim {

struct MmStruct;

inline constexpr uint64_t kFlushAll = ~0ULL;

struct FlushTlbInfo {
  MmStruct* mm = nullptr;
  uint64_t start = 0;
  uint64_t end = 0;  // kFlushAll => full flush required
  uint64_t new_tlb_gen = 0;
  int stride_shift = static_cast<int>(kPageShift);
  bool freed_tables = false;  // paging structures are being released (munmap)
  // §3.2: initiator grants responders permission to acknowledge at handler
  // entry. Never set together with freed_tables.
  bool early_ack_allowed = false;

  bool IsFull() const { return end == kFlushAll; }
  // Number of stride-sized pages covered (only meaningful when !IsFull()).
  uint64_t PageCount() const {
    if (IsFull() || end <= start) {
      return 0;
    }
    return (end - start + (1ULL << stride_shift) - 1) >> stride_shift;
  }
};

// One shootdown's work: a single range, or a §4.2 batch of up to
// kCapacity. Held by value with a fixed capacity, so handing the work from
// initiator to CFD to responder never allocates.
class FlushBatch {
 public:
  static constexpr size_t kCapacity = 4;

  void push_back(const FlushTlbInfo& info) {
    assert(size_ < kCapacity);
    infos_[size_++] = info;
  }
  void clear() { size_ = 0; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  FlushTlbInfo& front() { return infos_[0]; }
  const FlushTlbInfo& front() const { return infos_[0]; }
  FlushTlbInfo* begin() { return infos_.data(); }
  FlushTlbInfo* end() { return infos_.data() + size_; }
  const FlushTlbInfo* begin() const { return infos_.data(); }
  const FlushTlbInfo* end() const { return infos_.data() + size_; }

 private:
  std::array<FlushTlbInfo, kCapacity> infos_{};
  size_t size_ = 0;
};

}  // namespace tlbsim

#endif  // TLBSIM_SRC_KERNEL_FLUSH_INFO_H_
