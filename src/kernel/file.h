// Minimal page-cache-backed file object.
//
// Pages are allocated lazily on first access (the page cache holds one
// reference). The page cache is a dense vector indexed by page offset over
// the file's fixed size. Dirty state is tracked through PTE dirty bits by the
// kernel.
#ifndef TLBSIM_SRC_KERNEL_FILE_H_
#define TLBSIM_SRC_KERNEL_FILE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/mm/phys.h"
#include "src/mm/pte.h"

namespace tlbsim {

class File {
 public:
  File(FrameAllocator* frames, uint64_t id, uint64_t size_bytes)
      : frames_(frames),
        id_(id),
        size_(size_bytes),
        pages_(static_cast<size_t>(PageAlignUp(size_bytes) / kPageSize4K), kNoPage) {}
  File(const File&) = delete;
  File& operator=(const File&) = delete;
  ~File() {
    for (uint64_t pfn : pages_) {
      if (pfn != kNoPage) {
        frames_->Unref(pfn);
      }
    }
  }

  uint64_t id() const { return id_; }
  uint64_t size() const { return size_; }

  // Returns the frame backing file offset `offset` (rounded down to its
  // page), allocating it on first touch. An offset past size() extends the
  // page vector.
  uint64_t GetPage(uint64_t offset) {
    const size_t page = static_cast<size_t>(offset / kPageSize4K);
    if (page >= pages_.size()) {
      pages_.resize(page + 1, kNoPage);
    }
    uint64_t& pfn = pages_[page];
    if (pfn == kNoPage) {
      pfn = frames_->Alloc();
      ++cached_pages_;
    }
    return pfn;
  }

  bool HasPage(uint64_t offset) const {
    const size_t page = static_cast<size_t>(offset / kPageSize4K);
    return page < pages_.size() && pages_[page] != kNoPage;
  }
  size_t cached_pages() const { return cached_pages_; }

 private:
  static constexpr uint64_t kNoPage = ~0ULL;

  FrameAllocator* frames_;
  uint64_t id_;
  uint64_t size_;
  std::vector<uint64_t> pages_;  // page index -> pfn, kNoPage until first touch
  size_t cached_pages_ = 0;
};

}  // namespace tlbsim

#endif  // TLBSIM_SRC_KERNEL_FILE_H_
