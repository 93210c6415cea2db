#include "perfbench/calib.h"

#include <chrono>
#include <map>
#include <memory_resource>
#include <unordered_map>

#include "perfbench/ops.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kArenaBytes = 4u << 20;  // holds every node of one Run()
constexpr size_t kTableSlots = 1u << 17;  // 1 MB of line tags
constexpr uint64_t kLineMask = 0x7fff;    // up to 32k directory entries
constexpr uint64_t kRangeMask = 0x3fff;   // up to 16k ranges
constexpr int kSteps = 10000;
constexpr uint64_t kRunSeed = 0x243f6a8885a308d3ULL;

struct Line {
  uint64_t owner = 0;
  uint64_t sharers = 0;
  uint32_t state = 0;
};

}  // namespace

Calibrator::Calibrator() : arena_(kArenaBytes), table_(kTableSlots, 0) { Run(); }

double Calibrator::Run() {
  Clock::time_point t0 = Clock::now();
  SplitMix rng(kRunSeed);  // the same work on every call
  {
    // Nodes come from arena_; the global heap is only a fallback that a
    // Run() of this size never reaches.
    std::pmr::monotonic_buffer_resource arena(arena_.data(), arena_.size(),
                                              std::pmr::new_delete_resource());
    std::pmr::unsynchronized_pool_resource pool(&arena);
    std::pmr::unordered_map<uint64_t, Line> dir(&pool);
    std::pmr::map<uint64_t, uint64_t> ranges(&pool);
    const uint64_t slot_mask = kTableSlots - 1;
    for (int i = 0; i < kSteps; ++i) {
      uint64_t k = rng.Next();
      // Directory: update a line's owner and sharers; drop lines now and then.
      Line& l = dir[k & kLineMask];
      l.owner = k;
      l.sharers |= 1ULL << (k & 63);
      ++l.state;
      // Ranges: insert one, and remove the one at or above a random address.
      ranges[(k >> 20) & kRangeMask] = k;
      if (i % 3 == 0) {
        uint64_t r = rng.Next();
        dir.erase(r & kLineMask);
        auto it = ranges.lower_bound((r >> 20) & kRangeMask);
        if (it != ranges.end()) {
          ranges.erase(it);
        }
      }
      // Tag table: linear probing, claiming a slot on a miss.
      for (int probe = 0; probe < 4; ++probe) {
        uint64_t tag = (rng.Next() & 0xffffff) | 1;
        uint64_t slot = (tag * 0x9e3779b97f4a7c15ULL) >> 47;
        for (int step = 0; step < 8; ++step, slot = (slot + 1) & slot_mask) {
          uint64_t& e = table_[slot];
          if (e == tag || e == 0 || step == 7) {
            sink_ += slot;
            e = tag;
            break;
          }
        }
      }
    }
    sink_ += dir.size() + ranges.size();
  }
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

}  // namespace perfbench
