// MESI-style cacheline coherence cost model.
//
// The simulator does not move real bytes; it tracks, per 64-byte line, which
// CPUs hold it and in what state, and charges each access the cycle cost of
// the coherence action it would trigger on real hardware (L1 hit, sibling/
// same-socket/cross-socket cache-to-cache transfer, or memory fill). This is
// the substrate for the paper's cacheline-consolidation optimization (§3.3):
// fewer distinct contended lines => fewer cross-core transfers per shootdown.
//
// Lines are identified by opaque LineIds. Kernel data structures allocate
// named lines via AllocateLine(); data memory derives LineIds from physical
// addresses via LineOfAddress().
//
// Directory layout (the simulator's hottest data structure): named ids are
// dense (AllocateLine hands out 1, 2, 3, ...), so named lines index a vector.
// Address-derived data lines go through an open-addressed table: a
// power-of-two array of (line, entry pointer) slots, Fibonacci-hashed and
// linearly probed, kept at most half full. The entries themselves live in
// fixed-size chunks in first-touch order, so a new line costs no allocation
// of its own and growing the table moves only slots. A line is never removed
// (EvictAll resets its entry in place), so probing needs no tombstones. A
// line's holders are one CPU bitset, and every CPU carries precomputed
// SMT-sibling and same-socket masks, so the nearest holder, the farthest
// holder and the invalidation count take a few word operations.
#ifndef TLBSIM_SRC_CACHE_COHERENCE_H_
#define TLBSIM_SRC_CACHE_COHERENCE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "src/cache/cpu_bits.h"
#include "src/cache/topology.h"
#include "src/sim/time.h"

namespace tlbsim {

using LineId = uint64_t;

enum class AccessType {
  kRead,
  kWrite,
  kAtomicRmw,  // locked read-modify-write; coherence-wise like a write
};

// Cycle costs of coherence actions. Defaults approximate a Skylake-era Xeon.
struct CacheCosts {
  Cycles l1_hit = 4;
  Cycles smt_transfer = 20;           // sibling thread, same L1/L2
  Cycles same_socket_transfer = 70;   // via shared L3 / snoop
  Cycles cross_socket_transfer = 140; // across the interconnect
  Cycles memory_fill = 220;           // no cached copy anywhere
};

class CoherenceModel {
 public:
  struct LineStats {
    uint64_t accesses = 0;
    uint64_t hits = 0;
    uint64_t transfers = 0;              // cache-to-cache transfers
    uint64_t cross_socket_transfers = 0;
    uint64_t invalidations = 0;          // remote copies invalidated by writes
  };

  struct GlobalStats {
    uint64_t accesses = 0;
    uint64_t hits = 0;
    uint64_t transfers = 0;
    uint64_t cross_socket_transfers = 0;
    uint64_t invalidations = 0;
    uint64_t memory_fills = 0;
  };

  // Topologies of up to kMaxCpus cpus (the 8-socket preset has 224).
  CoherenceModel(const Topology& topo, const CacheCosts& costs);

  // Allocates a fresh LineId for a named kernel object (name kept for
  // diagnostics / the Figure-4 harness).
  LineId AllocateLine(std::string name);

  // Allocation-free variants for hot construction paths (per-mm and per-cpu
  // objects are built inside sweep jobs, thousands of times per bench): the
  // name is stored as {literal, index, literal[, index, literal]} pieces and
  // only materialized if NameOf is actually called. The char* arguments must
  // be string literals (or otherwise outlive the model).
  LineId AllocateLine(const char* prefix, uint64_t index, const char* suffix);
  LineId AllocateLine(const char* prefix, uint64_t index, const char* mid, uint64_t index2,
                      const char* suffix);

  // Derives a LineId for a physical data address (separate id space from
  // named lines).
  static LineId LineOfAddress(uint64_t phys_addr) { return (phys_addr >> 6) | kDataBit; }

  // Performs the access, updates MESI state and counters, and returns the
  // cycle cost charged to `cpu`.
  Cycles Access(int cpu, LineId line, AccessType type);

  // Drops a line from every cache (e.g. clflush); free for accounting.
  void EvictAll(LineId line);

  GlobalStats global_stats() const { return global_; }
  void ResetStats();

  // Per-line statistics (zero-initialized for untouched lines).
  LineStats StatsFor(LineId line) const;
  // Diagnostic name of a named line ("<data>" for address-derived ids).
  // Composed on demand — named lines store their name in pieces.
  std::string NameOf(LineId line) const;

 private:
  static constexpr LineId kDataBit = 1ULL << 63;

  // One line's directory entry; `valid_anywhere` is false until the first
  // access (memory fill) and again after EvictAll. `holders` is every CPU
  // with a copy. `owner` is the CPU that last took the line exclusive (fill
  // or write): it alone holds the line until a read miss downgrades it
  // (`shared`), after which every holder, owner included, shares the line.
  struct Entry {
    CpuBits holders;
    int owner = -1;
    bool shared = false;
    bool valid_anywhere = false;
    LineStats stats;
  };

  // Deferred name of one named line (see the AllocateLine overloads):
  // prefix + index + mid [+ index2 + suffix], or, with a null prefix, the
  // string custom_names_[index]. Trivially copyable, so allocating a line
  // never constructs or moves a std::string.
  struct NameRec {
    const char* prefix = nullptr;
    uint64_t index = 0;
    const char* mid = nullptr;
    uint64_t index2 = 0;
    const char* suffix = nullptr;
  };
  static_assert(std::is_trivially_copyable_v<NameRec>);

  // Per-cpu neighbourhoods, `cpu` itself included in both.
  struct CpuMasks {
    CpuBits core;    // SMT siblings: same physical core
    CpuBits socket;  // same socket
  };

  // One data-line slot; `line` 0 marks it empty (data ids carry kDataBit).
  struct Slot {
    LineId line = 0;
    Entry* entry = nullptr;
  };
  static constexpr size_t kEntriesPerChunk = 256;

  // The entry for `line`, created (invalid) if absent.
  Entry& EntryFor(LineId line);

  // The slot holding data line `line`, or the empty slot that ends its probe
  // sequence.
  size_t FindSlot(LineId line) const {
    const size_t mask = data_slots_.size() - 1;
    size_t i = static_cast<size_t>((line * 0x9E3779B97F4A7C15ULL) >> slot_shift_);
    while (data_slots_[i].line != line && data_slots_[i].line != 0) {
      i = (i + 1) & mask;
    }
    return i;
  }
  // Inserts data line `line` (absent) with a fresh entry.
  Entry& InsertDataLine(LineId line);

  // Distance from `cpu` to the nearest holder (kCrossSocket if none).
  Topology::Distance NearestHolder(int cpu, const CpuBits& holders) const;
  // Distance from `cpu` to the farthest holder other than `cpu` (kSelf if
  // none); `*others` receives how many holders that is.
  Topology::Distance FarthestOther(int cpu, const CpuBits& holders, uint64_t* others) const;
  Cycles TransferCost(Topology::Distance d) const;

  const Topology topo_;
  const CacheCosts costs_;
  int cpu_words_;                // CpuBits words the topology uses
  std::vector<CpuMasks> masks_;  // indexed by cpu
  // Named lines indexed by id (slot 0 unused).
  std::vector<Entry> named_lines_;
  // Data lines: the probe table (power-of-two size, shift = 64 - log2 size)
  // and the entry chunks it points into, `data_line_count_` entries in all.
  std::vector<Slot> data_slots_;
  int slot_shift_ = 0;
  std::vector<std::unique_ptr<Entry[]>> entry_chunks_;
  size_t data_line_count_ = 0;
  GlobalStats global_;
  std::vector<NameRec> named_;  // indexed by LineId - 1 (named ids are dense)
  std::vector<std::string> custom_names_;  // AllocateLine(std::string) names
  LineId next_named_ = 1;
};

}  // namespace tlbsim

#endif  // TLBSIM_SRC_CACHE_COHERENCE_H_
