#include "src/cache/coherence.h"

#include <cassert>
#include <utility>

namespace tlbsim {

namespace {
constexpr int kInitialSlotBits = 6;
}  // namespace

CoherenceModel::CoherenceModel(const Topology& topo, const CacheCosts& costs)
    : topo_(topo),
      costs_(costs),
      cpu_words_((topo.num_cpus() + 63) / 64),
      data_slots_(size_t{1} << kInitialSlotBits),
      slot_shift_(64 - kInitialSlotBits) {
  assert(topo.num_cpus() <= kMaxCpus);
  // CPU ids are socket-major, thread-minor: a core's and a socket's cpus are
  // contiguous id ranges.
  masks_.resize(static_cast<size_t>(topo.num_cpus()));
  for (int cpu = 0; cpu < topo.num_cpus(); ++cpu) {
    CpuMasks& m = masks_[static_cast<size_t>(cpu)];
    int core_first = topo.PhysCoreOf(cpu) * topo.smt;
    for (int b = core_first; b < core_first + topo.smt; ++b) {
      m.core.set(static_cast<size_t>(b));
    }
    int socket_first = topo.SocketOf(cpu) * topo.cpus_per_socket();
    for (int b = socket_first; b < socket_first + topo.cpus_per_socket(); ++b) {
      m.socket.set(static_cast<size_t>(b));
    }
  }
}

LineId CoherenceModel::AllocateLine(std::string name) {
  named_.push_back(NameRec{nullptr, custom_names_.size(), nullptr, 0, nullptr});
  custom_names_.push_back(std::move(name));
  return next_named_++;
}

LineId CoherenceModel::AllocateLine(const char* prefix, uint64_t index, const char* suffix) {
  named_.push_back(NameRec{prefix, index, suffix, 0, nullptr});
  return next_named_++;
}

LineId CoherenceModel::AllocateLine(const char* prefix, uint64_t index, const char* mid,
                                    uint64_t index2, const char* suffix) {
  named_.push_back(NameRec{prefix, index, mid, index2, suffix});
  return next_named_++;
}

CoherenceModel::Entry& CoherenceModel::InsertDataLine(LineId line) {
  if (2 * (data_line_count_ + 1) > data_slots_.size()) {
    std::vector<Slot> old(2 * data_slots_.size());
    old.swap(data_slots_);
    --slot_shift_;
    for (const Slot& s : old) {
      if (s.line != 0) {
        data_slots_[FindSlot(s.line)] = s;
      }
    }
  }
  if (data_line_count_ % kEntriesPerChunk == 0) {
    entry_chunks_.push_back(std::make_unique<Entry[]>(kEntriesPerChunk));
  }
  Entry* e = &entry_chunks_.back()[data_line_count_ % kEntriesPerChunk];
  ++data_line_count_;
  data_slots_[FindSlot(line)] = Slot{line, e};
  return *e;
}

CoherenceModel::Entry& CoherenceModel::EntryFor(LineId line) {
  if ((line & kDataBit) != 0) {
    const Slot& s = data_slots_[FindSlot(line)];
    return s.line == line ? *s.entry : InsertDataLine(line);
  }
  assert(line < next_named_ && "named line ids come from AllocateLine");
  if (line >= named_lines_.size()) {
    named_lines_.resize(static_cast<size_t>(next_named_));
  }
  return named_lines_[static_cast<size_t>(line)];
}

Topology::Distance CoherenceModel::NearestHolder(int cpu, const CpuBits& holders) const {
  if (holders.test(static_cast<size_t>(cpu))) {
    return Topology::Distance::kSelf;
  }
  const CpuMasks& m = masks_[static_cast<size_t>(cpu)];
  bool core = false;
  bool socket = false;
  for (int i = 0; i < cpu_words_; ++i) {
    core |= (holders.w[i] & m.core.w[i]) != 0;
    socket |= (holders.w[i] & m.socket.w[i]) != 0;
  }
  if (core) {
    return Topology::Distance::kSmtSibling;
  }
  return socket ? Topology::Distance::kSameSocket : Topology::Distance::kCrossSocket;
}

Topology::Distance CoherenceModel::FarthestOther(int cpu, const CpuBits& holders,
                                                 uint64_t* others) const {
  const CpuMasks& m = masks_[static_cast<size_t>(cpu)];
  uint64_t count = 0;
  bool off_socket = false;
  bool off_core = false;
  for (int i = 0; i < cpu_words_; ++i) {
    uint64_t h = holders.w[i];
    if (i == cpu >> 6) {
      h &= ~(1ULL << (cpu & 63));
    }
    count += static_cast<uint64_t>(PopCount64(h));
    off_socket |= (h & ~m.socket.w[i]) != 0;
    off_core |= (h & ~m.core.w[i]) != 0;
  }
  *others = count;
  if (off_socket) {
    return Topology::Distance::kCrossSocket;
  }
  if (off_core) {
    return Topology::Distance::kSameSocket;
  }
  return count > 0 ? Topology::Distance::kSmtSibling : Topology::Distance::kSelf;
}

Cycles CoherenceModel::TransferCost(Topology::Distance d) const {
  switch (d) {
    case Topology::Distance::kSelf:
      return costs_.l1_hit;
    case Topology::Distance::kSmtSibling:
      return costs_.smt_transfer;
    case Topology::Distance::kSameSocket:
      return costs_.same_socket_transfer;
    case Topology::Distance::kCrossSocket:
      return costs_.cross_socket_transfer;
  }
  return costs_.memory_fill;
}

Cycles CoherenceModel::Access(int cpu, LineId line, AccessType type) {
  Entry& e = EntryFor(line);
  ++e.stats.accesses;
  ++global_.accesses;

  if (!e.valid_anywhere) {
    // Cold miss: fill from memory; requester becomes exclusive owner.
    e.valid_anywhere = true;
    e.owner = cpu;
    e.shared = false;
    e.holders = CpuBits{};
    e.holders.set(static_cast<size_t>(cpu));
    ++global_.memory_fills;
    return costs_.memory_fill;
  }

  bool cpu_holds = e.holders.test(static_cast<size_t>(cpu));
  if (type == AccessType::kRead) {
    if (cpu_holds) {
      ++e.stats.hits;
      ++global_.hits;
      return costs_.l1_hit;
    }
    // Read miss: fetch from nearest holder; owner (if any) downgrades M->S.
    Topology::Distance d = NearestHolder(cpu, e.holders);
    Cycles cost = TransferCost(d);
    ++e.stats.transfers;
    ++global_.transfers;
    if (d == Topology::Distance::kCrossSocket) {
      ++e.stats.cross_socket_transfers;
      ++global_.cross_socket_transfers;
    }
    e.shared = true;
    e.holders.set(static_cast<size_t>(cpu));
    return cost;
  }

  // Write / atomic RMW.
  if (!e.shared && e.owner == cpu) {
    ++e.stats.hits;
    ++global_.hits;
    return costs_.l1_hit;
  }
  // Need exclusive ownership: invalidate every other copy; cost dominated by
  // the farthest current holder we must reach.
  uint64_t invalidated = 0;
  Topology::Distance farthest = FarthestOther(cpu, e.holders, &invalidated);
  Cycles cost = cpu_holds ? TransferCost(farthest)  // upgrade: invalidate others
                          : TransferCost(NearestHolder(cpu, e.holders));
  if (invalidated > 0) {
    ++e.stats.transfers;
    ++global_.transfers;
    if (farthest == Topology::Distance::kCrossSocket) {
      ++e.stats.cross_socket_transfers;
      ++global_.cross_socket_transfers;
    }
  } else {
    ++e.stats.hits;
    ++global_.hits;
  }
  e.stats.invalidations += invalidated;
  global_.invalidations += invalidated;
  e.owner = cpu;
  e.shared = false;
  e.holders = CpuBits{};
  e.holders.set(static_cast<size_t>(cpu));
  return cost;
}

void CoherenceModel::EvictAll(LineId line) {
  if ((line & kDataBit) != 0) {
    const Slot& s = data_slots_[FindSlot(line)];
    if (s.line == line) {
      *s.entry = Entry{};
    }
  } else if (line < named_lines_.size()) {
    named_lines_[static_cast<size_t>(line)] = Entry{};
  }
}

void CoherenceModel::ResetStats() {
  global_ = GlobalStats{};
  for (Entry& e : named_lines_) {
    e.stats = LineStats{};
  }
  for (size_t i = 0; i < data_line_count_; ++i) {
    entry_chunks_[i / kEntriesPerChunk][i % kEntriesPerChunk].stats = LineStats{};
  }
}

CoherenceModel::LineStats CoherenceModel::StatsFor(LineId line) const {
  if ((line & kDataBit) != 0) {
    const Slot& s = data_slots_[FindSlot(line)];
    return s.line == line ? s.entry->stats : LineStats{};
  }
  return line < named_lines_.size() ? named_lines_[static_cast<size_t>(line)].stats : LineStats{};
}

std::string CoherenceModel::NameOf(LineId line) const {
  if (line == 0 || line > named_.size()) {
    return "<data>";
  }
  const NameRec& rec = named_[static_cast<size_t>(line - 1)];
  if (rec.prefix == nullptr) {
    return custom_names_[static_cast<size_t>(rec.index)];
  }
  std::string name = rec.prefix;
  name += std::to_string(rec.index);
  name += rec.mid;
  if (rec.suffix != nullptr) {
    name += std::to_string(rec.index2);
    name += rec.suffix;
  }
  return name;
}

}  // namespace tlbsim
