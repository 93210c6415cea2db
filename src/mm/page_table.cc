#include "src/mm/page_table.h"

#include <atomic>
#include <bit>
#include <cassert>

namespace tlbsim {

namespace {
uint64_t NextRootId() {
  // Atomic: page tables are constructed concurrently when a sweep fans
  // simulation jobs across host threads (src/exec/sweep.h). Ids handed out
  // here are only uniqueness tokens — anything deterministic derives from
  // the explicit-id constructor instead.
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace

PageTable::PageTable() : root_(std::make_unique<Node>()), root_id_(NextRootId()) {}

PageTable::PageTable(uint64_t root_id) : root_(std::make_unique<Node>()), root_id_(root_id) {}

PageTable::Node* PageTable::NodeForIn(Node* root, uint64_t va, PageSize size, bool create,
                                      int home_node, uint64_t* node_count) {
  int leaf_level = size == PageSize::k4K ? 0 : 1;
  Node* node = root;
  for (int level = kPtLevels - 1; level > leaf_level; --level) {
    uint64_t idx = PtIndex(va, level);
    if (!node->children[idx]) {
      if (!create) {
        return nullptr;
      }
      node->children[idx] = std::make_unique<Node>();
      node->children[idx]->node = home_node;
      node->entries[idx] =
          Pte(PteFlags::kPresent | PteFlags::kWrite | PteFlags::kUser);  // table entry
      if (node_count != nullptr) {
        ++*node_count;
      }
    }
    node = node->children[idx].get();
  }
  return node;
}

void PageTable::PropagateStore(uint64_t va, PageSize size, Pte new_pte) {
  if (replicas_.empty() || skip_replica_propagation_) {
    return;
  }
  int leaf_level = size == PageSize::k4K ? 0 : 1;
  for (Replica& rep : replicas_) {
    // Dropping a leaf never materializes replica paging structures; stores
    // create the path (homed on the replica's node) on demand.
    Node* node = NodeForIn(rep.root.get(), va, size, /*create=*/new_pte.present(), rep.node,
                           /*node_count=*/nullptr);
    if (node == nullptr) {
      continue;
    }
    StoreLeaf(*node, PtIndex(va, leaf_level), new_pte);
  }
}

void PageTable::Map(uint64_t va, uint64_t pfn, uint64_t flags, PageSize size) {
  assert((flags & PteFlags::kPresent) != 0);
  assert(va % BytesOf(size) == 0 && "unaligned mapping");
  Node* node = NodeFor(va, size, /*create=*/true);
  int leaf_level = size == PageSize::k4K ? 0 : 1;
  uint64_t idx = PtIndex(va, leaf_level);
  if (size == PageSize::k2M) {
    assert(!node->children[idx] && "2M mapping over existing page table");
    flags |= PteFlags::kHuge;
  }
  Pte old = node->entries[idx];
  StoreLeaf(*node, idx, Pte::Make(pfn, flags));
  if (write_observer_ != nullptr) {
    write_observer_->OnPteWrite(*this, va, old, node->entries[idx], size);
  }
  PropagateStore(va, size, node->entries[idx]);
}

Pte PageTable::SetPte(uint64_t va, Pte new_pte) {
  WalkResult r = Walk(va);
  assert(r.present && "SetPte on unmapped address");
  Node* node = NodeFor(va, r.size, /*create=*/false);
  assert(node != nullptr);
  int leaf_level = r.size == PageSize::k4K ? 0 : 1;
  uint64_t idx = PtIndex(va, leaf_level);
  Pte old = node->entries[idx];
  StoreLeaf(*node, idx, new_pte);
  if (write_observer_ != nullptr) {
    write_observer_->OnPteWrite(*this, va, old, new_pte, r.size);
  }
  PropagateStore(va, r.size, new_pte);
  return old;
}

Pte PageTable::Unmap(uint64_t va) {
  WalkResult r = Walk(va);
  if (!r.present) {
    return Pte();
  }
  Node* node = NodeFor(va, r.size, /*create=*/false);
  int leaf_level = r.size == PageSize::k4K ? 0 : 1;
  uint64_t idx = PtIndex(va, leaf_level);
  Pte old = node->entries[idx];
  StoreLeaf(*node, idx, Pte());
  if (write_observer_ != nullptr) {
    write_observer_->OnPteWrite(*this, va, old, Pte(), r.size);
  }
  PropagateStore(va, r.size, Pte());
  return old;
}

PageTable::WalkResult PageTable::WalkIn(const Node* root, uint64_t va, int walker_node) {
  WalkResult r;
  const Node* node = root;
  for (int level = kPtLevels - 1; level >= 0; --level) {
    ++r.levels_visited;
    // Fetching an entry reads the paging-structure page holding it; remote
    // home node = remote DRAM access for this level.
    bool remote = walker_node >= 0 && node->node != walker_node;
    if (remote) {
      ++r.remote_levels;
    }
    r.leaf_remote = remote;
    uint64_t idx = PtIndex(va, level);
    const Pte& e = node->entries[idx];
    if (!e.present()) {
      return r;
    }
    if (level == 1 && e.huge()) {
      r.pte = e;
      r.size = PageSize::k2M;
      r.present = true;
      return r;
    }
    if (level == 0) {
      r.pte = e;
      r.size = PageSize::k4K;
      r.present = true;
      return r;
    }
    if (!node->children[idx]) {
      return r;
    }
    node = node->children[idx].get();
  }
  return r;
}

PageTable::WalkResult PageTable::Walk(uint64_t va, int walker_node) const {
  const Node* root = root_.get();
  if (walker_node > 0 && !replicas_.empty() &&
      walker_node <= static_cast<int>(replicas_.size())) {
    root = replicas_[static_cast<size_t>(walker_node - 1)].root.get();
  }
  return WalkIn(root, va, walker_node);
}

bool PageTable::PruneNode(Node& node, int level, uint64_t base, uint64_t lo, uint64_t hi,
                          uint64_t* node_count) {
  bool freed = false;
  uint64_t span = SpanAt(level);
  auto [first, last] = Overlapping(level, base, lo, hi);
  for (uint64_t i = first; i < last; ++i) {
    if (!node.children[i]) {
      continue;
    }
    uint64_t va = base + i * span;
    Node& child = *node.children[i];
    if (level > 1) {
      freed |= PruneNode(child, level - 1, va, lo, hi, node_count);
    }
    bool empty = true;
    for (uint64_t j = 0; j < kPtEntries; ++j) {
      if (child.entries[j].present() || child.children[j]) {
        empty = false;
        break;
      }
    }
    if (empty) {
      node.children[i] = nullptr;
      node.entries[i] = Pte();
      if (node_count != nullptr) {
        --*node_count;
      }
      freed = true;
    }
  }
  return freed;
}

bool PageTable::PruneEmpty(uint64_t lo, uint64_t hi) {
  bool freed = PruneNode(*root_, kPtLevels - 1, 0, lo, hi, &node_count_);
  if (!replicas_.empty() && !skip_replica_propagation_) {
    for (Replica& rep : replicas_) {
      PruneNode(*rep.root, kPtLevels - 1, 0, lo, hi, /*node_count=*/nullptr);
    }
  }
  return freed;
}

uint64_t PageTable::CountDirtyIn(const Node& node, int level, uint64_t base, uint64_t lo,
                                 uint64_t hi) {
  auto [first, last] = Overlapping(level, base, lo, hi);
  uint64_t n = 0;
  if (level == 0) {
    for (uint64_t w = first / 64; w * 64 < last; ++w) {
      n += static_cast<uint64_t>(std::popcount(SummaryBits(node, w, first, last)));
    }
    return n;
  }
  for (uint64_t i = first; i < last; ++i) {
    if (node.children[i]) {
      n += CountDirtyIn(*node.children[i], level - 1, base + i * SpanAt(level), lo, hi);
    }
  }
  return n;
}

uint64_t PageTable::CountDirty4K(uint64_t lo, uint64_t hi) const {
  return CountDirtyIn(*root_, kPtLevels - 1, 0, lo, hi);
}

std::unique_ptr<PageTable::Node> PageTable::CloneTree(const Node& src, int home_node) {
  auto n = std::make_unique<Node>();
  n->entries = src.entries;
  n->dirty = src.dirty;
  n->node = home_node;
  for (uint64_t i = 0; i < kPtEntries; ++i) {
    if (src.children[i]) {
      n->children[i] = CloneTree(*src.children[i], home_node);
    }
  }
  return n;
}

void PageTable::EnableReplication(int num_nodes) {
  if (num_nodes <= 1 || !replicas_.empty()) {
    return;
  }
  // Pin the primary to node 0 (it doubles as node 0's replica), retagging
  // any pre-replication first-touch homing.
  alloc_node_ = 0;
  struct Retag {
    static void Run(Node& n) {
      n.node = 0;
      for (uint64_t i = 0; i < kPtEntries; ++i) {
        if (n.children[i]) {
          Run(*n.children[i]);
        }
      }
    }
  };
  Retag::Run(*root_);
  replicas_.reserve(static_cast<size_t>(num_nodes - 1));
  for (int node = 1; node < num_nodes; ++node) {
    replicas_.push_back(Replica{CloneTree(*root_, node), node});
  }
}

uint64_t PageTable::replica_root_id(int node) const {
  assert(node >= 0 && (node == 0 || node <= static_cast<int>(replicas_.size())));
  // Deterministic, collision-free with other mms' (small) primary ids.
  return node == 0 ? root_id_ : root_id_ + (static_cast<uint64_t>(node) << 32);
}

bool PageTable::FindReplicaDivergence(uint64_t* va, int* node) const {
  for (const Replica& rep : replicas_) {
    bool diverged = false;
    uint64_t dva = 0;
    // Primary leaves must exist identically in the replica...
    auto in_replica = [&](uint64_t leaf_va, Pte pte, PageSize) {
      if (diverged) {
        return;
      }
      WalkResult w = WalkIn(rep.root.get(), leaf_va, -1);
      if (!w.present || !(w.pte == pte)) {
        diverged = true;
        dva = leaf_va;
      }
    };
    VisitLeaves(*root_, kPtLevels - 1, 0, 0, ~0ULL, PteFlags::kPresent, in_replica);
    // ...and the replica must not hold extra (stale) leaves.
    if (!diverged) {
      auto in_primary = [&](uint64_t leaf_va, Pte pte, PageSize) {
        if (diverged) {
          return;
        }
        WalkResult w = WalkIn(root_.get(), leaf_va, -1);
        if (!w.present || !(w.pte == pte)) {
          diverged = true;
          dva = leaf_va;
        }
      };
      VisitLeaves(*rep.root, kPtLevels - 1, 0, 0, ~0ULL, PteFlags::kPresent, in_primary);
    }
    if (diverged) {
      *va = dva;
      *node = rep.node;
      return true;
    }
  }
  return false;
}

}  // namespace tlbsim
