#include "graph/rooted_forest.hpp"

#include <atomic>
#include <cassert>

#include "pram/parallel_for.hpp"
#include "prim/compact.hpp"
#include "prim/integer_sort.hpp"
#include "prim/scan.hpp"

namespace sfcp::graph {

RootedForest build_rooted_forest(std::span<const u32> f, std::span<const u8> on_cycle) {
  const std::size_t n = f.size();
  RootedForest forest;
  forest.parent.assign(f.begin(), f.end());
  forest.is_root.assign(on_cycle.begin(), on_cycle.end());
  forest.roots = prim::pack_index_if(n, [&](std::size_t x) { return on_cycle[x] != 0; });
  // Tree nodes, stably sorted by parent: gives children lists with siblings
  // in ascending order (deterministic across strategies).
  const std::vector<u32> tree_nodes =
      prim::pack_index_if(n, [&](std::size_t x) { return on_cycle[x] == 0; });
  std::vector<u64> keys(tree_nodes.size());
  pram::parallel_for(0, tree_nodes.size(), [&](std::size_t i) { keys[i] = f[tree_nodes[i]]; });
  const std::vector<u32> order = prim::sort_order_by_key(keys, n > 0 ? n - 1 : 0);
  forest.child.resize(tree_nodes.size());
  pram::parallel_for(0, order.size(), [&](std::size_t i) {
    forest.child[i] = tree_nodes[order[i]];
  });
  // Offsets: counts per parent, then a scan.
  std::vector<u32> counts(n, 0);
  {
    std::vector<std::atomic<u32>> cnt(n);
    pram::parallel_for(0, n, [&](std::size_t v) { cnt[v].store(0, std::memory_order_relaxed); });
    pram::parallel_for(0, tree_nodes.size(), [&](std::size_t i) {
      cnt[f[tree_nodes[i]]].fetch_add(1, std::memory_order_relaxed);
    });
    pram::parallel_for(0, n, [&](std::size_t v) { counts[v] = cnt[v].load(std::memory_order_relaxed); });
  }
  forest.child_off.assign(n + 1, 0);
  const u32 total = prim::exclusive_scan<u32>(counts, std::span<u32>(forest.child_off).first(n));
  forest.child_off[n] = total;
  assert(total == forest.child.size());
  return forest;
}

namespace {

ForestLevels levels_sequential(const RootedForest& forest) {
  const std::size_t n = forest.size();
  ForestLevels out;
  out.level.assign(n, 0);
  out.root_of.assign(n, kNone);
  std::vector<u32> stack;
  for (const u32 r : forest.roots) {
    out.root_of[r] = r;
    stack.push_back(r);
    while (!stack.empty()) {
      const u32 v = stack.back();
      stack.pop_back();
      for (u32 i = forest.child_off[v]; i < forest.child_off[v + 1]; ++i) {
        const u32 c = forest.child[i];
        out.level[c] = out.level[v] + 1;
        out.root_of[c] = r;
        stack.push_back(c);
      }
    }
  }
  pram::charge(n);
  return out;
}

std::vector<i64> sums_sequential(const RootedForest& forest, std::span<const i64> vals) {
  const std::size_t n = forest.size();
  std::vector<i64> out(n, 0);
  std::vector<u32> stack;
  for (const u32 r : forest.roots) {
    out[r] = vals[r];
    stack.push_back(r);
    while (!stack.empty()) {
      const u32 v = stack.back();
      stack.pop_back();
      for (u32 i = forest.child_off[v]; i < forest.child_off[v + 1]; ++i) {
        const u32 c = forest.child[i];
        out[c] = out[v] + vals[c];
        stack.push_back(c);
      }
    }
  }
  pram::charge(n);
  return out;
}

}  // namespace

ForestPaths::ForestPaths(const RootedForest& forest, ForestStrategy strategy) {
  if (strategy == ForestStrategy::Sequential) {
    forest_ = &forest;
    levels_ = levels_sequential(forest);
    return;
  }
  f_ = forest.parent;
  on_cycle_ = forest.is_root;
  partition_ = &built_;
  init_euler();
}

ForestPaths::ForestPaths(std::span<const u32> f, std::span<const u8> on_cycle,
                         const EulerPartition& partition)
    : f_(f), on_cycle_(on_cycle), partition_(&partition) {
  init_euler();
}

void ForestPaths::init_euler() {
  const std::size_t n = f_.size();
  if (partition_->empty()) {
    std::vector<u8> flags;
    find_cycle_nodes_into(f_, CycleDetectStrategy::EulerTour, flags, built_);
    partition_ = &built_;
  }
  levels_.level.assign(n, 0);
  levels_.root_of.resize(n);
  // Still empty: f is a permutation, every node its own root.
  if (partition_->empty()) {
    pram::parallel_for(0, n, [&](std::size_t x) { levels_.root_of[x] = static_cast<u32>(x); });
    return;
  }
  // One scan yields both quantities.  A node's arcs carry +-1, and a
  // root's children's arcs also +-(root + 1) << 32.  Below a root the sum
  // is a depth, never negative and below 2^32, so at a node's down arc it
  // holds its owning root + 1 in the high word and its level in the low
  // word.
  const std::vector<u64> scanned = scan_tour([&](u32 x) {
    const u32 p = f_[x];
    return on_cycle_[p] ? 1 + ((u64{p} + 1) << 32) : 1;
  });
  pram::parallel_for(0, n, [&](std::size_t xi) {
    const u32 x = static_cast<u32>(xi);
    if (on_cycle_[x]) {
      levels_.root_of[x] = x;
      return;
    }
    const u64 s = scanned[partition_->slot[2 * x + 1]];
    levels_.level[x] = static_cast<u32>(s);
    levels_.root_of[x] = static_cast<u32>((s >> 32) - 1);
  });
}

template <typename Value>
std::vector<u64> ForestPaths::scan_tour(Value&& value) const {
  const std::span<const u32> slot = partition_->slot;
  std::vector<u64> tour(slot.size());
  pram::parallel_for(0, f_.size(), [&](std::size_t x) {
    const u64 v = on_cycle_[x] ? 0 : value(static_cast<u32>(x));
    tour[slot[2 * x + 1]] = v;
    tour[slot[2 * x]] = u64{0} - v;
  });
  prim::inclusive_scan<u64>(tour, tour);
  return tour;
}

std::vector<i64> ForestPaths::root_path_sums(std::span<const i64> vals) const {
  if (forest_ != nullptr) return sums_sequential(*forest_, vals);
  const std::size_t n = f_.size();
  std::vector<i64> out(vals.begin(), vals.end());
  if (partition_->empty()) return out;
  const std::vector<u64> scanned = scan_tour([&](u32 x) { return static_cast<u64>(vals[x]); });
  pram::parallel_for(0, n, [&](std::size_t xi) {
    const u32 x = static_cast<u32>(xi);
    if (on_cycle_[x]) return;
    // The scan at x's down arc covers its root path below the root.
    const u64 below = scanned[partition_->slot[2 * x + 1]];
    out[x] = static_cast<i64>(below + static_cast<u64>(vals[levels_.root_of[x]]));
  });
  return out;
}

ForestLevels forest_levels(const RootedForest& forest, ForestStrategy strategy) {
  return ForestPaths(forest, strategy).levels();
}

std::vector<i64> root_path_sums(const RootedForest& forest, std::span<const i64> vals,
                                ForestStrategy strategy) {
  return ForestPaths(forest, strategy).root_path_sums(vals);
}

}  // namespace sfcp::graph
