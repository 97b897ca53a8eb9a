#include "graph/rooted_forest.hpp"

#include <atomic>
#include <cassert>

#include "graph/euler_tour.hpp"
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
  forest.sibling_index.assign(n, 0);
  pram::parallel_for(0, forest.child.size(), [&](std::size_t i) {
    forest.sibling_index[forest.child[i]] = static_cast<u32>(i) - forest.child_off[forest.parent[forest.child[i]]];
  });
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

ForestLevels levels_euler(const RootedForest& forest, const EulerTour& tour) {
  const std::size_t n = forest.size();
  ForestLevels out;
  out.level.assign(n, 0);
  out.root_of.assign(n, kNone);
  const std::size_t T = tour.order.size();
  // One segmented scan yields both quantities.  Every arc carries +1 on a
  // down-arc and -1 (mod 2^64) on an up-arc; each tree's first arc also
  // carries (root + 1) << 32.  Within a tree the running +-1 sum is a depth,
  // never negative and below 2^32, so the prefix at a node's down-arc holds
  // its owning root + 1 in the high word and its level in the low word.
  std::vector<u64> vals(T);
  pram::parallel_for(0, T, [&](std::size_t p) {
    const u32 arc = tour.order[p];
    u64 v = EulerTour::is_down(arc) ? 1 : ~u64{0};
    if (tour.seg_start[p]) v += (u64{forest.parent[EulerTour::arc_node(arc)]} + 1) << 32;
    vals[p] = v;
  });
  std::vector<u64> pre(T);
  prim::segmented_inclusive_scan<u64>(vals, tour.seg_start, pre);
  pram::parallel_for(0, n, [&](std::size_t x) {
    if (forest.is_root[x]) {
      out.root_of[x] = static_cast<u32>(x);
      return;
    }
    const u64 s = pre[tour.pos[EulerTour::down_arc(static_cast<u32>(x))]];
    out.level[x] = static_cast<u32>(s);
    out.root_of[x] = static_cast<u32>((s >> 32) - 1);
  });
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

std::vector<i64> sums_euler(const RootedForest& forest, const EulerTour& tour,
                            std::span<const u32> root_of, std::span<const i64> vals) {
  const std::size_t n = forest.size();
  std::vector<i64> out(n, 0);
  const std::size_t T = tour.order.size();
  std::vector<i64> arc_vals(T);
  pram::parallel_for(0, T, [&](std::size_t p) {
    const u32 arc = tour.order[p];
    const u32 x = EulerTour::arc_node(arc);
    arc_vals[p] = EulerTour::is_down(arc) ? vals[x] : -vals[x];
  });
  std::vector<i64> pre(T);
  prim::segmented_inclusive_scan<i64>(arc_vals, tour.seg_start, pre);
  pram::parallel_for(0, n, [&](std::size_t x) {
    if (forest.is_root[x]) {
      out[x] = vals[x];
    } else {
      // The prefix at the down-arc covers the path root..x *excluding* the
      // root (roots have no down-arc); add the owning root's value.
      out[x] = pre[tour.pos[EulerTour::down_arc(static_cast<u32>(x))]] + vals[root_of[x]];
    }
  });
  return out;
}

}  // namespace

ForestPaths::ForestPaths(const RootedForest& forest, ForestStrategy strategy)
    : forest_(forest), strategy_(strategy) {
  switch (strategy) {
    case ForestStrategy::Sequential:
      levels_ = levels_sequential(forest);
      break;
    case ForestStrategy::EulerTour:
      tour_ = build_euler_tour(forest);
      levels_ = levels_euler(forest, tour_);
      break;
  }
}

std::vector<i64> ForestPaths::root_path_sums(std::span<const i64> vals) const {
  switch (strategy_) {
    case ForestStrategy::Sequential:
      return sums_sequential(forest_, vals);
    case ForestStrategy::EulerTour:
      return sums_euler(forest_, tour_, levels_.root_of, vals);
  }
  return sums_sequential(forest_, vals);
}

ForestLevels forest_levels(const RootedForest& forest, ForestStrategy strategy) {
  return ForestPaths(forest, strategy).levels();
}

std::vector<i64> root_path_sums(const RootedForest& forest, std::span<const i64> vals,
                                ForestStrategy strategy) {
  return ForestPaths(forest, strategy).root_path_sums(vals);
}

}  // namespace sfcp::graph
