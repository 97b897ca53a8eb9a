#include "graph/cycle_detect.hpp"

#include <algorithm>
#include <cassert>

#include "graph/functional_graph.hpp"
#include "pram/parallel_for.hpp"
#include "prim/integer_sort.hpp"
#include "prim/orbit_label.hpp"
#include "prim/scan.hpp"

namespace sfcp::graph {

namespace {

void detect_sequential(std::span<const u32> f, std::vector<u8>& on_cycle) {
  const std::size_t n = f.size();
  on_cycle.assign(n, 0);
  std::vector<u8> color(n, 0);  // 0 unvisited, 1 on walk, 2 done
  std::vector<u32> path;
  for (u32 start = 0; start < n; ++start) {
    if (color[start] != 0) continue;
    path.clear();
    u32 v = start;
    while (color[v] == 0) {
      color[v] = 1;
      path.push_back(v);
      v = f[v];
    }
    if (color[v] == 1) {
      std::size_t pos = path.size();
      while (pos > 0 && path[pos - 1] != v) --pos;
      for (std::size_t i = pos - 1; i < path.size(); ++i) on_cycle[path[i]] = 1;
    }
    for (const u32 x : path) color[x] = 2;
  }
  pram::charge(2 * n);
}

// True iff every node has exactly one preimage: f is a permutation.
bool all_ones(std::span<const u32> deg) {
  std::vector<u8> block_ok(static_cast<std::size_t>(pram::num_blocks(deg.size())), 1);
  pram::parallel_blocks(deg.size(), [&](int b, std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      if (deg[i] != 1) {
        block_ok[static_cast<std::size_t>(b)] = 0;
        return;
      }
    }
  });
  return std::all_of(block_ok.begin(), block_ok.end(), [](u8 ok) { return ok != 0; });
}

// Paper §5: the Euler successor of every arc of the doubled pseudo-forest.
// Arc 2x = (x -> f(x)); arc 2x+1 = its buddy (f(x) -> x).
std::vector<u32> euler_successor(std::span<const u32> f, std::span<const u32> deg) {
  const std::size_t n = f.size();
  // Preimage lists pre[v] (CSR) and each node's index within its parent's
  // preimage list, built with one stable integer sort (paper: "the data
  // structure ... can easily be done by using an integer sorting
  // algorithm").
  std::vector<u64> keys(n);
  pram::parallel_for(0, n, [&](std::size_t x) { keys[x] = f[x]; });
  const std::vector<u32> pre = prim::sort_order_by_key(keys, n - 1);  // nodes grouped by f-image
  std::vector<u32> pre_off(n + 1, 0);
  prim::exclusive_scan<u32>(deg, std::span<u32>(pre_off).first(n));
  pre_off[n] = static_cast<u32>(n);
  std::vector<u32> pre_index(n);  // position of x within pre[f(x)]
  pram::parallel_for(0, n, [&](std::size_t i) {
    pre_index[pre[i]] = static_cast<u32>(i) - pre_off[f[pre[i]]];
  });
  // Out-arc list of v (circular): slot 0 = down-arc 2v, slot 1+j = buddy
  // arc of pre[v][j].  The Euler successor of arc e=(u,v) is the out-arc of
  // v following twin(e) in this circular order.
  auto out_arc = [&](u32 v, u32 slot) -> u32 {
    return slot == 0 ? 2 * v : 2 * pre[pre_off[v] + (slot - 1)] + 1;
  };
  std::vector<u32> succ(2 * n);
  pram::parallel_for(0, n, [&](std::size_t xi) {
    const u32 x = static_cast<u32>(xi);
    // succ of the down-arc 2x: head is v = f(x); twin is buddy 2x+1 at slot
    // 1 + pre_index[x] of v's list.
    const u32 v = f[x];
    const u32 dv = deg[v] + 1;  // circular list size of v
    succ[2 * x] = out_arc(v, (1 + pre_index[x] + 1) % dv);
    // succ of the buddy 2x+1: head is x; twin is the down-arc 2x at slot 0.
    const u32 dx = deg[x] + 1;
    succ[2 * x + 1] = out_arc(x, 1 % dx);
  });
  return succ;
}

// Paper §5: Euler partition of the doubled pseudo-forest.  With `keep`,
// the partition's layout is left there.
void detect_euler(std::span<const u32> f, std::vector<u8>& on_cycle, EulerPartition* keep) {
  const std::size_t n = f.size();
  std::vector<u32> succ;
  {
    const std::vector<u32> deg = indegrees(f);
    // A permutation is all cycles: no tree, so no partition is needed.
    if (all_ones(deg)) {
      on_cycle.assign(n, 1);
      if (keep != nullptr) keep->slot.clear();
      return;
    }
    succ = euler_successor(f, deg);
  }
  // Euler-cycle identifiers: the minimum arc id in each orbit of the
  // successor permutation, and (kept) each arc's distance from it.
  std::vector<u32> id(2 * n);
  std::span<u32> pos;
  if (keep != nullptr) {
    keep->slot.resize(2 * n);
    pos = keep->slot;
  }
  prim::label_orbits(succ, {}, id, pos, {});
  // Edge (x, f(x)) is a cycle edge iff its two arcs lie in different Euler
  // cycles; both endpoints of a cycle edge are cycle nodes, and every cycle
  // node has exactly one outgoing cycle edge.
  on_cycle.resize(n);
  pram::parallel_for(0, n, [&](std::size_t x) {
    on_cycle[x] = id[2 * x] != id[2 * x + 1] ? 1 : 0;
  });
  if (keep == nullptr) return;
  // Per Euler cycle, at its minimum arc: its length (the last arc leads
  // back to the minimum, so its pos + 1) and the pos of its first cycle
  // arc.  Every Euler cycle holds cycle arcs, and taken in cycle order they
  // rise in pos except at the first: edges run 2x then 2f(x), buddies
  // 2f(x)+1 then 2x+1, and a self-loop's one arc is first.
  std::vector<u32> len(2 * n, 0);
  pram::parallel_for(0, 2 * n, [&](std::size_t a) {
    if (succ[a] == id[a]) len[id[a]] = pos[a] + 1;
  });
  std::vector<u32>& first = succ;  // succ is not read again
  pram::parallel_for(0, n, [&](std::size_t xi) {
    if (!on_cycle[xi]) return;
    const u32 x = static_cast<u32>(xi);
    const u32 y = f[x];
    if (pos[2 * x] >= pos[2 * y]) first[id[2 * y]] = pos[2 * y];
    if (pos[2 * y + 1] >= pos[2 * x + 1]) first[id[2 * x + 1]] = pos[2 * x + 1];
  });
  // Lay the Euler cycles end to end in id order, each cut open at its first
  // cycle arc.
  std::vector<u32> offset(2 * n);
  prim::exclusive_scan<u32>(len, offset);
  pram::parallel_for(0, 2 * n, [&](std::size_t a) {
    const u32 m = id[a];
    const u32 p = pos[a] >= first[m] ? pos[a] - first[m] : pos[a] + len[m] - first[m];
    pos[a] = offset[m] + p;
  });
}

}  // namespace

std::vector<u8> find_cycle_nodes(std::span<const u32> f, CycleDetectStrategy strategy) {
  std::vector<u8> on_cycle;
  find_cycle_nodes_into(f, strategy, on_cycle);
  return on_cycle;
}

void find_cycle_nodes_into(std::span<const u32> f, CycleDetectStrategy strategy,
                           std::vector<u8>& on_cycle) {
  if (strategy == CycleDetectStrategy::EulerTour) return detect_euler(f, on_cycle, nullptr);
  detect_sequential(f, on_cycle);
}

void find_cycle_nodes_into(std::span<const u32> f, CycleDetectStrategy strategy,
                           std::vector<u8>& on_cycle, EulerPartition& partition) {
  if (strategy == CycleDetectStrategy::EulerTour) return detect_euler(f, on_cycle, &partition);
  partition.slot.clear();
  detect_sequential(f, on_cycle);
}

}  // namespace sfcp::graph
