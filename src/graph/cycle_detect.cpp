#include "graph/cycle_detect.hpp"

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

// Paper §5: Euler partition of the doubled pseudo-forest.
// Arc 2x = (x -> f(x)); arc 2x+1 = its buddy (f(x) -> x).
void detect_euler(std::span<const u32> f, std::vector<u8>& on_cycle) {
  const std::size_t n = f.size();
  on_cycle.assign(n, 0);
  if (n == 0) return;
  // Preimage lists pre[v] (CSR) and each node's index within its parent's
  // preimage list, built with one stable integer sort (paper: "the data
  // structure ... can easily be done by using an integer sorting
  // algorithm").
  std::vector<u64> keys(n);
  pram::parallel_for(0, n, [&](std::size_t x) { keys[x] = f[x]; });
  const std::vector<u32> pre = prim::sort_order_by_key(keys, n - 1);  // nodes grouped by f-image
  const std::vector<u32> deg = indegrees(f);
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
  // Euler-cycle identifiers: the minimum arc id in each orbit of the
  // successor permutation.
  std::vector<u32> id(2 * n);
  prim::label_orbits(succ, {}, id, {}, {});
  // Edge (x, f(x)) is a cycle edge iff its two arcs lie in different Euler
  // cycles; both endpoints of a cycle edge are cycle nodes, and every cycle
  // node has exactly one outgoing cycle edge.
  pram::parallel_for(0, n, [&](std::size_t x) {
    if (id[2 * x] != id[2 * x + 1]) on_cycle[x] = 1;
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
  switch (strategy) {
    case CycleDetectStrategy::Sequential:
      return detect_sequential(f, on_cycle);
    case CycleDetectStrategy::EulerTour:
      return detect_euler(f, on_cycle);
  }
  return detect_sequential(f, on_cycle);
}

}  // namespace sfcp::graph
