#include "graph/euler_tour.hpp"

#include <cassert>

#include "graph/rooted_forest.hpp"
#include "pram/parallel_for.hpp"
#include "prim/compact.hpp"

namespace sfcp::graph {

EulerTour build_euler_tour(const RootedForest& forest, prim::ListRankStrategy ranking) {
  const std::size_t n = forest.size();
  EulerTour tour;
  tour.pos.assign(2 * n, kNone);
  // A forest of roots only has no arcs: skip ranking 2n singleton lists.
  if (forest.child.empty()) return tour;
  // Successor of each arc in the chained tour.
  std::vector<u32> succ(2 * n, kNone);
  std::vector<u8> used(2 * n, 0);
  pram::parallel_for(0, n, [&](std::size_t xi) {
    const u32 x = static_cast<u32>(xi);
    if (forest.is_root[x]) return;
    used[EulerTour::down_arc(x)] = 1;
    used[EulerTour::up_arc(x)] = 1;
    // down-arc: descend to the first child, or bounce straight back up.
    succ[EulerTour::down_arc(x)] = forest.degree(x) > 0
                                       ? EulerTour::down_arc(forest.child[forest.child_off[x]])
                                       : EulerTour::up_arc(x);
    // up-arc: continue to the next sibling, else climb (ends at a root).
    const u32 p = forest.parent[x];
    const u32 s = forest.sibling_index[x];
    if (s + 1 < forest.degree(p)) {
      succ[EulerTour::up_arc(x)] = EulerTour::down_arc(forest.child[forest.child_off[p] + s + 1]);
    } else if (!forest.is_root[p]) {
      succ[EulerTour::up_arc(x)] = EulerTour::up_arc(p);
    }  // else: end of this tree's tour (chained below)
  });
  // Chain the per-tree tours in ascending root order.
  const std::vector<u32> tree_roots = prim::pack_index_if(forest.roots.size(), [&](std::size_t i) {
    return forest.degree(forest.roots[i]) > 0;
  });
  std::vector<u32> heads(tree_roots.size()), tails(tree_roots.size());
  pram::parallel_for(0, tree_roots.size(), [&](std::size_t i) {
    const u32 r = forest.roots[tree_roots[i]];
    heads[i] = EulerTour::down_arc(forest.child[forest.child_off[r]]);
    tails[i] = EulerTour::up_arc(forest.child[forest.child_off[r + 1] - 1]);
  });
  pram::parallel_for(0, tree_roots.size(), [&](std::size_t i) {
    if (i + 1 < tree_roots.size()) succ[tails[i]] = heads[i + 1];
  });
  // Rank the single chained list; position = rank(head) - rank(arc).
  const std::vector<u32> rank = prim::list_rank(succ, ranking);
  const std::size_t total = heads.empty() ? 0 : static_cast<std::size_t>(rank[heads[0]]) + 1;
  tour.order.assign(total, kNone);
  tour.seg_start.assign(total, 0);
  if (!heads.empty()) {
    const u32 head_rank = rank[heads[0]];
    pram::parallel_for(0, 2 * n, [&](std::size_t a) {
      if (!used[a]) return;
      const u32 p = head_rank - rank[a];
      tour.pos[a] = p;
      tour.order[p] = static_cast<u32>(a);
    });
    pram::parallel_for(0, heads.size(), [&](std::size_t i) {
      tour.seg_start[tour.pos[heads[i]]] = 1;
    });
  }
  return tour;
}

}  // namespace sfcp::graph
