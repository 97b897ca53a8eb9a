#pragma once
// Finding the cycle nodes of a pseudo-forest — Section 5, Algorithm
// "finding cycle nodes".
//
// The paper's method: double every edge (x, f(x)) with a buddy (f(x), x),
// apply the Tarjan–Vishkin Euler-partition successor rule [19] to the
// resulting multigraph, and observe that each pseudo-tree decomposes into
// exactly two Euler cycles such that a GRAPH-cycle edge and its buddy land
// in different Euler cycles while a tree edge and its buddy share one.
//
// The same partition is the Euler tour of the forest hanging off the
// cycles (Section 4): within each Euler cycle every subtree is walked
// contiguously, down its buddy arcs and back up its edges.  The detector
// can keep its layout (EulerPartition) so that tree labelling reads levels,
// owning roots and root-path sums off it (graph::ForestPaths) instead of
// building a second tour.  When f is a permutation (every in-degree 1)
// every node is a cycle node and the partition is skipped.
//
// Strategies:
//   * Sequential — visited-walk reference, O(n)
//   * EulerTour  — the paper's §5 algorithm

#include <span>
#include <vector>

#include "pram/types.hpp"

namespace sfcp::graph {

enum class CycleDetectStrategy { Sequential, EulerTour };

/// The Euler partition of the doubled pseudo-forest of f.  Arc 2x is the
/// edge (x -> f(x)), arc 2x+1 its buddy (f(x) -> x); at every node the
/// out-arcs are ordered edge first, then the buddies of its preimages in
/// ascending id order.  Empty when f is a permutation.
struct EulerPartition {
  /// Per arc: its place when the Euler cycles are laid end to end in order
  /// of their minimum arcs, each cut open at its first cycle arc (every
  /// Euler cycle holds one).
  std::vector<u32> slot;

  bool empty() const { return slot.empty(); }
};

/// on_cycle[x] = 1 iff x lies on a cycle of the functional graph of f.
std::vector<u8> find_cycle_nodes(std::span<const u32> f,
                                 CycleDetectStrategy strategy = CycleDetectStrategy::EulerTour);

/// Workspace-reusing variant: writes the flags into `on_cycle` (resized to
/// f.size(); existing capacity is reused across calls).
void find_cycle_nodes_into(std::span<const u32> f, CycleDetectStrategy strategy,
                           std::vector<u8>& on_cycle);

/// As above, and keeps the EulerTour detector's partition in `partition`
/// (reusing its capacity).  Sequential, and any f that is a permutation,
/// leave `partition` empty.
void find_cycle_nodes_into(std::span<const u32> f, CycleDetectStrategy strategy,
                           std::vector<u8>& on_cycle, EulerPartition& partition);

}  // namespace sfcp::graph
