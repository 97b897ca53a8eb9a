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
// Strategies:
//   * Sequential — visited-walk reference, O(n)
//   * EulerTour  — the paper's §5 algorithm

#include <span>
#include <vector>

#include "pram/types.hpp"

namespace sfcp::graph {

enum class CycleDetectStrategy { Sequential, EulerTour };

/// on_cycle[x] = 1 iff x lies on a cycle of the functional graph of f.
std::vector<u8> find_cycle_nodes(std::span<const u32> f,
                                 CycleDetectStrategy strategy = CycleDetectStrategy::EulerTour);

/// Workspace-reusing variant: writes the flags into `on_cycle` (resized to
/// f.size(); existing capacity is reused across calls).
void find_cycle_nodes_into(std::span<const u32> f, CycleDetectStrategy strategy,
                           std::vector<u8>& on_cycle);

}  // namespace sfcp::graph
