#pragma once
// Q-labels of tree nodes — Section 4, Algorithm "tree node labeling".
//
// Step 1-2: compute levels; a tree node x at level l is "marked" iff its
// B-label equals that of its corresponding cycle node f^{k - (l mod k)}(r)
// (Lemma 4.1).  Step 3: a node keeps its mark only if its whole root path
// is marked (one root-path prefix sum instead of iterative unmarking).
// Step 4: kept nodes copy the Q-label of their corresponding cycle node.
// Step 5 (Lemma 4.2): the residual forest is labelled so that
// Q[x] = Q[y] iff B[x] = B[y] and Q[f(x)] = Q[f(y)] — realized by a global
// (B, Q_parent) -> fresh-label renaming.  Three strategies bracket the
// paper's Kedem–Palem O(n)-operation bound (see DESIGN.md):
//   * LevelSynchronous — O(n) work, depth = residual tree height
//   * AncestorDoubling — O(log n) depth, O(n log depth) work
//   * SequentialDFS    — O(n) reference
// Levels, owning roots and the step-3 root-path sums come from
// graph::ForestPaths: under ForestStrategy::EulerTour they are read off the
// cycle detector's Euler partition (no children lists are built unless
// SequentialDFS walks them); under Sequential, off a graph::RootedForest.

#include <span>
#include <vector>

#include "core/cycle_labeling.hpp"
#include "graph/cycle_detect.hpp"
#include "graph/cycle_structure.hpp"
#include "graph/functional_graph.hpp"
#include "graph/rooted_forest.hpp"
#include "pram/types.hpp"

namespace sfcp::core {

enum class TreeLabelStrategy { LevelSynchronous, AncestorDoubling, SequentialDFS };

struct TreeLabelingOptions {
  TreeLabelStrategy strategy = TreeLabelStrategy::LevelSynchronous;
  graph::ForestStrategy forest = graph::ForestStrategy::EulerTour;
};

struct TreeLabeling {
  std::vector<u32> q;  ///< complete labelling (cycle labels passed through)
  u32 kept = 0;        ///< tree nodes that reuse a cycle label (steps 2-4)
  u32 residual = 0;    ///< tree nodes labelled in step 5
};

/// Extends the cycle labelling `cl` to all tree nodes.
TreeLabeling label_trees(const graph::Instance& inst, const graph::CycleStructure& cs,
                         const CycleLabeling& cl, const TreeLabelingOptions& opt = {});

/// Workspace-reusing variant: rebuilds `out` in place, reusing its vector's
/// capacity across calls.  Under ForestStrategy::EulerTour it builds the
/// Euler partition of inst.f itself.
void label_trees_into(const graph::Instance& inst, const graph::CycleStructure& cs,
                      const CycleLabeling& cl, const TreeLabelingOptions& opt, TreeLabeling& out);

/// As above, reading the tree quantities off `partition`, the Euler
/// partition graph::find_cycle_nodes_into kept for inst.f (core::solve
/// passes its detector's); an empty one is built here when needed.
void label_trees_into(const graph::Instance& inst, const graph::CycleStructure& cs,
                      const CycleLabeling& cl, const TreeLabelingOptions& opt,
                      const graph::EulerPartition& partition, TreeLabeling& out);

}  // namespace sfcp::core
