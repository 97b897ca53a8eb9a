#pragma once
// The single function coarsest partition problem — Theorem 5.1.
//
// Given arrays A_f (the function) and A_B (initial-partition labels),
// compute A_Q: the coarsest partition Q refining B with f-stable blocks.
// Labels are canonicalized to first-occurrence order, so any two correct
// solvers return identical arrays.

#include <cstdint>
#include <string>
#include <vector>

#include "core/cycle_labeling.hpp"
#include "core/partition_view.hpp"
#include "core/tree_labeling.hpp"
#include "graph/cycle_detect.hpp"
#include "graph/cycle_structure.hpp"
#include "graph/functional_graph.hpp"
#include "pram/metrics.hpp"
#include "pram/types.hpp"

namespace sfcp::core {

struct Options {
  graph::CycleDetectStrategy cycle_detect = graph::CycleDetectStrategy::EulerTour;
  graph::CycleStructureStrategy cycle_structure = graph::CycleStructureStrategy::OrbitLabel;
  CycleLabelingOptions cycle_labeling{};
  TreeLabelingOptions tree_labeling{};

  /// Fully parallel configuration (the paper's algorithm); default.
  static Options parallel();
  /// Sequential strategies everywhere: the linear-time sequential solver
  /// (the same decomposition Paige–Tarjan–Bonic [16] follows).
  static Options sequential();
};

struct Result {
  std::vector<u32> q;   ///< Q-labels, canonical (first occurrence order), in [0, num_blocks)
  u32 num_blocks = 0;   ///< |Q|
  u32 num_cycles = 0;
  u32 cycle_nodes = 0;
  u32 kept_tree_nodes = 0;
  u32 residual_tree_nodes = 0;

  /// The partition as an immutable, shareable PartitionView (the preferred
  /// query surface).  The lvalue form copies q; the rvalue form moves it.
  PartitionView view(u64 epoch = 0) const&;
  PartitionView view(u64 epoch = 0) &&;
};

/// Reusable scratch for repeated solves (the Solver hot path): holds the
/// pipeline's intermediate arrays so same-sized instances amortize
/// allocation.  Contents are overwritten by every solve; results are
/// independent of whatever a previous solve left behind.
struct SolveWorkspace {
  std::vector<u8> on_cycle;
  graph::EulerPartition euler;  ///< the detector's, reused by tree labelling
  graph::CycleStructure cs;
  CycleLabeling cl;
  TreeLabeling tl;
};

/// Solves the SFCP instance.  Throws std::invalid_argument on malformed
/// input.  Deterministic output for every strategy combination.
Result solve(const graph::Instance& inst, const Options& opt = Options::parallel());

/// Workspace-reusing overload; identical output to the allocating form.
Result solve(const graph::Instance& inst, const Options& opt, SolveWorkspace& ws);

}  // namespace sfcp::core
