#pragma once
// Rooted forests hanging off the cycles of a pseudo-forest (Section 4).
//
// Every cycle node is the root of the tree formed by its non-cycle
// predecessors; tree edges point child -> parent = f(child).  This module
// builds children lists (deterministically: siblings in ascending id order)
// and computes levels, owning roots and root-path prefix sums with two
// interchangeable strategies:
//   * Sequential — DFS over the children lists
//   * EulerTour  — one inclusive scan over the Euler partition of the
//     cycle detector (graph::EulerPartition), no children lists.  Its
//     Euler cycles lie end to end, each cut open at a cycle arc; a tree
//     node's down arc carries +v and its up arc -v, cycle arcs 0.  Every
//     Euler cycle sums to zero and starts at root level, so the prefix at
//     a node's down arc is the sum over its root path below the root.  A
//     root's subtrees split between its two Euler cycles, on either side
//     of its cycle predecessor, but each stays contiguous within its own.
// ForestPaths shares one layout across all of a caller's queries.

#include <span>
#include <utility>
#include <vector>

#include "graph/cycle_detect.hpp"
#include "pram/types.hpp"

namespace sfcp::graph {

struct RootedForest {
  std::vector<u32> parent;     ///< f (parent of a root is its cycle successor)
  std::vector<u8> is_root;     ///< on_cycle flags
  std::vector<u32> child_off;  ///< CSR offsets into child (size n+1)
  std::vector<u32> child;      ///< tree children, siblings ascending
  std::vector<u32> roots;      ///< all root nodes, ascending

  std::size_t size() const { return parent.size(); }
};

RootedForest build_rooted_forest(std::span<const u32> f, std::span<const u8> on_cycle);

enum class ForestStrategy { Sequential, EulerTour };

struct ForestLevels {
  std::vector<u32> level;    ///< 0 for roots
  std::vector<u32> root_of;  ///< owning root (roots map to themselves)
};

ForestLevels forest_levels(const RootedForest& forest, ForestStrategy strategy);

/// sums[x] = sum of vals over the path root(x) .. x (inclusive of both).
std::vector<i64> root_path_sums(const RootedForest& forest, std::span<const i64> vals,
                                ForestStrategy strategy);

/// Levels, owning roots and any number of root-path sums of one forest from
/// ONE traversal structure: under ForestStrategy::EulerTour every query is
/// a scan over the Euler partition.  forest_levels / root_path_sums are its
/// one-query forms.  The arguments must outlive this object.
class ForestPaths {
 public:
  /// Sequential walks forest's children lists; EulerTour builds the Euler
  /// partition of forest.parent.
  ForestPaths(const RootedForest& forest, ForestStrategy strategy);
  /// EulerTour over the partition the cycle detector kept for f
  /// (graph::find_cycle_nodes_into); an empty one is built here from f.
  ForestPaths(std::span<const u32> f, std::span<const u8> on_cycle,
              const EulerPartition& partition);
  ForestPaths(const ForestPaths&) = delete;
  ForestPaths& operator=(const ForestPaths&) = delete;

  const ForestLevels& levels() const& { return levels_; }
  ForestLevels levels() && { return std::move(levels_); }

  std::vector<i64> root_path_sums(std::span<const i64> vals) const;

 private:
  void init_euler();
  /// Inclusive scan over the laid-out Euler cycles of value(x) at each
  /// tree node x's down arc and -value(x) at its up arc.
  template <typename Value>
  std::vector<u64> scan_tour(Value&& value) const;

  const RootedForest* forest_ = nullptr;  ///< Sequential only
  std::span<const u32> f_;
  std::span<const u8> on_cycle_;
  EulerPartition built_;                        ///< EulerTour without a detector partition
  const EulerPartition* partition_ = nullptr;  ///< EulerTour only
  ForestLevels levels_;
};

}  // namespace sfcp::graph
