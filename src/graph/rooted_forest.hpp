#pragma once
// Rooted forests hanging off the cycles of a pseudo-forest (Section 4).
//
// Every cycle node is the root of the tree formed by its non-cycle
// predecessors; tree edges point child -> parent = f(child).  This module
// builds children lists (deterministically: siblings in ascending id order)
// and computes levels, owning roots and root-path prefix sums with two
// interchangeable strategies (sequential BFS, Euler tour + segmented scan).
// ForestPaths shares one Euler tour across all of a caller's queries.

#include <span>
#include <utility>
#include <vector>

#include "graph/euler_tour.hpp"
#include "pram/types.hpp"
#include "prim/list_ranking.hpp"

namespace sfcp::graph {

struct RootedForest {
  std::vector<u32> parent;     ///< f (parent of a root is its cycle successor)
  std::vector<u8> is_root;     ///< on_cycle flags
  std::vector<u32> child_off;  ///< CSR offsets into child (size n+1)
  std::vector<u32> child;      ///< tree children, siblings ascending
  std::vector<u32> sibling_index;  ///< position of a tree node among its siblings
  std::vector<u32> roots;          ///< all root nodes, ascending

  std::size_t size() const { return parent.size(); }
  u32 degree(u32 v) const { return child_off[v + 1] - child_off[v]; }
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
/// ONE traversal structure: under ForestStrategy::EulerTour the tour is
/// built once here and every query is a segmented scan over it.
/// forest_levels / root_path_sums are its one-query forms.  `forest` must
/// outlive this object.
class ForestPaths {
 public:
  ForestPaths(const RootedForest& forest, ForestStrategy strategy);

  const ForestLevels& levels() const& { return levels_; }
  ForestLevels levels() && { return std::move(levels_); }

  std::vector<i64> root_path_sums(std::span<const i64> vals) const;

 private:
  const RootedForest& forest_;
  ForestStrategy strategy_;
  EulerTour tour_;  ///< empty unless strategy_ == EulerTour
  ForestLevels levels_;
};

}  // namespace sfcp::graph
