// Unit tests for rooted-forest construction, levels, owning roots and
// root-path sums across the two strategies.
#include <gtest/gtest.h>

#include "graph/cycle_structure.hpp"
#include "graph/rooted_forest.hpp"
#include "util/generators.hpp"
#include "util/random.hpp"

namespace sfcp {
namespace {

using graph::build_rooted_forest;
using graph::cycle_structure;
using graph::forest_levels;
using graph::ForestStrategy;
using graph::root_path_sums;
using graph::RootedForest;

const auto kAll = {ForestStrategy::Sequential, ForestStrategy::EulerTour};

RootedForest forest_of(const graph::Instance& inst) {
  const auto cs = cycle_structure(inst.f, graph::CycleStructureStrategy::Sequential);
  return build_rooted_forest(inst.f, cs.on_cycle);
}

TEST(RootedForestBuild, ChildrenAscendingAndComplete) {
  util::Rng rng(801);
  const auto inst = util::random_function(2000, 3, rng);
  const auto forest = forest_of(inst);
  std::size_t total_children = 0;
  for (u32 v = 0; v < forest.size(); ++v) {
    for (u32 i = forest.child_off[v]; i < forest.child_off[v + 1]; ++i) {
      const u32 c = forest.child[i];
      EXPECT_EQ(inst.f[c], v);
      EXPECT_FALSE(forest.is_root[c]);
      if (i + 1 < forest.child_off[v + 1]) EXPECT_LT(c, forest.child[i + 1]);
      ++total_children;
    }
  }
  std::size_t tree_nodes = 0;
  for (u32 x = 0; x < forest.size(); ++x) tree_nodes += forest.is_root[x] ? 0 : 1;
  EXPECT_EQ(total_children, tree_nodes);
}

TEST(ForestLevelsTest, SimpleChain) {
  // 0 self-loop; 1 -> 0; 2 -> 1; 3 -> 2
  graph::Instance inst{{0, 0, 1, 2}, {0, 0, 0, 0}};
  const auto forest = forest_of(inst);
  for (auto strat : kAll) {
    const auto lv = forest_levels(forest, strat);
    EXPECT_EQ(lv.level, (std::vector<u32>{0, 1, 2, 3})) << static_cast<int>(strat);
    EXPECT_EQ(lv.root_of, (std::vector<u32>{0, 0, 0, 0}));
  }
}

TEST(ForestLevelsTest, TwoTrees) {
  // Cycle 0 <-> 1; 2 -> 0; 3 -> 1; 4 -> 3
  graph::Instance inst{{1, 0, 0, 1, 3}, {0, 0, 0, 0, 0}};
  const auto forest = forest_of(inst);
  for (auto strat : kAll) {
    const auto lv = forest_levels(forest, strat);
    EXPECT_EQ(lv.level, (std::vector<u32>{0, 0, 1, 1, 2}));
    EXPECT_EQ(lv.root_of, (std::vector<u32>{0, 1, 0, 1, 1}));
  }
}

TEST(ForestLevelsTest, StrategiesAgreeOnRandom) {
  util::Rng rng(809);
  for (int iter = 0; iter < 20; ++iter) {
    const auto inst = util::random_function(1 + rng.below(3000), 3, rng);
    const auto forest = forest_of(inst);
    const auto ref = forest_levels(forest, ForestStrategy::Sequential);
    const auto got = forest_levels(forest, ForestStrategy::EulerTour);
    EXPECT_EQ(got.level, ref.level);
    EXPECT_EQ(got.root_of, ref.root_of);
  }
}

TEST(RootPathSums, UnitValuesGiveLevelPlusRootValue) {
  util::Rng rng(811);
  const auto inst = util::random_function(1500, 3, rng);
  const auto forest = forest_of(inst);
  const auto lv = forest_levels(forest, ForestStrategy::Sequential);
  std::vector<i64> ones(forest.size(), 1);
  for (auto strat : kAll) {
    const auto sums = root_path_sums(forest, ones, strat);
    for (u32 x = 0; x < forest.size(); ++x) {
      if (forest.is_root[x]) {
        EXPECT_EQ(sums[x], 1) << "root " << x;
      } else {
        EXPECT_EQ(sums[x], static_cast<i64>(lv.level[x]) + 1) << "node " << x;
      }
    }
  }
}

TEST(RootPathSums, RandomValuesMatchSequential) {
  util::Rng rng(821);
  for (int iter = 0; iter < 15; ++iter) {
    const auto inst = util::random_function(1 + rng.below(2500), 3, rng);
    const auto forest = forest_of(inst);
    std::vector<i64> vals(forest.size());
    for (auto& v : vals) v = static_cast<i64>(rng.below(19)) - 9;
    const auto ref = root_path_sums(forest, vals, ForestStrategy::Sequential);
    EXPECT_EQ(root_path_sums(forest, vals, ForestStrategy::EulerTour), ref);
  }
}

TEST(RootPathSums, DeepPathNoOverflow) {
  util::Rng rng(823);
  const auto inst = util::long_tail(30000, 2, 2, rng);
  const auto forest = forest_of(inst);
  std::vector<i64> ones(forest.size(), 1);
  const auto ref = root_path_sums(forest, ones, ForestStrategy::Sequential);
  EXPECT_EQ(root_path_sums(forest, ones, ForestStrategy::EulerTour), ref);
  EXPECT_EQ(*std::max_element(ref.begin(), ref.end()), 29999);
}

// ForestPaths (one shared traversal per strategy) against the sequential
// per-query forms.
void expect_paths_match(const RootedForest& forest, util::Rng& rng, const char* what) {
  std::vector<i64> a(forest.size()), b(forest.size());
  for (auto& v : a) v = static_cast<i64>(rng.below(19)) - 9;
  for (auto& v : b) v = static_cast<i64>(rng.below(2));
  const auto ref = forest_levels(forest, ForestStrategy::Sequential);
  const auto ref_a = root_path_sums(forest, a, ForestStrategy::Sequential);
  const auto ref_b = root_path_sums(forest, b, ForestStrategy::Sequential);
  for (auto strat : kAll) {
    const graph::ForestPaths paths(forest, strat);
    EXPECT_EQ(paths.levels().level, ref.level) << what << " " << static_cast<int>(strat);
    EXPECT_EQ(paths.levels().root_of, ref.root_of) << what << " " << static_cast<int>(strat);
    // Two queries on one object: the shared tour is reusable.
    EXPECT_EQ(paths.root_path_sums(a), ref_a) << what << " " << static_cast<int>(strat);
    EXPECT_EQ(paths.root_path_sums(b), ref_b) << what << " " << static_cast<int>(strat);
  }
}

TEST(ForestPathsTest, SharedTourMatchesSequential) {
  util::Rng rng(827);
  for (int iter = 0; iter < 10; ++iter) {
    const auto inst = util::random_function(1 + rng.below(3000), 3, rng);
    expect_paths_match(forest_of(inst), rng, "random");
  }
  expect_paths_match(forest_of(util::long_tail(4000, 3, 2, rng)), rng, "long tail");
}

TEST(ForestPathsTest, EmptyForests) {
  util::Rng rng(829);
  expect_paths_match(forest_of(graph::Instance{}), rng, "no nodes");
  // Roots only: every level is 0, every node its own root.
  const auto perm = forest_of(util::random_permutation(500, 2, rng));
  expect_paths_match(perm, rng, "permutation");
  const graph::ForestPaths paths(perm, ForestStrategy::EulerTour);
  for (u32 x = 0; x < perm.size(); ++x) {
    EXPECT_EQ(paths.levels().level[x], 0u);
    EXPECT_EQ(paths.levels().root_of[x], x);
  }
}

}  // namespace
}  // namespace sfcp
