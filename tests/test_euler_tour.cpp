// Unit tests for Euler tours of rooted forests.
#include <gtest/gtest.h>

#include "graph/cycle_structure.hpp"
#include "graph/euler_tour.hpp"
#include "graph/rooted_forest.hpp"
#include "util/generators.hpp"
#include "util/random.hpp"

namespace sfcp {
namespace {

using graph::build_euler_tour;
using graph::build_rooted_forest;
using graph::cycle_structure;
using graph::EulerTour;
using graph::RootedForest;

RootedForest forest_of(const graph::Instance& inst) {
  const auto cs = cycle_structure(inst.f, graph::CycleStructureStrategy::Sequential);
  return build_rooted_forest(inst.f, cs.on_cycle);
}

// Structural checks: the tour is a permutation of all used arcs; every
// down-arc precedes its up-arc; nesting is balanced per tree.
void check_tour(const RootedForest& forest, const EulerTour& tour) {
  const std::size_t n = forest.size();
  std::size_t tree_nodes = 0;
  for (u32 x = 0; x < n; ++x) tree_nodes += forest.is_root[x] ? 0 : 1;
  ASSERT_EQ(tour.order.size(), 2 * tree_nodes);
  std::vector<u8> seen(tour.order.size(), 0);
  for (std::size_t p = 0; p < tour.order.size(); ++p) {
    const u32 arc = tour.order[p];
    ASSERT_NE(arc, kNone) << "hole at position " << p;
    EXPECT_EQ(tour.pos[arc], p);
    seen[p] = 1;
  }
  i64 depth = 0;
  for (std::size_t p = 0; p < tour.order.size(); ++p) {
    if (tour.seg_start[p]) EXPECT_EQ(depth, 0) << "unbalanced tour at segment start " << p;
    depth += EulerTour::is_down(tour.order[p]) ? 1 : -1;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  for (u32 x = 0; x < n; ++x) {
    if (forest.is_root[x]) {
      EXPECT_EQ(tour.pos[EulerTour::down_arc(x)], kNone);
      EXPECT_EQ(tour.pos[EulerTour::up_arc(x)], kNone);
    } else {
      EXPECT_LT(tour.pos[EulerTour::down_arc(x)], tour.pos[EulerTour::up_arc(x)]);
    }
  }
  // Parent's down-arc encloses the child's.
  for (u32 x = 0; x < n; ++x) {
    if (forest.is_root[x]) continue;
    const u32 p = forest.parent[x];
    if (forest.is_root[p]) continue;
    EXPECT_LT(tour.pos[EulerTour::down_arc(p)], tour.pos[EulerTour::down_arc(x)]);
    EXPECT_GT(tour.pos[EulerTour::up_arc(p)], tour.pos[EulerTour::up_arc(x)]);
  }
}

TEST(EulerTourTest, NoTreeNodes) {
  std::vector<u32> f{1, 0};
  graph::Instance inst{{1, 0}, {0, 0}};
  const auto forest = forest_of(inst);
  const auto tour = build_euler_tour(forest);
  EXPECT_TRUE(tour.order.empty());
  EXPECT_TRUE(tour.seg_start.empty());
  EXPECT_EQ(tour.pos, std::vector<u32>(4, kNone));
}

TEST(EulerTourTest, SinglePathIntoSelfLoop) {
  // 0 self-loop; 1 -> 0; 2 -> 1
  graph::Instance inst{{0, 0, 1}, {0, 0, 0}};
  const auto forest = forest_of(inst);
  const auto tour = build_euler_tour(forest);
  ASSERT_EQ(tour.order.size(), 4u);
  EXPECT_EQ(tour.order[0], EulerTour::down_arc(1));
  EXPECT_EQ(tour.order[1], EulerTour::down_arc(2));
  EXPECT_EQ(tour.order[2], EulerTour::up_arc(2));
  EXPECT_EQ(tour.order[3], EulerTour::up_arc(1));
  check_tour(forest, tour);
}

TEST(EulerTourTest, StarTree) {
  // 0 self-loop; 1..5 -> 0
  graph::Instance inst{{0, 0, 0, 0, 0, 0}, {0, 0, 0, 0, 0, 0}};
  const auto forest = forest_of(inst);
  const auto tour = build_euler_tour(forest);
  ASSERT_EQ(tour.order.size(), 10u);
  check_tour(forest, tour);
  // Siblings appear in ascending order (deterministic construction).
  EXPECT_EQ(tour.order[0], EulerTour::down_arc(1));
  EXPECT_EQ(tour.order[2], EulerTour::down_arc(2));
}

TEST(EulerTourTest, MultipleTreesChained) {
  // Two self-loops 0 and 1; 2 -> 0, 3 -> 1.
  graph::Instance inst{{0, 1, 0, 1}, {0, 0, 0, 0}};
  const auto forest = forest_of(inst);
  const auto tour = build_euler_tour(forest);
  ASSERT_EQ(tour.order.size(), 4u);
  EXPECT_EQ(tour.seg_start[0], 1);
  EXPECT_EQ(tour.seg_start[2], 1);
  check_tour(forest, tour);
}

class EulerTourSweep : public ::testing::TestWithParam<prim::ListRankStrategy> {};

TEST_P(EulerTourSweep, RandomForestsAllRankingStrategies) {
  util::Rng rng(701);
  for (int iter = 0; iter < 15; ++iter) {
    const auto inst = util::random_function(1 + rng.below(3000), 3, rng);
    const auto forest = forest_of(inst);
    const auto tour = build_euler_tour(forest, GetParam());
    check_tour(forest, tour);
  }
}

INSTANTIATE_TEST_SUITE_P(Rankings, EulerTourSweep,
                         ::testing::Values(prim::ListRankStrategy::Sequential,
                                           prim::ListRankStrategy::PointerJumping,
                                           prim::ListRankStrategy::RulingSet));

TEST(EulerTourTest, DeepPath) {
  util::Rng rng(709);
  const auto inst = util::long_tail(20000, 3, 2, rng);
  const auto forest = forest_of(inst);
  check_tour(forest, build_euler_tour(forest));
}

}  // namespace
}  // namespace sfcp
