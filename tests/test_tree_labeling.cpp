// Unit tests for Section 4: tree node labelling (all strategy combinations
// against the refinement oracle).
#include <gtest/gtest.h>

#include <string>

#include "core/baselines.hpp"
#include "core/coarsest_partition.hpp"
#include "core/verify.hpp"
#include "pram/config.hpp"
#include "util/generators.hpp"
#include "util/random.hpp"

namespace sfcp {
namespace {

using core::Options;
using core::solve;
using core::solve_naive_refinement;
using core::TreeLabelStrategy;
using graph::ForestStrategy;

Options with(TreeLabelStrategy ts, ForestStrategy fs) {
  Options o = Options::parallel();
  o.tree_labeling.strategy = ts;
  o.tree_labeling.forest = fs;
  return o;
}

const TreeLabelStrategy kTree[] = {TreeLabelStrategy::LevelSynchronous,
                                   TreeLabelStrategy::AncestorDoubling,
                                   TreeLabelStrategy::SequentialDFS};
const ForestStrategy kForest[] = {ForestStrategy::Sequential, ForestStrategy::EulerTour};

TEST(TreeLabeling, KeptNodeCopiesCycleLabel) {
  // Self-loop 0 with b=7; tree node 1 -> 0 with b=7 matches the cycle label
  // string, so it must merge with node 0.
  graph::Instance inst{{0, 0}, {7, 7}};
  for (auto ts : kTree) {
    const auto r = solve(inst, with(ts, ForestStrategy::Sequential));
    EXPECT_EQ(r.q[0], r.q[1]) << static_cast<int>(ts);
    EXPECT_EQ(r.num_blocks, 1u);
  }
}

TEST(TreeLabeling, MismatchedNodeGetsFreshLabel) {
  graph::Instance inst{{0, 0}, {7, 8}};
  for (auto ts : kTree) {
    const auto r = solve(inst, with(ts, ForestStrategy::Sequential));
    EXPECT_NE(r.q[0], r.q[1]);
    EXPECT_EQ(r.num_blocks, 2u);
  }
}

TEST(TreeLabeling, DescendantOfMismatchNeverMerges) {
  // 2 -> 1 -> 0(self).  b: 0 and 2 match, 1 differs: node 2's path has a
  // mismatch, so 2 must NOT take the cycle label even though b[2] == b[0].
  graph::Instance inst{{0, 0, 1}, {7, 8, 7}};
  for (auto ts : kTree) {
    const auto r = solve(inst, with(ts, ForestStrategy::Sequential));
    EXPECT_NE(r.q[2], r.q[0]) << static_cast<int>(ts);
    EXPECT_EQ(r.num_blocks, 3u);
  }
}

TEST(TreeLabeling, WrapAroundCorrespondence) {
  // Cycle (0 1 2) with labels (1 2 3); a path of 5 nodes hangs off node 0.
  // Level l matches cycle node f^{3 - l mod 3}(0): exercises the mod-k wrap
  // in Lemma 4.1.
  graph::Instance inst;
  inst.f = {1, 2, 0, 0, 3, 4, 5, 6};
  //        b of cycle: 1,2,3 ; tree path must match b[f^{k-l}(r)]
  // level1 node (3): corresponding f^{2}(0)=2 -> b=3; level2 (4): f^{1}(0)=1 -> b=2;
  // level3 (5): f^{0}... = (3 - 3%3)%3 -> rank 0 -> b=1; level4 (6): b=3; level5 (7): b=2.
  inst.b = {1, 2, 3, 3, 2, 1, 3, 2};
  for (auto ts : kTree) {
    for (auto fs : kForest) {
      const auto r = solve(inst, with(ts, fs));
      // Whole path matches: everything merges with cycle labels.
      EXPECT_EQ(r.num_blocks, 3u) << static_cast<int>(ts) << "/" << static_cast<int>(fs);
      EXPECT_EQ(r.q[3], r.q[2]);
      EXPECT_EQ(r.q[4], r.q[1]);
      EXPECT_EQ(r.q[5], r.q[0]);
      EXPECT_EQ(r.q[6], r.q[2]);
      EXPECT_EQ(r.q[7], r.q[1]);
    }
  }
}

TEST(TreeLabeling, ResidualSiblingsWithEqualBMerge) {
  // Two residual children of the same cycle node with equal B-labels that
  // do NOT match the cycle: they must share one fresh label (Lemma 4.2).
  graph::Instance inst{{0, 0, 0}, {1, 9, 9}};
  for (auto ts : kTree) {
    const auto r = solve(inst, with(ts, ForestStrategy::Sequential));
    EXPECT_EQ(r.q[1], r.q[2]);
    EXPECT_NE(r.q[1], r.q[0]);
    EXPECT_EQ(r.num_blocks, 2u);
  }
}

TEST(TreeLabeling, ResidualCrossTreeMergeRequiresSameAnchor) {
  // Two separate self-loops with DIFFERENT cycle labels; each has a child
  // with b=9.  Children have equal path strings but different anchor
  // Q-labels -> must NOT merge (Lemma 4.2's second condition).
  graph::Instance inst{{0, 1, 0, 1}, {1, 2, 9, 9}};
  for (auto ts : kTree) {
    const auto r = solve(inst, with(ts, ForestStrategy::Sequential));
    EXPECT_NE(r.q[2], r.q[3]) << static_cast<int>(ts);
  }
  // ...and with EQUAL cycle labels they must merge.
  graph::Instance inst2{{0, 1, 0, 1}, {1, 1, 9, 9}};
  for (auto ts : kTree) {
    const auto r = solve(inst2, with(ts, ForestStrategy::Sequential));
    EXPECT_EQ(r.q[2], r.q[3]) << static_cast<int>(ts);
  }
}

TEST(TreeLabeling, DeepResidualChains) {
  util::Rng rng(1009);
  const auto inst = util::long_tail(5000, 7, 2, rng);
  const auto oracle = solve_naive_refinement(inst);
  for (auto ts : kTree) {
    for (auto fs : kForest) {
      const auto r = solve(inst, with(ts, fs));
      EXPECT_TRUE(core::same_partition(r.q, oracle.q))
          << static_cast<int>(ts) << "/" << static_cast<int>(fs);
    }
  }
}

// Byte equality with the sequential pipeline, not just the same partition.
void expect_same_result(const core::Result& got, const core::Result& want, const char* what,
                        TreeLabelStrategy ts, ForestStrategy fs) {
  const std::string tag = std::string(what) + " " + std::to_string(static_cast<int>(ts)) + "/" +
                          std::to_string(static_cast<int>(fs));
  EXPECT_EQ(got.q, want.q) << tag;
  EXPECT_EQ(got.num_blocks, want.num_blocks) << tag;
  EXPECT_EQ(got.kept_tree_nodes, want.kept_tree_nodes) << tag;
  EXPECT_EQ(got.residual_tree_nodes, want.residual_tree_nodes) << tag;
}

TEST(TreeLabeling, PermutationAndAllTreeForestMatchSequential) {
  util::Rng rng(1013);
  const std::size_t n = 6000;
  // No tree nodes at all: tree labelling must hand the cycle labels through.
  const auto perm = util::random_permutation(n, 3, rng);
  // One self-loop root; every other node is a tree node.
  graph::Instance tree;
  tree.f.resize(n);
  tree.b.resize(n);
  for (u32 x = 0; x < n; ++x) {
    tree.f[x] = x == 0 ? 0 : rng.below_u32(x);
    tree.b[x] = rng.below_u32(2);
  }
  const auto perm_ref = solve(perm, Options::sequential());
  const auto tree_ref = solve(tree, Options::sequential());
  EXPECT_EQ(perm_ref.kept_tree_nodes + perm_ref.residual_tree_nodes, 0u);
  EXPECT_EQ(tree_ref.cycle_nodes, 1u);
  pram::ScopedGrain g(64);  // parallel blocks even at this size
  for (auto ts : kTree) {
    for (auto fs : kForest) {
      expect_same_result(solve(perm, with(ts, fs)), perm_ref, "permutation", ts, fs);
      expect_same_result(solve(tree, with(ts, fs)), tree_ref, "all-tree", ts, fs);
    }
  }
}

class TreeLabelingSweep
    : public ::testing::TestWithParam<std::tuple<TreeLabelStrategy, ForestStrategy>> {};

TEST_P(TreeLabelingSweep, MatchesOracleOnRandomAndShapedInstances) {
  const auto [ts, fs] = GetParam();
  util::Rng rng(static_cast<u64>(static_cast<int>(ts)) * 97 + static_cast<int>(fs));
  for (int iter = 0; iter < 20; ++iter) {
    const auto inst = util::random_function(1 + rng.below(1200), 1 + rng.below_u32(4), rng);
    const auto r = solve(inst, with(ts, fs));
    const auto oracle = solve_naive_refinement(inst);
    EXPECT_EQ(r.num_blocks, oracle.num_blocks);
    EXPECT_TRUE(core::same_partition(r.q, oracle.q)) << "iter " << iter;
  }
  const auto shaped = util::mergeable(2000, 3, rng);
  const auto r = solve(shaped, with(ts, fs));
  EXPECT_TRUE(core::same_partition(r.q, solve_naive_refinement(shaped).q));
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, TreeLabelingSweep,
    ::testing::Combine(::testing::ValuesIn(kTree), ::testing::ValuesIn(kForest)));

}  // namespace
}  // namespace sfcp
