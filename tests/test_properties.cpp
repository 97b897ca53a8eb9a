// Property-based sweeps: invariants of the full solver and its
// sub-algorithms across a randomized instance matrix (sizes x label
// densities x shapes x thread counts).
#include <gtest/gtest.h>

#include "core/baselines.hpp"
#include "core/coarsest_partition.hpp"
#include "core/verify.hpp"
#include "pram/config.hpp"
#include "pram/metrics.hpp"
#include "strings/msp.hpp"
#include "strings/period.hpp"
#include "util/generators.hpp"
#include "util/random.hpp"

namespace sfcp {
namespace {

using core::Options;
using core::solve;

class SolverProperties : public ::testing::TestWithParam<std::tuple<std::size_t, u32>> {};

TEST_P(SolverProperties, RefinesStableCoarsestAndDeterministic) {
  const auto [n, labels] = GetParam();
  util::Rng rng(n * 131 + labels);
  const auto inst = util::random_function(n, labels, rng);
  const auto r1 = solve(inst);
  const auto r2 = solve(inst);
  EXPECT_EQ(r1.q, r2.q) << "solver must be deterministic";
  EXPECT_TRUE(core::is_refinement(r1.q, inst.b));
  EXPECT_TRUE(core::is_stable(r1.q, inst.f));
  EXPECT_TRUE(core::same_partition(r1.q, core::solve_naive_refinement(inst).q));
  // Q refines B but never has fewer blocks than B's canonical count.
  EXPECT_GE(r1.num_blocks, core::count_blocks(inst.b));
}

INSTANTIATE_TEST_SUITE_P(Matrix, SolverProperties,
                         ::testing::Combine(::testing::Values(1, 2, 17, 128, 1000),
                                            ::testing::Values(1u, 2u, 8u, 1000000u)));

TEST(SolverProperties, ThreadCountInvariance) {
  util::Rng rng(1601);
  const auto inst = util::random_function(5000, 3, rng);
  const auto ref = solve(inst);
  for (const int t : {1, 2, 4, 8}) {
    pram::ScopedThreads threads(t);
    EXPECT_EQ(solve(inst).q, ref.q) << "threads=" << t;
  }
}

TEST(SolverProperties, GrainInvariance) {
  util::Rng rng(1607);
  const auto inst = util::random_function(5000, 3, rng);
  const auto ref = solve(inst);
  for (const std::size_t g : {1u, 64u, 100000u}) {
    pram::ScopedGrain grain(g);
    EXPECT_EQ(solve(inst).q, ref.q) << "grain=" << g;
  }
}

TEST(SolverProperties, BlockCountMonotoneInB) {
  // Refining B can only increase the number of Q-blocks.
  util::Rng rng(1609);
  const auto base = util::random_function(1000, 2, rng);
  graph::Instance finer = base;
  for (std::size_t x = 0; x < finer.size(); ++x) {
    finer.b[x] = finer.b[x] * 2 + (x % 2);  // split every B-block
  }
  EXPECT_GE(solve(finer).num_blocks, solve(base).num_blocks);
}

TEST(SolverProperties, PermutationOfNodeIdsPreservesPartitionSizes) {
  // Relabelling nodes (conjugating f) permutes Q but keeps block sizes.
  util::Rng rng(1613);
  const auto inst = util::random_function(500, 3, rng);
  std::vector<u32> perm(inst.size());
  for (u32 i = 0; i < perm.size(); ++i) perm[i] = i;
  for (std::size_t i = perm.size(); i > 1; --i) std::swap(perm[i - 1], perm[rng.below(i)]);
  graph::Instance conj;
  conj.f.resize(inst.size());
  conj.b.resize(inst.size());
  for (u32 x = 0; x < inst.size(); ++x) {
    conj.f[perm[x]] = perm[inst.f[x]];
    conj.b[perm[x]] = inst.b[x];
  }
  const auto r = solve(inst);
  const auto rc = solve(conj);
  EXPECT_EQ(r.num_blocks, rc.num_blocks);
  for (u32 x = 0; x < inst.size(); ++x) {
    for (u32 y = x + 1; y < inst.size(); ++y) {
      EXPECT_EQ(r.q[x] == r.q[y], rc.q[perm[x]] == rc.q[perm[y]]);
    }
  }
}

TEST(MspProperties, RotationShiftsMsp) {
  // msp(rotate(s, r)) == (msp(s) - r) mod n for primitive strings.
  util::Rng rng(1619);
  const auto s = util::random_primitive_string(300, 3, rng);
  const u32 j0 = strings::msp_booth(s);
  for (const std::size_t r : {1u, 7u, 120u, 299u}) {
    std::vector<u32> rot(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) rot[i] = s[(i + r) % s.size()];
    const u32 expect = static_cast<u32>((j0 + s.size() - r) % s.size());
    EXPECT_EQ(strings::msp_efficient(rot), expect) << "r=" << r;
  }
}

TEST(MspProperties, MspRotationIsLexMin) {
  util::Rng rng(1621);
  for (int iter = 0; iter < 25; ++iter) {
    const auto s = util::random_string(1 + rng.below(200), 4, rng);
    const u32 j0 = strings::minimal_starting_point(s, strings::MspStrategy::Efficient);
    // Rotation at j0 must be <= rotation at any other start.
    for (u32 c = 0; c < s.size(); ++c) {
      for (std::size_t l = 0; l < s.size(); ++l) {
        const u32 a = s[(j0 + l) % s.size()];
        const u32 b = s[(c + l) % s.size()];
        if (a != b) {
          EXPECT_LT(a, b) << "rotation " << c << " beats msp " << j0;
          break;
        }
      }
    }
  }
}

TEST(MetricsProperties, OpCountsScaleNearLinearly) {
  // Theorem 5.1: operations are O(n log log n) — so ops(4n)/ops(n) must be
  // well below the O(n log n) ratio (~4.6) and near 4.  Allow slack for
  // constant terms: the ratio must be < 5.5 and > 3 on random inputs.
  util::Rng rng(1627);
  const auto small = util::random_function(1 << 14, 3, rng);
  const auto large = util::random_function(1 << 16, 3, rng);
  pram::Metrics ms, ml;
  {
    pram::ScopedMetrics guard(ms);
    solve(small);
  }
  {
    pram::ScopedMetrics guard(ml);
    solve(large);
  }
  const double ratio = static_cast<double>(ml.ops()) / static_cast<double>(ms.ops());
  EXPECT_GT(ratio, 3.0);
  EXPECT_LT(ratio, 5.5);
}

TEST(SolverProperties, AllCycleDetectStrategiesOnShapedSuite) {
  util::Rng rng(1631);
  for (int shape = 0; shape < 4; ++shape) {
    graph::Instance inst;
    switch (shape) {
      case 0: inst = util::random_permutation(600, 2, rng); break;
      case 1: inst = util::long_tail(600, 6, 2, rng); break;
      case 2: inst = util::bushy(600, 3, 2, 2, rng); break;
      default: inst = util::mergeable(600, 3, rng); break;
    }
    const auto ref = solve(inst, Options::sequential());
    for (const auto cd :
         {graph::CycleDetectStrategy::Sequential, graph::CycleDetectStrategy::EulerTour}) {
      Options o = Options::parallel();
      o.cycle_detect = cd;
      EXPECT_EQ(solve(inst, o).q, ref.q) << "shape=" << shape;
    }
  }
}

}  // namespace
}  // namespace sfcp
