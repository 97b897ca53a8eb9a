// Unit tests for cycle structure (leader / rank / length / arrangement).
#include <gtest/gtest.h>

#include "graph/cycle_structure.hpp"
#include "pram/execution_context.hpp"
#include "util/generators.hpp"
#include "util/random.hpp"

namespace sfcp {
namespace {

using graph::cycle_structure;
using graph::CycleStructure;
using graph::CycleStructureStrategy;

void check_invariants(const CycleStructure& cs, std::span<const u32> f) {
  const std::size_t n = f.size();
  // Every cycle node's successor is a cycle node with rank+1 (mod len).
  for (u32 x = 0; x < n; ++x) {
    if (!cs.on_cycle[x]) {
      EXPECT_EQ(cs.leader[x], kNone);
      continue;
    }
    const u32 y = f[x];
    ASSERT_TRUE(cs.on_cycle[y]);
    EXPECT_EQ(cs.leader[x], cs.leader[y]);
    EXPECT_EQ(cs.length[x], cs.length[y]);
    EXPECT_EQ((cs.rank[x] + 1) % cs.length[x], cs.rank[y]);
    // Leader is the minimum id on the cycle.
    EXPECT_LE(cs.leader[x], x);
    EXPECT_EQ(cs.on_cycle[cs.leader[x]], 1);
  }
  // Arrangement: node_at(cycle_of[x], rank[x]) == x; leaders have rank 0.
  for (u32 x = 0; x < n; ++x) {
    if (!cs.on_cycle[x]) continue;
    EXPECT_EQ(cs.node_at(cs.cycle_of[x], cs.rank[x]), x);
    if (cs.leader[x] == x) EXPECT_EQ(cs.rank[x], 0u);
  }
  // Offsets consistent with lengths.
  for (std::size_t c = 0; c < cs.num_cycles(); ++c) {
    const u32 len = cs.cycle_length(c);
    EXPECT_EQ(len, cs.length[cs.cycle_nodes[cs.cycle_offset[c]]]);
    EXPECT_GE(len, 1u);
  }
}

TEST(CycleStructure, SelfLoop) {
  std::vector<u32> f{0};
  for (auto strat : {CycleStructureStrategy::Sequential, CycleStructureStrategy::OrbitLabel}) {
    const auto cs = cycle_structure(f, strat);
    EXPECT_EQ(cs.num_cycles(), 1u);
    EXPECT_EQ(cs.on_cycle[0], 1);
    EXPECT_EQ(cs.length[0], 1u);
    EXPECT_EQ(cs.rank[0], 0u);
  }
}

TEST(CycleStructure, TwoCycleWithTail) {
  // 0 <-> 1, 2 -> 0, 3 -> 2
  std::vector<u32> f{1, 0, 0, 2};
  for (auto strat : {CycleStructureStrategy::Sequential, CycleStructureStrategy::OrbitLabel}) {
    const auto cs = cycle_structure(f, strat);
    EXPECT_EQ(cs.num_cycles(), 1u);
    EXPECT_EQ(cs.on_cycle[0], 1);
    EXPECT_EQ(cs.on_cycle[1], 1);
    EXPECT_EQ(cs.on_cycle[2], 0);
    EXPECT_EQ(cs.on_cycle[3], 0);
    EXPECT_EQ(cs.leader[0], 0u);
    EXPECT_EQ(cs.rank[1], 1u);
    check_invariants(cs, f);
  }
}

TEST(CycleStructure, PaperFig1TwoCycles) {
  const auto inst = util::paper_example_2_2();
  for (auto strat : {CycleStructureStrategy::Sequential, CycleStructureStrategy::OrbitLabel}) {
    const auto cs = cycle_structure(inst.f, strat);
    EXPECT_EQ(cs.num_cycles(), 2u);  // lengths 12 and 4 (Fig. 1)
    EXPECT_EQ(cs.cycle_length(0) + cs.cycle_length(1), 16u);
    const u32 lens[2] = {cs.cycle_length(0), cs.cycle_length(1)};
    EXPECT_TRUE((lens[0] == 12 && lens[1] == 4) || (lens[0] == 4 && lens[1] == 12));
    check_invariants(cs, inst.f);
  }
}

TEST(CycleStructure, StrategiesAgreeExactly) {
  util::Rng rng(501);
  for (int iter = 0; iter < 30; ++iter) {
    const auto inst = util::random_function(1 + rng.below(2000), 3, rng);
    const auto seq = cycle_structure(inst.f, CycleStructureStrategy::Sequential);
    const auto par = cycle_structure(inst.f, CycleStructureStrategy::OrbitLabel);
    EXPECT_EQ(seq.on_cycle, par.on_cycle);
    EXPECT_EQ(seq.leader, par.leader);
    EXPECT_EQ(seq.rank, par.rank);
    EXPECT_EQ(seq.length, par.length);
    EXPECT_EQ(seq.cycle_nodes, par.cycle_nodes);
    EXPECT_EQ(seq.cycle_offset, par.cycle_offset);
  }
}

TEST(CycleStructure, PermutationIsAllCycles) {
  util::Rng rng(503);
  const auto inst = util::random_permutation(5000, 3, rng);
  const auto cs = cycle_structure(inst.f, CycleStructureStrategy::OrbitLabel);
  EXPECT_EQ(cs.cycle_nodes.size(), 5000u);
  for (u32 x = 0; x < 5000; ++x) EXPECT_EQ(cs.on_cycle[x], 1);
  check_invariants(cs, inst.f);
}

TEST(CycleStructure, LongTailSingleCycle) {
  util::Rng rng(509);
  const auto inst = util::long_tail(10000, 17, 3, rng);
  for (auto strat : {CycleStructureStrategy::Sequential, CycleStructureStrategy::OrbitLabel}) {
    const auto cs = cycle_structure(inst.f, strat);
    EXPECT_EQ(cs.num_cycles(), 1u);
    EXPECT_EQ(cs.cycle_length(0), 17u);
    check_invariants(cs, inst.f);
  }
}

TEST(CycleStructure, ParallelMatchesSequentialAtBenchmarkSize) {
  // The solve_cold families at their benchmark size, under a 4-thread
  // session, so the ruling-set orbit labelling runs its parallel path.
  const std::size_t n = 1u << 18;
  util::Rng rng(511);
  const graph::Instance insts[] = {util::random_function(n, 4, rng),
                                   util::random_permutation(n, 3, rng),
                                   util::long_tail(n, 257, 3, rng)};
  pram::ScopedContext guard(pram::ExecutionContext{}.with_threads(4));
  for (const auto& inst : insts) {
    const auto seq = cycle_structure(inst.f, CycleStructureStrategy::Sequential);
    const auto par = cycle_structure(inst.f, CycleStructureStrategy::OrbitLabel);
    EXPECT_EQ(seq.on_cycle, par.on_cycle);
    EXPECT_EQ(seq.leader, par.leader);
    EXPECT_EQ(seq.rank, par.rank);
    EXPECT_EQ(seq.length, par.length);
    EXPECT_EQ(seq.cycle_nodes, par.cycle_nodes);
    EXPECT_EQ(seq.cycle_offset, par.cycle_offset);
    EXPECT_EQ(seq.cycle_of, par.cycle_of);
  }
}

class CycleStructureSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CycleStructureSweep, InvariantsOnRandomFunctions) {
  const std::size_t n = GetParam();
  util::Rng rng(n);
  const auto inst = util::random_function(n, 4, rng);
  for (auto strat : {CycleStructureStrategy::Sequential, CycleStructureStrategy::OrbitLabel}) {
    check_invariants(cycle_structure(inst.f, strat), inst.f);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CycleStructureSweep,
                         ::testing::Values(1, 2, 3, 10, 63, 64, 65, 1000, 10000));

}  // namespace
}  // namespace sfcp
