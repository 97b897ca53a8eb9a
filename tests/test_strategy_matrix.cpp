// Strategy-matrix cross-validation: every registered strategy combination
// must produce bit-identical canonical Q-labels.  This is the strongest
// internal-consistency check in the suite — a bug in any one strategy shows
// up as a mismatch against the other combinations.
//
// The detect x structure x tree lattice is enumerated straight from
// sfcp::registry(); the m.s.p. dimension (which the registry keeps at its
// default) gets its own sweep on top of it.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/registry.hpp"
#include "core/solver.hpp"
#include "core/verify.hpp"
#include "pram/execution_context.hpp"
#include "util/generators.hpp"
#include "util/random.hpp"

namespace sfcp {
namespace {

class StrategyMatrix : public ::testing::TestWithParam<std::string> {
 protected:
  core::Options options() const { return sfcp::registry().at(GetParam()); }
};

TEST_P(StrategyMatrix, AgreesWithDefaultOnRandomInstances) {
  core::Solver solver(options());
  util::Rng rng(13001);
  for (int iter = 0; iter < 8; ++iter) {
    const auto inst = util::random_function(1 + rng.below(800), 1 + rng.below(4), rng);
    const auto got = solver.solve(inst);
    const auto want = core::solve(inst);
    EXPECT_EQ(got.q, want.q) << "iter " << iter;
    EXPECT_EQ(got.num_blocks, want.num_blocks);
  }
}

TEST_P(StrategyMatrix, AgreesOnAdversarialShapes) {
  core::Solver solver(options());
  util::Rng rng(13003);
  const auto shapes = {
      util::random_permutation(512, 3, rng),   // pure cycles
      util::long_tail(512, 8, 2, rng),         // deepest trees
      util::bushy(512, 4, 32, 2, rng),         // widest trees
      util::equal_cycles(16, 32, 3, 3, rng),   // Algorithm partition stress
      util::mergeable(512, 8, rng),            // high coarseness
  };
  for (const auto& inst : shapes) {
    const auto got = solver.solve(inst);
    const auto report = core::verify_solution(inst, got.q);
    EXPECT_TRUE(report.ok()) << report.to_string();
    EXPECT_EQ(got.q, core::solve(inst).q);
  }
}

TEST_P(StrategyMatrix, ThreadCountInvariance) {
  util::Rng rng(13007);
  const auto inst = util::random_function(600, 3, rng);
  const auto want = core::solve(inst, options());
  for (int t : {1, 2, 8}) {
    core::Solver solver(options(), pram::ExecutionContext{}.with_threads(t));
    EXPECT_EQ(solver.solve(inst).q, want.q) << "threads=" << t;
  }
}

std::string matrix_name(const ::testing::TestParamInfo<std::string>& info) {
  std::string s = info.param;
  for (char& c : s) {
    if (c == '-') c = '_';
  }
  return s;
}

INSTANTIATE_TEST_SUITE_P(Registry, StrategyMatrix,
                         ::testing::ValuesIn(sfcp::registry().names()), matrix_name);

// The m.s.p. dimension, swept against the default pipeline on the
// Algorithm-partition stress shapes where it matters.  The parameter stays a
// tuple, and the names keep their "HashSeqPeriod" suffix (the pipeline always
// runs the hashed partition backend and the sequential period finder), so
// the suite's test ids are those it had when it swept those two as well.
using MspCombo = std::tuple<strings::MspStrategy>;

class MspBackendSweep : public ::testing::TestWithParam<MspCombo> {};

TEST_P(MspBackendSweep, AgreesWithDefault) {
  core::Options opt;
  opt.cycle_labeling.msp = std::get<0>(GetParam());
  core::Solver solver(opt);
  util::Rng rng(13011);
  const auto shapes = {
      util::random_permutation(512, 3, rng),
      util::equal_cycles(16, 32, 3, 3, rng),
      util::equal_cycles(64, 8, 2, 2, rng),
      util::random_function(777, 2, rng),
  };
  for (const auto& inst : shapes) {
    EXPECT_EQ(solver.solve(inst).q, core::solve(inst).q);
  }
}

std::string msp_backend_name(const ::testing::TestParamInfo<MspCombo>& info) {
  std::string s;
  switch (std::get<0>(info.param)) {
    case strings::MspStrategy::Brute: s += "MspBrute"; break;
    case strings::MspStrategy::Booth: s += "MspBooth"; break;
    case strings::MspStrategy::Duval: s += "MspDuval"; break;
    case strings::MspStrategy::Simple: s += "MspSimple"; break;
    case strings::MspStrategy::Efficient: s += "MspEff"; break;
  }
  return s + "HashSeqPeriod";
}

INSTANTIATE_TEST_SUITE_P(
    Combos, MspBackendSweep,
    ::testing::Combine(::testing::Values(strings::MspStrategy::Brute, strings::MspStrategy::Booth,
                                         strings::MspStrategy::Duval, strings::MspStrategy::Simple,
                                         strings::MspStrategy::Efficient)),
    msp_backend_name);

}  // namespace
}  // namespace sfcp
