// E8 — cycle node labelling (Lemma 3.2) on pure-cycle inputs: sweeps cycle
// count, cycle length and B-label period structure.
#include <benchmark/benchmark.h>

#include "core/cycle_labeling.hpp"
#include "graph/cycle_structure.hpp"
#include "util/generators.hpp"
#include "util/random.hpp"

namespace {

using namespace sfcp;

void BM_CycleLabeling(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  const std::size_t len = static_cast<std::size_t>(state.range(1));
  util::Rng rng(k * 3 + len);
  const auto inst = util::equal_cycles(k, len, 4, 3, rng);
  const auto cs = graph::cycle_structure(inst.f, graph::CycleStructureStrategy::OrbitLabel);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::label_cycles(inst, cs));
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * static_cast<i64>(k * len));
}
BENCHMARK(BM_CycleLabeling)
    ->ArgsProduct({{1 << 4, 1 << 8, 1 << 12}, {16, 256}});

void BM_CycleLabelingOneBigCycle(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(n);
  const auto inst = util::equal_cycles(1, n, 1, 3, rng);
  const auto cs = graph::cycle_structure(inst.f, graph::CycleStructureStrategy::OrbitLabel);
  core::CycleLabelingOptions opt;
  opt.msp = static_cast<strings::MspStrategy>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::label_cycles(inst, cs, opt));
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * static_cast<i64>(n));
  state.SetLabel(state.range(1) == static_cast<int>(strings::MspStrategy::Booth)
                     ? "booth"
                     : state.range(1) == static_cast<int>(strings::MspStrategy::Simple)
                           ? "simple"
                           : "efficient");
}
BENCHMARK(BM_CycleLabelingOneBigCycle)
    ->ArgsProduct({{1 << 14, 1 << 18, 1 << 20},
                   {static_cast<int>(strings::MspStrategy::Booth),
                    static_cast<int>(strings::MspStrategy::Simple),
                    static_cast<int>(strings::MspStrategy::Efficient)}});

}  // namespace
