// E7 — finding cycle nodes (§5): sequential walk vs the paper's Euler-tour
// method, on cycle-heavy and tree-heavy pseudo-forests.
#include <benchmark/benchmark.h>

#include "graph/cycle_detect.hpp"
#include "util/generators.hpp"
#include "util/random.hpp"

namespace {

using namespace sfcp;

graph::Instance shaped(std::size_t n, int kind, util::Rng& rng) {
  switch (kind) {
    case 0: return util::random_permutation(n, 3, rng);  // all cycle nodes
    case 1: return util::random_function(n, 3, rng);     // sqrt(n)-ish cycles
    default: return util::long_tail(n, 8, 3, rng);       // one tiny cycle
  }
}

template <graph::CycleDetectStrategy S>
void BM_CycleDetect(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const int kind = static_cast<int>(state.range(1));
  util::Rng rng(n + kind);
  const auto inst = shaped(n, kind, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::find_cycle_nodes(inst.f, S));
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * static_cast<i64>(n));
  state.SetLabel(kind == 0 ? "permutation" : kind == 1 ? "random_fn" : "long_tail");
}

BENCHMARK(BM_CycleDetect<graph::CycleDetectStrategy::Sequential>)
    ->ArgsProduct({{1 << 14, 1 << 18, 1 << 20}, {0, 1, 2}});
BENCHMARK(BM_CycleDetect<graph::CycleDetectStrategy::EulerTour>)
    ->ArgsProduct({{1 << 14, 1 << 18, 1 << 20}, {0, 1, 2}});

}  // namespace
