// E9 / A2 — substrate microbenchmarks: scan, integer sort, list ranking
// (three strategies), find-first, tree levels off the Euler partition.
#include <benchmark/benchmark.h>

#include <numeric>
#include <string>

#include "graph/cycle_detect.hpp"
#include "graph/rooted_forest.hpp"
#include "pram/config.hpp"
#include "prim/find_first.hpp"
#include "prim/integer_sort.hpp"
#include "prim/list_ranking.hpp"
#include "prim/scan.hpp"
#include "util/generators.hpp"
#include "util/random.hpp"

namespace {

using namespace sfcp;

void BM_Scan(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  std::vector<u64> in(n), out(n);
  for (auto& v : in) v = rng.below(100);
  for (auto _ : state) {
    benchmark::DoNotOptimize(prim::inclusive_scan<u64>(in, out));
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * static_cast<i64>(n));
}
BENCHMARK(BM_Scan)->Range(1 << 12, 1 << 22);

void BM_IntegerSort(benchmark::State& state, int threads) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(2);
  std::vector<u64> keys(n);
  for (auto& k : keys) k = rng.below(n);
  pram::ScopedThreads width(threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(prim::sort_order_by_key(keys, n));
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * static_cast<i64>(n));
}
// Thread-width lanes (BENCH_primitives.json): the width is a /t<k> name
// segment, so bench_diff.py's scaling report shows speedup vs t1 per size.
const int kIntegerSortLanes = [] {
  for (const int t : {1, 2, 4}) {
    benchmark::RegisterBenchmark(("BM_IntegerSort/t" + std::to_string(t)).c_str(),
                                 BM_IntegerSort, t)
        ->Range(1 << 12, 1 << 21);
  }
  return 0;
}();

void BM_ListRank(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto strategy = static_cast<prim::ListRankStrategy>(state.range(1));
  util::Rng rng(3);
  // One long random-order list.
  std::vector<u32> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  for (std::size_t i = n; i > 1; --i) std::swap(perm[i - 1], perm[rng.below(i)]);
  std::vector<u32> next(n, kNone);
  for (std::size_t i = 0; i + 1 < n; ++i) next[perm[i]] = perm[i + 1];
  for (auto _ : state) {
    benchmark::DoNotOptimize(prim::list_rank(next, strategy));
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * static_cast<i64>(n));
  state.SetLabel(strategy == prim::ListRankStrategy::Sequential      ? "sequential"
                 : strategy == prim::ListRankStrategy::PointerJumping ? "pointer_jumping"
                                                                      : "ruling_set");
}
BENCHMARK(BM_ListRank)
    ->ArgsProduct({{1 << 14, 1 << 18, 1 << 20}, {0, 1, 2}});

void BM_FindFirst(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<u8> flags(n, 0);
  flags[n / 2] = 1;  // hit in the middle
  for (auto _ : state) {
    benchmark::DoNotOptimize(prim::find_first_set(flags));
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * static_cast<i64>(n / 2));
}
BENCHMARK(BM_FindFirst)->Range(1 << 14, 1 << 22);

// Levels and owning roots read off the Euler partition the cycle detector
// keeps (the partition itself is built once, outside the timed loop).
void BM_ForestLevelsFromPartition(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(4);
  const auto inst = util::random_function(n, 3, rng);
  std::vector<u8> on_cycle;
  graph::EulerPartition partition;
  graph::find_cycle_nodes_into(inst.f, graph::CycleDetectStrategy::EulerTour, on_cycle, partition);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::ForestPaths(inst.f, on_cycle, partition).levels());
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * static_cast<i64>(n));
}
BENCHMARK(BM_ForestLevelsFromPartition)->Range(1 << 14, 1 << 20);

}  // namespace
