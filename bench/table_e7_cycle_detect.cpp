// E7 — Section 5, Algorithm "finding cycle nodes": the paper's Euler-tour
// detector vs the sequential walk, on cycle-heavy (permutation-like) and
// tree-heavy (random-function) inputs.  Exits non-zero if the two detectors
// disagree on any input.
#include <iostream>

#include "graph/cycle_detect.hpp"
#include "pram/config.hpp"
#include "pram/execution_context.hpp"
#include "pram/metrics.hpp"
#include "util/bench_json.hpp"
#include "util/generators.hpp"
#include "util/random.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace sfcp;
  util::BenchJson json(argc, argv);
  std::cout << "E7 (S5): finding cycle nodes\n\n";
  util::Table table({"n", "shape", "strategy", "cycle_nodes", "ops", "ops/n", "ms"});
  util::Rng rng(7);

  // Returns the cycle-node flags so the caller can compare detectors.
  const auto run = [&](const char* shape, const graph::Instance& inst,
                       graph::CycleDetectStrategy strat, const char* name) {
    pram::Metrics m;
    util::Timer timer;
    std::vector<u8> on_cycle;
    {
      pram::ScopedContext guard(pram::ExecutionContext{}.with_metrics(&m));
      on_cycle = graph::find_cycle_nodes(inst.f, strat);
    }
    u64 cyc = 0;
    for (const u8 v : on_cycle) cyc += v;
    const double ms = timer.millis();
    table.add_row(inst.size(), shape, name, cyc, m.ops(),
                  static_cast<double>(m.ops()) / static_cast<double>(inst.size()), ms);
    json.record("e7_cycle_detect", inst.size(), std::string(name) + "/" + shape,
                pram::threads(), ms);
    return on_cycle;
  };

  int mismatches = 0;
  for (int e = 16; e <= 20; e += 2) {
    const std::size_t n = std::size_t{1} << e;
    const auto perm = util::random_permutation(n, 3, rng);   // all nodes on cycles
    const auto rnd = util::random_function(n, 3, rng);       // ~sqrt(n) cycle nodes
    const auto tail = util::long_tail(n, 8, 3, rng);         // almost no cycle nodes
    for (const auto& [shape, inst] :
         {std::pair<const char*, const graph::Instance*>{"permutation", &perm},
          {"random", &rnd},
          {"long-tail", &tail}}) {
      const auto euler =
          run(shape, *inst, graph::CycleDetectStrategy::EulerTour, "euler-tour (paper S5)");
      const auto walk = run(shape, *inst, graph::CycleDetectStrategy::Sequential, "sequential walk");
      if (euler != walk) {
        std::cerr << "E7: detectors disagree on " << shape << " n=" << n << "\n";
        ++mismatches;
      }
    }
  }
  table.print();
  std::cout << "\n(euler-tour's ops/n is shape-independent and near-linear: the S5\n"
            << " claim.  The sequential walk is the O(n) reference both rows must match.)\n";
  return mismatches == 0 ? 0 : 1;
}
