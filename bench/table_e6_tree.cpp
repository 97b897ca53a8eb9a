// E6 — Lemma 4.3: tree node labelling in O(n) operations.
//
// Ablation of the three step-5 strategies (DESIGN.md): LevelSynchronous
// realizes the Kedem–Palem O(n)-operation bound (depth = tree height),
// AncestorDoubling trades O(n log d) work for O(log n) depth, and
// SequentialDFS is the reference.  Shapes: deep path (worst depth), bushy
// (worst fan-out), random (typical ~sqrt(n) depth).  Exits non-zero if the
// strategies disagree on the partition (blocks or labels) of any shape.
#include <iostream>

#include "core/coarsest_partition.hpp"
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
  std::cout << "E6 (Lemma 4.3): tree node labelling strategies\n\n";
  util::Table table({"n", "shape", "strategy", "blocks", "ops", "ops/n", "ms"});
  util::Rng rng(6);

  // Returns the partition so the caller can compare strategies.
  const auto run = [&](const char* shape, const graph::Instance& inst,
                       core::TreeLabelStrategy strat, const char* name) {
    core::Options opt = core::Options::parallel();
    opt.tree_labeling.strategy = strat;
    pram::Metrics m;
    util::Timer timer;
    core::Result r;
    {
      pram::ScopedContext guard(pram::ExecutionContext{}.with_metrics(&m));
      r = core::solve(inst, opt);
    }
    const double ms = timer.millis();
    table.add_row(inst.size(), shape, name, r.num_blocks, m.ops(),
                  static_cast<double>(m.ops()) / static_cast<double>(inst.size()), ms);
    json.record("e6_tree", inst.size(), std::string(name) + "/" + shape, pram::threads(), ms);
    return r;
  };

  int mismatches = 0;
  for (int e = 16; e <= 20; e += 2) {
    const std::size_t n = std::size_t{1} << e;
    const auto deep = util::long_tail(n, 16, 2, rng);
    const auto wide = util::bushy(n, 16, 64, 2, rng);
    const auto rnd = util::random_function(n, 2, rng);
    for (const auto& [shape, inst] :
         {std::pair<const char*, const graph::Instance*>{"deep-path", &deep},
          {"bushy", &wide},
          {"random", &rnd}}) {
      const auto level =
          run(shape, *inst, core::TreeLabelStrategy::LevelSynchronous, "level-sync (KP O(n))");
      const auto doubling =
          run(shape, *inst, core::TreeLabelStrategy::AncestorDoubling, "ancestor-doubling");
      const auto dfs = run(shape, *inst, core::TreeLabelStrategy::SequentialDFS, "sequential dfs");
      for (const core::Result* r : {&level, &doubling}) {
        if (r->num_blocks != dfs.num_blocks || r->q != dfs.q) {
          std::cerr << "E6: strategies disagree on " << shape << " n=" << n << "\n";
          ++mismatches;
        }
      }
    }
  }
  table.print();
  std::cout << "\n(level-sync's ops/n stays flat across shapes — the O(n) operation\n"
            << " bound of Lemma 4.3; ancestor-doubling pays a log(depth) factor on\n"
            << " the deep-path shape and wins depth instead.)\n";
  return mismatches == 0 ? 0 : 1;
}
