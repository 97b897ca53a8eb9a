#pragma once
// Stage-by-stage replay of the solve pipeline through its public entry
// points, for the traced run: graph::validate, find_cycle_nodes_into,
// cycle_structure_with_flags_into, label_cycles_into, label_trees_into and
// prim::canonicalize_labels — the same calls core::solve makes, each wrapped
// in a span and timed, with work/depth charged to a benchmark-owned
// pram::Metrics sink.  Every workload's traced run replays the instances its
// correctness gate solves, so the pipeline's per-layer metrics exist on all
// of them.

#include <cstddef>

#include "common.hpp"
#include "core/coarsest_partition.hpp"
#include "pram/execution_context.hpp"
#include "pram/metrics.hpp"
#include "trace.hpp"

namespace perfbench {

class Replayer {
 public:
  Replayer(SpanLog& log, int threads);

  /// Replays one solve under Options::parallel() and returns its canonical
  /// labels (byte-identical to core::solve when the pipeline is sound).
  sfcp::core::Result replay(const sfcp::graph::Instance& inst, u64 id);

  /// Times core::solve(inst, Options::sequential()) — the single-thread
  /// baseline — and returns it.
  sfcp::core::Result seq_solve(const sfcp::graph::Instance& inst, u64 id);

  /// Runs one allocating core::solve under a heap window and records the
  /// peak heap growth per node.
  void heap_probe(const sfcp::graph::Instance& inst);

  /// Adds the pipeline's per-layer metrics (stage medians, exact counts,
  /// heap and sequential baseline) to `out`.
  void report(Report& out);

 private:
  SpanLog& log_;
  sfcp::pram::Metrics sink_;
  sfcp::pram::ExecutionContext ctx_;
  sfcp::core::Options opt_ = sfcp::core::Options::parallel();
  sfcp::core::SolveWorkspace ws_;

  Dist validate_, detect_, structure_, cycle_label_, tree_label_, rename_, seq_;
  std::vector<double> heap_per_node_;
  std::size_t replays_ = 0;
  std::size_t nodes_ = 0;
};

}  // namespace perfbench
