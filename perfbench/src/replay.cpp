#include "replay.hpp"

#include <utility>

#include "alloc_counter.hpp"
#include "graph/cycle_detect.hpp"
#include "graph/cycle_structure.hpp"
#include "prim/rename.hpp"

namespace perfbench {

namespace core = sfcp::core;
namespace graph = sfcp::graph;

namespace {

template <typename F>
void stage(SpanLog& log, const char* name, u64 id, Dist& d, F&& body) {
  SpanLog::Scope span(log, name, id);
  const i64 t0 = now_ns();
  body();
  d.add(static_cast<double>(now_ns() - t0) * 1e-6);
}

}  // namespace

Replayer::Replayer(SpanLog& log, int threads) : log_(log) {
  ctx_.threads = threads;
  ctx_.metrics = &sink_;
}

core::Result Replayer::replay(const graph::Instance& inst, u64 id) {
  sfcp::pram::ScopedContext guard(&ctx_);
  SpanLog::Scope span(log_, "core.replay", id);
  stage(log_, "graph.validate", id, validate_, [&] { graph::validate(inst); });
  stage(log_, "graph.cycle_detect", id, detect_,
        [&] { graph::find_cycle_nodes_into(inst.f, opt_.cycle_detect, ws_.on_cycle); });
  stage(log_, "graph.cycle_structure", id, structure_, [&] {
    graph::cycle_structure_with_flags_into(inst.f, ws_.on_cycle, opt_.cycle_structure, ws_.cs);
  });
  stage(log_, "core.cycle_label", id, cycle_label_,
        [&] { core::label_cycles_into(inst, ws_.cs, opt_.cycle_labeling, ws_.cl); });
  stage(log_, "core.tree_label", id, tree_label_,
        [&] { core::label_trees_into(inst, ws_.cs, ws_.cl, opt_.tree_labeling, ws_.tl); });
  core::Result r;
  stage(log_, "prim.rename", id, rename_, [&] {
    auto canon = sfcp::prim::canonicalize_labels(ws_.tl.q);
    r.q = std::move(canon.labels);
    r.num_blocks = canon.num_classes;
  });
  ++replays_;
  nodes_ += inst.size();
  return r;
}

core::Result Replayer::seq_solve(const graph::Instance& inst, u64 id) {
  SpanLog::Scope span(log_, "core.seq_solve", id);
  const i64 t0 = now_ns();
  core::Result r = core::solve(inst, core::Options::sequential());
  seq_.add(static_cast<double>(now_ns() - t0) * 1e-6);
  return r;
}

void Replayer::heap_probe(const graph::Instance& inst) {
  sfcp::pram::ScopedContext guard(sfcp::pram::ExecutionContext{}.with_threads(ctx_.threads));
  HeapWindow window;
  const core::Result r = core::solve(inst, opt_);
  heap_per_node_.push_back(static_cast<double>(window.peak_bytes()) /
                           static_cast<double>(inst.size()));
}

void Replayer::report(Report& out) {
  const sfcp::pram::MetricsSnapshot m = sink_.snapshot();
  const auto per_node = [&](u64 v) {
    return nodes_ == 0 ? 0.0 : static_cast<double>(v) / static_cast<double>(nodes_);
  };
  const std::size_t n = replays_;
  out.add("graph.validate_ms", validate_.p50(), "ms", n, "p50 per replayed solve");
  out.add("graph.cycle_detect_ms", detect_.p50(), "ms", n, "p50 per replayed solve");
  out.add("graph.cycle_structure_ms", structure_.p50(), "ms", n, "p50 per replayed solve");
  out.add("core.cycle_label_ms", cycle_label_.p50(), "ms", n,
          "p50 per replayed solve (strings MSP/necklaces inside)");
  out.add("core.tree_label_ms", tree_label_.p50(), "ms", n, "p50 per replayed solve");
  out.add("prim.rename_ms", rename_.p50(), "ms", n, "p50 per replayed solve");
  out.add("pram.ops_per_node", per_node(m.operations), "count", n,
          "exact PRAM operations / replayed node");
  out.add("pram.rounds_per_solve",
          n == 0 ? 0.0 : static_cast<double>(m.rounds) / static_cast<double>(n), "count", n,
          "exact synchronous rounds / replayed solve");
  out.add("pram.sort_ops_per_node", per_node(m.sort_ops), "count", n,
          "exact integer-sort operations / replayed node");
  out.add("core.heap_peak_bytes_per_node", median(heap_per_node_), "bytes",
          heap_per_node_.size(), "median heap high-water of one allocating solve / n");
  out.add("core.seq_solve_ms_p50", seq_.p50(), "ms", seq_.size(),
          "Options::sequential() on the same instances");
}

}  // namespace perfbench
