// solve_cold — the paper's problem as a batch caller sees it: a closed loop
// of core::Solver::solve calls over fixed-seed n = 2^18 instances, cycling
// round-robin through three families: random_function (mixed),
// random_permutation (all cycles, so cycle_label/strings heavy) and
// long_tail (one deep path, so tree_label heavy).  Each family contributes
// kPerFamily instances, so one seed's instance structure moves the medians
// less.  After each solve the caller reads the result: kReadsPerSolve
// class_of + class_members lookups on random nodes of the returned
// PartitionView (the first one builds the view's member index).
//
// Correctness: every solve is byte-identical to Options::sequential() on
// the same instance, each instance's labels pass verify_labels, and every
// read returns the node's own class.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/solver.hpp"
#include "replay.hpp"
#include "trace.hpp"
#include "util/generators.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = sfcp::core;
namespace graph = sfcp::graph;
namespace util = sfcp::util;

namespace {

constexpr std::size_t kNodes = std::size_t{1} << 18;
constexpr std::size_t kPerFamily = 4;
constexpr std::size_t kReadsPerSolve = 256;
constexpr int kSetups = 5;  ///< set-ups per run; setup_s is their median
/// Solves per second of --seconds, calibrated so a run measures about
/// --seconds on a 4-core x86 host.
constexpr double kSolvesPerSecond = 4.8;
constexpr const char* kFamilies[] = {"random_function", "random_permutation", "long_tail"};
constexpr std::size_t kNumFamilies = std::size(kFamilies);

struct Inputs {
  std::vector<graph::Instance> insts;  ///< family i % 3, round-robin order
  std::vector<std::vector<u32>> expect;  ///< Options::sequential() labels
  std::vector<u32> read_nodes;  ///< kReadsPerSolve per solve, in loop order
};

Inputs make_inputs(u64 seed, std::size_t solves) {
  Inputs in;
  util::Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x50c01d);
  for (std::size_t k = 0; k < kPerFamily; ++k) {
    in.insts.push_back(util::random_function(kNodes, 4, rng));
    in.insts.push_back(util::random_permutation(kNodes, 3, rng));
    in.insts.push_back(util::long_tail(kNodes, 257, 3, rng));
  }
  for (const graph::Instance& inst : in.insts) {
    in.expect.push_back(core::solve(inst, core::Options::sequential()).q);
  }
  in.read_nodes.resize(solves * kReadsPerSolve);
  for (u32& x : in.read_nodes) x = rng.below_u32(static_cast<u32>(kNodes));
  return in;
}

struct LoopResult {
  Dist solve_ms, read_us;
  Dist family_ms[kNumFamilies];
  double wall_s = 0.0;
};

/// The measured closed loop.  With a replayer, each solve is also replayed
/// stage by stage (outside the solve's timing) and compared.
LoopResult run_loop(core::Solver& solver, const Inputs& in, std::size_t solves, SpanLog& log,
                    Replayer* replayer, Report& rep) {
  LoopResult out;
  out.solve_ms.reserve(solves);
  out.read_us.reserve(solves * kReadsPerSolve);
  const i64 start = now_ns();
  for (std::size_t k = 0; k < solves; ++k) {
    const std::size_t idx = k % in.insts.size();
    const graph::Instance& inst = in.insts[idx];
    const std::vector<u32>& expect = in.expect[idx];
    core::Result r;
    {
      SpanLog::Scope span(log, "core.solve", k);
      const i64 t0 = now_ns();
      r = solver.solve(inst);
      const double ms = static_cast<double>(now_ns() - t0) * 1e-6;
      out.solve_ms.add(ms);
      out.family_ms[idx % kNumFamilies].add(ms);
    }
    ++rep.attempted;
    if (r.q != expect) rep.fail("solve " + std::to_string(k) + " differs from sequential");
    if (replayer != nullptr && replayer->replay(inst, k).q != r.q) {
      rep.fail("replayed pipeline differs from Solver::solve on solve " + std::to_string(k));
    }
    const core::PartitionView view = std::move(r).view();
    const u32* nodes = &in.read_nodes[k * kReadsPerSolve];
    for (std::size_t j = 0; j < kReadsPerSolve; ++j) {
      const u32 x = nodes[j];
      u32 cls = 0;
      std::size_t members = 0;
      {
        SpanLog::Scope span(log, "core.read", k);
        const i64 t0 = now_ns();
        cls = view.class_of(x);
        members = view.class_members(cls).size();
        out.read_us.add(static_cast<double>(now_ns() - t0) * 1e-3);
      }
      ++rep.attempted;
      if (cls != expect[x] || members == 0) rep.fail("read of node " + std::to_string(x));
    }
  }
  out.wall_s = static_cast<double>(now_ns() - start) * 1e-9;
  return out;
}

}  // namespace

Report run_solve_cold(const Args& args) {
  Report rep;
  const std::size_t solves = std::max<std::size_t>(
      2 * kPerFamily * kNumFamilies,
      static_cast<std::size_t>(kSolvesPerSecond * args.seconds + 0.5));
  const Inputs in = make_inputs(args.seed, solves);

  rep.add_info("instances", std::to_string(kPerFamily) + " each of random_function, "
                            "random_permutation, long_tail at n=" + std::to_string(kNodes));
  rep.add_info("threads", std::to_string(args.nproc) + " (nproc), Options::parallel()");
  rep.add_info("loop", "closed, 1 caller, " + std::to_string(solves) + " solves round-robin, " +
                           std::to_string(kReadsPerSolve) + " reads per solve");

  // Set-up: a fresh Solver and one warm-up solve per family (workspaces
  // grow to size, the OpenMP team starts).
  const sfcp::pram::ExecutionContext ctx =
      sfcp::pram::ExecutionContext{}.with_threads(args.nproc);
  std::vector<double> setup_s;
  std::unique_ptr<core::Solver> solver;
  for (int s = 0; s < kSetups; ++s) {
    solver.reset();
    const i64 t0 = now_ns();
    solver = std::make_unique<core::Solver>(core::Options::parallel(), ctx);
    for (std::size_t i = 0; i < kNumFamilies; ++i) {
      ++rep.attempted;
      if (solver->solve(in.insts[i]).q != in.expect[i]) rep.fail("warm-up solve differs");
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }

  SpanLog untraced(false);
  LoopResult base = run_loop(*solver, in, solves, untraced, nullptr, rep);

  for (std::size_t i = 0; i < in.insts.size(); ++i) {
    ++rep.attempted;
    if (!verify_labels(in.insts[i], in.expect[i])) {
      rep.fail(std::string(kFamilies[i % kNumFamilies]) + " instance " + std::to_string(i) +
               ": labels fail the oracle");
    }
  }

  const double tail_p = base.solve_ms.tail_percentile();
  const double read_tail_p = base.read_us.tail_percentile();
  rep.add("setup_s", median(setup_s), "s", setup_s.size(),
          "Solver construction + one warm-up solve per family");
  rep.add("peak_rss_mb", peak_rss_mb(), "MiB", 1, "getrusage high-water mark");
  rep.add("ops_per_s", static_cast<double>(solves) / base.wall_s, "1/s", solves,
          "solves per second of loop wall time");
  rep.add("op_ms_p50", base.solve_ms.p50(), "ms", solves, "solve_ms_p50: Solver::solve");
  rep.add("op_ms_tail", base.solve_ms.tail(), "ms", solves,
          "solve_ms_tail: Solver::solve at " + pct_name(tail_p));
  for (std::size_t i = 0; i < kNumFamilies; ++i) {
    rep.add(std::string("solve_ms_p50.") + kFamilies[i], base.family_ms[i].p50(), "ms",
            base.family_ms[i].size(), "Solver::solve on this family only");
  }
  rep.add("reads_per_s", static_cast<double>(base.read_us.size()) / base.wall_s, "1/s",
          base.read_us.size(), "view reads per second of loop wall time");
  rep.add("read_us_p50", base.read_us.p50(), "us", base.read_us.size(),
          "class_of + class_members on the solved PartitionView");
  rep.add("read_us_tail", base.read_us.tail(), "us", base.read_us.size(),
          "view read at " + pct_name(read_tail_p));

  if (args.trace) {
    // Two round-robin passes: every instance is solved and replayed twice,
    // which keeps the traced run (each solve is replayed) under a minute.
    SpanLog log(true);
    Replayer replayer(log, args.nproc);
    LoopResult traced = run_loop(*solver, in, 2 * in.insts.size(), log, &replayer, rep);
    for (std::size_t i = 0; i < in.insts.size(); ++i) {
      if (i < kNumFamilies) replayer.heap_probe(in.insts[i]);
      ++rep.attempted;
      if (replayer.seq_solve(in.insts[i], i).q != in.expect[i]) {
        rep.fail("sequential solve is not deterministic");
      }
    }
    replayer.report(rep);
    const double base_p50 = base.solve_ms.p50();
    rep.add("trace.overhead_frac", (traced.solve_ms.p50() - base_p50) / base_p50, "ratio",
            traced.solve_ms.size(), "traced vs untraced solve_ms_p50");
    rep.logs.emplace_back("caller", std::move(log));
  }
  return rep;
}

}  // namespace perfbench
