// Quickstart: solve the paper's worked instance (Example 2.2 / Fig. 1)
// end-to-end and print every intermediate the paper discusses.
//
//   $ ./quickstart
//
// The instance: 16 elements, f given by A_f, initial partition B given by
// A_B; the expected output is the paper's A_Q.
#include <iostream>

#include "sfcp.hpp"

int main() {
  using namespace sfcp;

  // ---- 1. Build the instance (paper Example 2.2, converted to 0-based).
  const graph::Instance inst = util::paper_example_2_2();
  std::cout << "Input (paper Example 2.2, 0-based)\n  A_f = ";
  for (const u32 v : inst.f) std::cout << v << ' ';
  std::cout << "\n  A_B = ";
  for (const u32 v : inst.b) std::cout << v << ' ';
  std::cout << "\n\n";

  // ---- 2. Step 1 of the paper: find the cycle nodes (Euler-tour method).
  const auto on_cycle = graph::find_cycle_nodes(inst.f, graph::CycleDetectStrategy::EulerTour);
  const auto cs = graph::cycle_structure_with_flags(inst.f, on_cycle,
                                                    graph::CycleStructureStrategy::OrbitLabel);
  std::cout << "Cycle structure: " << cs.num_cycles() << " cycles of lengths";
  for (std::size_t c = 0; c < cs.num_cycles(); ++c) std::cout << ' ' << cs.cycle_length(c);
  std::cout << "  (Fig. 1: 12 and 4)\n";

  // ---- 3. Step 2: label the cycle nodes (Section 3).
  const auto cl = core::label_cycles(inst, cs);
  std::cout << "Cycle labelling: " << cl.num_classes << " equivalence class(es), "
            << cl.num_labels << " Q-labels on cycles\n";
  for (std::size_t c = 0; c < cs.num_cycles(); ++c) {
    std::cout << "  cycle " << c << ": period " << cl.period[c] << ", m.s.p. offset "
              << cl.msp[c] << ", class " << cl.class_id[c] << "\n";
  }

  // ---- 4. Full pipeline (Theorem 5.1) via the session API, with an
  // isolated work-accounting sink.
  pram::Metrics metrics;
  core::Solver solver(sfcp::registry().at("parallel"),
                      pram::ExecutionContext{}.with_metrics(&metrics));
  const core::Result result = solver.solve(inst);
  std::cout << "\nOutput\n  A_Q = ";
  for (const u32 q : result.q) std::cout << q << ' ';
  std::cout << "\n  blocks = " << result.num_blocks << " (paper: 4)\n"
            << "  work   = " << metrics.summary() << "\n";

  // ---- 5. Verify against the paper's stated A_Q and the oracle.
  const auto expected = util::paper_example_2_2_expected_q();
  const auto report = core::verify_solution(inst, result.q);
  std::cout << "\nVerification: " << report.to_string() << "\n"
            << "Matches paper's A_Q: " << (result.q == expected ? "yes" : "NO") << "\n";
  return result.q == expected && report.ok() ? 0 : 1;
}
