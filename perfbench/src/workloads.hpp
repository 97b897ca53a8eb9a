#pragma once
// The three perfbench workloads.  Each generates its inputs from the seed,
// sets the program up several times (setup_s is the median), runs a fixed
// number of operations derived from --seconds, checks every output, and
// returns the report main() prints.

#include <span>
#include <string>

#include "common.hpp"
#include "graph/functional_graph.hpp"

namespace perfbench {

Report run_solve_cold(const Args& args);
Report run_serve_rw(const Args& args);
Report run_fleet_zipf(const Args& args);

/// Correctness oracle for a labelling of `inst`: core::verify_solution on
/// small instances; above kOracleNodes its naive-refinement oracle needs up
/// to n rounds of O(n) work, so large instances are checked for refinement
/// and stability plus coarseness against the independent Hopcroft solver.
inline constexpr std::size_t kOracleNodes = std::size_t{1} << 12;
bool verify_labels(const sfcp::graph::Instance& inst, std::span<const u32> q);

}  // namespace perfbench
