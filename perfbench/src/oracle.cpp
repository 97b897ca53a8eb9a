#include "core/baselines.hpp"
#include "core/verify.hpp"
#include "workloads.hpp"

namespace perfbench {

bool verify_labels(const sfcp::graph::Instance& inst, std::span<const u32> q) {
  if (q.size() != inst.size()) return false;
  if (inst.size() <= kOracleNodes) return sfcp::core::verify_solution(inst, q).ok();
  return sfcp::core::is_refinement(q, inst.b) && sfcp::core::is_stable(q, inst.f) &&
         sfcp::core::same_partition(q, sfcp::core::solve_hopcroft(inst).q);
}

}  // namespace perfbench
