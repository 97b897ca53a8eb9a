#include "graph/components.hpp"

#include <atomic>

#include "graph/cycle_detect.hpp"
#include "pram/parallel_for.hpp"

namespace sfcp::graph {

Components connected_components(std::span<const u32> f, ForestStrategy strategy) {
  const std::size_t n = f.size();
  Components out;
  out.id.assign(n, kNone);
  if (n == 0) return out;
  std::vector<u8> on_cycle;
  EulerPartition partition;
  find_cycle_nodes_into(f, CycleDetectStrategy::EulerTour, on_cycle, partition);
  const CycleStructure cs =
      cycle_structure_with_flags(f, on_cycle, CycleStructureStrategy::OrbitLabel);
  const ForestLevels lv = strategy == ForestStrategy::EulerTour
                              ? ForestPaths(f, on_cycle, partition).levels()
                              : forest_levels(build_rooted_forest(f, on_cycle), strategy);
  // Component id = dense cycle id of the owning root's cycle.
  pram::parallel_for(0, n, [&](std::size_t x) {
    out.id[x] = cs.cycle_of[lv.root_of[x]];
  });
  const std::size_t k = cs.num_cycles();
  std::vector<std::atomic<u32>> sizes(k);
  pram::parallel_for(0, k, [&](std::size_t c) { sizes[c].store(0, std::memory_order_relaxed); });
  pram::parallel_for(0, n, [&](std::size_t x) {
    sizes[out.id[x]].fetch_add(1, std::memory_order_relaxed);
  });
  out.size.resize(k);
  out.cycle_len.resize(k);
  pram::parallel_for(0, k, [&](std::size_t c) {
    out.size[c] = sizes[c].load(std::memory_order_relaxed);
    out.cycle_len[c] = cs.cycle_length(c);
  });
  return out;
}

}  // namespace sfcp::graph
