#pragma once
// String-keyed strategy registry: every interchangeable pipeline combination
// behind one uniform, enumerable entry point (the parallel-string-sorting
// codebase's "register each variant, compare them all" idiom).
//
//   for (const auto& s : sfcp::registry().all()) {
//     sfcp::core::Solver solver(s.options);
//     ... solver.solve(inst) ...
//   }
//
//   core::Options opt = sfcp::registry().at("euler-jump-level");
//
// Built-in names are `<detect>-<structure>-<tree>` over
//   detect:    seq | euler              (cycle-node detection, §5)
//   structure: seq | jump               (cycle structure, §3 step 1; `jump`
//                                        selects CycleStructureStrategy::OrbitLabel)
//   tree:      level | double | dfs     (tree-node labelling, §4 step 5)
// plus the aliases "parallel" (the paper's default pipeline) and
// "sequential" (the linear-time sequential baseline, Paige–Tarjan–Bonic's
// role).  Callers may add() their own entries at startup (e.g. tuned
// configurations for a benchmark scenario); the registry is not internally
// synchronized, so mutate it before spawning concurrent users.

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/coarsest_partition.hpp"

namespace sfcp::core {

struct StrategyInfo {
  std::string name;         ///< unique registry key
  std::string description;  ///< one-line human-readable summary
  Options options;          ///< full pipeline configuration
};

class StrategyRegistry {
 public:
  /// Entries in registration order (built-ins first, deterministic).
  std::span<const StrategyInfo> all() const noexcept { return entries_; }

  /// All registry keys, in registration order.
  std::vector<std::string> names() const;

  /// Entry by name, or null when absent.
  const StrategyInfo* find(std::string_view name) const noexcept;

  /// Options by name; throws std::out_of_range naming the key when absent.
  const Options& at(std::string_view name) const;

  /// Registers (or, for an existing name, replaces) an entry.
  void add(StrategyInfo info);

 private:
  std::vector<StrategyInfo> entries_;
};

/// The process-wide registry, preloaded with every built-in combination.
StrategyRegistry& registry();

}  // namespace sfcp::core

namespace sfcp {
using core::registry;  // spelled sfcp::registry() at call sites
}  // namespace sfcp
