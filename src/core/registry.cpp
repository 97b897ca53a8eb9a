#include "core/registry.hpp"

#include <stdexcept>
#include <utility>

namespace sfcp::core {

std::vector<std::string> StrategyRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) out.push_back(e.name);
  return out;
}

const StrategyInfo* StrategyRegistry::find(std::string_view name) const noexcept {
  for (const auto& e : entries_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

const Options& StrategyRegistry::at(std::string_view name) const {
  if (const StrategyInfo* e = find(name)) return e->options;
  std::string msg = "sfcp::registry(): unknown strategy \"";
  msg += name;
  msg += "\"; known:";
  for (const auto& e : entries_) {
    msg += ' ';
    msg += e.name;
  }
  throw std::out_of_range(msg);
}

void StrategyRegistry::add(StrategyInfo info) {
  for (auto& e : entries_) {
    if (e.name == info.name) {
      e = std::move(info);
      return;
    }
  }
  entries_.push_back(std::move(info));
}

namespace {

struct Dim {
  const char* slug;
  const char* label;
};

StrategyRegistry make_builtin_registry() {
  StrategyRegistry reg;

  const std::pair<graph::CycleDetectStrategy, Dim> detects[] = {
      {graph::CycleDetectStrategy::Sequential, {"seq", "sequential visited-walk"}},
      {graph::CycleDetectStrategy::EulerTour, {"euler", "Euler-partition (paper §5)"}},
  };
  const std::pair<graph::CycleStructureStrategy, Dim> structures[] = {
      {graph::CycleStructureStrategy::Sequential, {"seq", "sequential visited-walk"}},
      {graph::CycleStructureStrategy::OrbitLabel, {"jump", "ruling-set orbit labelling"}},
  };
  const std::pair<TreeLabelStrategy, Dim> trees[] = {
      {TreeLabelStrategy::LevelSynchronous, {"level", "level-synchronous (O(n) work)"}},
      {TreeLabelStrategy::AncestorDoubling, {"double", "ancestor doubling (O(log n) depth)"}},
      {TreeLabelStrategy::SequentialDFS, {"dfs", "sequential DFS reference"}},
  };

  for (const auto& [cd, cd_dim] : detects) {
    for (const auto& [cst, cs_dim] : structures) {
      for (const auto& [tl, tl_dim] : trees) {
        StrategyInfo info;
        info.name = std::string(cd_dim.slug) + "-" + cs_dim.slug + "-" + tl_dim.slug;
        info.description = std::string("detect: ") + cd_dim.label + "; structure: " +
                           cs_dim.label + "; tree: " + tl_dim.label;
        info.options.cycle_detect = cd;
        info.options.cycle_structure = cst;
        info.options.tree_labeling.strategy = tl;
        reg.add(std::move(info));
      }
    }
  }

  reg.add({"parallel", "the paper's fully parallel pipeline (alias of euler-jump-level)",
           Options::parallel()});
  reg.add({"sequential", "linear-time sequential baseline (Paige-Tarjan-Bonic decomposition)",
           Options::sequential()});
  return reg;
}

}  // namespace

StrategyRegistry& registry() {
  static StrategyRegistry reg = make_builtin_registry();
  return reg;
}

}  // namespace sfcp::core
