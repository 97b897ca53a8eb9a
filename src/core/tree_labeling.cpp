#include "core/tree_labeling.hpp"

#include <bit>
#include <cassert>
#include <optional>
#include <unordered_map>

#include "pram/parallel_for.hpp"
#include "prim/compact.hpp"
#include "prim/hash_table.hpp"
#include "prim/integer_sort.hpp"
#include "prim/rename.hpp"
#include "prim/scan.hpp"

namespace sfcp::core {

namespace {

// Fresh labels for residual nodes start above every already-used label so
// they can never collide with cycle labels (Lemma 4.1 guarantees residual
// nodes share no Q-label with any cycle node).
struct Residual {
  std::vector<u32> nodes;       ///< residual (unkept) tree nodes
  std::vector<u8> is_residual;  ///< membership flags
};

// Step 5, strategy (a): process residual nodes level by level; one GLOBAL
// (B, Q_parent) -> label table realizes Lemma 2.1(i) directly.
void label_level_synchronous(const graph::Instance& inst, const Residual& res,
                             std::span<const u32> level, std::vector<u32>& q, u32 fresh_base) {
  const std::size_t n = inst.size();
  if (res.nodes.empty()) return;
  // Bucket residual nodes by level (stable integer sort).
  std::vector<u64> keys(res.nodes.size());
  pram::parallel_for(0, res.nodes.size(), [&](std::size_t i) { keys[i] = level[res.nodes[i]]; });
  const std::vector<u32> by_level = prim::sort_order_by_key(keys);
  prim::ConcurrentPairMap table(res.nodes.size());
  std::size_t begin = 0;
  while (begin < res.nodes.size()) {
    const u32 lv = static_cast<u32>(keys[by_level[begin]]);
    std::size_t end = begin + 1;
    while (end < res.nodes.size() && keys[by_level[end]] == lv) ++end;
    pram::parallel_for(begin, end, [&](std::size_t i) {
      const u32 x = res.nodes[by_level[i]];
      const u32 parent_q = q[inst.f[x]];
      assert(parent_q != kNone && "parent must be labelled before its children");
      q[x] = table.insert_or_get(pack_pair(inst.b[x], parent_q), fresh_base + x);
    });
    begin = end;
  }
  (void)n;
}

// Step 5, strategy (b): ancestor doubling.  Residual chains are extended
// with one virtual self-looping node per distinct anchor label (the Q-label
// of the first labelled ancestor), so path strings become infinite and
// eventually constant; 2^j-prefix codes then converge to the Lemma 4.2
// equivalence in ceil(log2(depth+2)) rounds.
void label_ancestor_doubling(const graph::Instance& inst, const Residual& res,
                             std::vector<u32>& q, u32 fresh_base) {
  const std::size_t nr = res.nodes.size();
  if (nr == 0) return;
  // Dense index of residual nodes.
  std::vector<u32> idx(inst.size(), kNone);
  pram::parallel_for(0, nr, [&](std::size_t i) { idx[res.nodes[i]] = static_cast<u32>(i); });
  // Anchor labels (Q of first labelled ancestor) for residual roots.
  std::vector<u32> anchor(nr, kNone);
  pram::parallel_for(0, nr, [&](std::size_t i) {
    const u32 p = inst.f[res.nodes[i]];
    if (!res.is_residual[p]) anchor[i] = q[p];
  });
  // Dense ids for distinct anchors -> virtual node per anchor class.
  std::vector<u64> anchor_keys;
  std::vector<u32> anchored_nodes;
  for (std::size_t i = 0; i < nr; ++i) {
    if (anchor[i] != kNone) {
      anchor_keys.push_back(anchor[i]);
      anchored_nodes.push_back(static_cast<u32>(i));
    }
  }
  const auto anchor_rename = prim::rename_sorted(anchor_keys);
  const u32 num_virtual = anchor_rename.num_classes;
  const std::size_t total = nr + num_virtual;
  // code[u]: current 2^j-prefix code; anc[u]: 2^j-th ancestor (virtual
  // nodes self-loop).  Initial codes must separate "real node with B-label
  // b" from "virtual node with anchor class a": tag with the pair's high
  // bit via rename over (tag, value).
  std::vector<u32> tag(total), val(total);
  pram::parallel_for(0, total, [&](std::size_t u) {
    if (u < nr) {
      tag[u] = 0;
      val[u] = inst.b[res.nodes[u]];
    } else {
      tag[u] = 1;
      val[u] = static_cast<u32>(u - nr);
    }
  });
  auto code_r = prim::rename_pairs_hashed(tag, val);
  std::vector<u32> code = std::move(code_r.labels);
  std::vector<u32> anc(total);
  pram::parallel_for(0, nr, [&](std::size_t i) {
    const u32 p = inst.f[res.nodes[i]];
    anc[i] = res.is_residual[p] ? idx[p] : kNone;  // patched below for anchors
  });
  pram::parallel_for(0, anchored_nodes.size(), [&](std::size_t t) {
    anc[anchored_nodes[t]] = static_cast<u32>(nr) + anchor_rename.labels[t];
  });
  pram::parallel_for(0, num_virtual, [&](std::size_t v) {
    anc[nr + v] = static_cast<u32>(nr + v);  // self-loop
  });
  const int rounds = static_cast<int>(std::bit_width(static_cast<u64>(total))) + 1;
  std::vector<u32> code2(total), anc2(total);
  for (int r = 0; r < rounds; ++r) {
    auto paired = prim::rename_pairs_hashed(code, [&] {
      std::vector<u32> right(total);
      pram::parallel_for(0, total, [&](std::size_t u) { right[u] = code[anc[u]]; });
      return right;
    }());
    pram::parallel_for(0, total, [&](std::size_t u) {
      code2[u] = paired.labels[u];
      anc2[u] = anc[anc[u]];
    });
    code.swap(code2);
    anc.swap(anc2);
  }
  // Final labels: fresh_base + winner of each code class.
  prim::ConcurrentPairMap table(nr);
  pram::parallel_for(0, nr, [&](std::size_t i) {
    q[res.nodes[i]] = table.insert_or_get(code[i], fresh_base + static_cast<u32>(i));
  });
}

// Step 5, strategy (c): per-root DFS with a global sequential rename map.
void label_sequential_dfs(const graph::Instance& inst, const graph::RootedForest& forest,
                          const Residual& res, std::vector<u32>& q, u32 fresh_base) {
  std::unordered_map<u64, u32> table;
  table.reserve(res.nodes.size());
  u32 next_label = fresh_base;
  // Residual roots: residual nodes whose parent is not residual.  Walk each
  // subtree top-down; children of a residual node inside the residual
  // forest are exactly its forest children that are residual.
  std::vector<u32> stack;
  for (const u32 x : res.nodes) {
    if (res.is_residual[inst.f[x]]) continue;
    stack.push_back(x);
    while (!stack.empty()) {
      const u32 v = stack.back();
      stack.pop_back();
      const u64 key = pack_pair(inst.b[v], q[inst.f[v]]);
      const auto [it, inserted] = table.emplace(key, next_label);
      if (inserted) ++next_label;
      q[v] = it->second;
      for (u32 i = forest.child_off[v]; i < forest.child_off[v + 1]; ++i) {
        stack.push_back(forest.child[i]);
      }
    }
  }
  pram::charge(res.nodes.size());
}

}  // namespace

TreeLabeling label_trees(const graph::Instance& inst, const graph::CycleStructure& cs,
                         const CycleLabeling& cl, const TreeLabelingOptions& opt) {
  TreeLabeling out;
  label_trees_into(inst, cs, cl, opt, out);
  return out;
}

void label_trees_into(const graph::Instance& inst, const graph::CycleStructure& cs,
                      const CycleLabeling& cl, const TreeLabelingOptions& opt, TreeLabeling& out) {
  label_trees_into(inst, cs, cl, opt, graph::EulerPartition{}, out);
}

void label_trees_into(const graph::Instance& inst, const graph::CycleStructure& cs,
                      const CycleLabeling& cl, const TreeLabelingOptions& opt,
                      const graph::EulerPartition& partition, TreeLabeling& out) {
  const std::size_t n = inst.size();
  out.q = cl.q;
  out.kept = 0;
  out.residual = 0;
  // Every node on a cycle (a permutation): there are no trees to label.
  if (cs.cycle_nodes.size() == n) return;

  // Children lists only where a strategy walks them.
  std::optional<graph::RootedForest> forest;
  if (opt.forest == graph::ForestStrategy::Sequential ||
      opt.strategy == TreeLabelStrategy::SequentialDFS) {
    forest = graph::build_rooted_forest(inst.f, cs.on_cycle);
  }
  std::optional<graph::ForestPaths> paths;
  if (opt.forest == graph::ForestStrategy::Sequential) {
    paths.emplace(*forest, opt.forest);
  } else {
    paths.emplace(inst.f, cs.on_cycle, partition);
  }
  const graph::ForestLevels& lv = paths->levels();

  // Steps 1-2: mark tree nodes whose B-label matches the corresponding
  // cycle node (Lemma 4.1); cycle nodes are trivially marked.
  std::vector<u8> marked(n, 1);
  std::vector<u32> corresponding(n, kNone);
  pram::parallel_for(0, n, [&](std::size_t x) {
    if (cs.on_cycle[x]) return;
    const u32 r = lv.root_of[x];
    const u32 c = cs.cycle_of[r];
    const u32 k = cs.length[r];
    const u32 t = (cs.rank[r] + (k - lv.level[x] % k)) % k;
    const u32 y = cs.node_at(c, t);
    corresponding[x] = y;
    marked[x] = inst.b[x] == inst.b[y] ? 1 : 0;
  });

  // Step 3: keep a node iff its whole root path is marked — root-path sum
  // of "unmarked" indicators must be zero.
  std::vector<i64> bad(n);
  pram::parallel_for(0, n, [&](std::size_t x) { bad[x] = marked[x] ? 0 : 1; });
  const std::vector<i64> bad_on_path = paths->root_path_sums(bad);

  // Step 4: kept nodes copy their corresponding cycle node's Q-label.
  Residual res;
  res.is_residual.assign(n, 0);
  pram::parallel_for(0, n, [&](std::size_t x) {
    if (cs.on_cycle[x]) return;
    if (bad_on_path[x] == 0) {
      out.q[x] = cl.q[corresponding[x]];
    } else {
      res.is_residual[x] = 1;
    }
  });
  res.nodes = prim::pack_index(res.is_residual);
  out.residual = static_cast<u32>(res.nodes.size());
  out.kept = static_cast<u32>(n - cs.cycle_nodes.size() - res.nodes.size());

  // Step 5: label the residual forest.
  const u32 fresh_base = cl.num_labels;
  switch (opt.strategy) {
    case TreeLabelStrategy::LevelSynchronous:
      label_level_synchronous(inst, res, lv.level, out.q, fresh_base);
      break;
    case TreeLabelStrategy::AncestorDoubling:
      label_ancestor_doubling(inst, res, out.q, fresh_base);
      break;
    case TreeLabelStrategy::SequentialDFS:
      label_sequential_dfs(inst, *forest, res, out.q, fresh_base);
      break;
  }
}

}  // namespace sfcp::core
