// Unit tests for the Euler partition the cycle detector keeps
// (graph::EulerPartition) and the tree quantities read off it
// (graph::ForestPaths): the layout's structure, the layout against the
// Euler cycles list-ranked under every prim::ListRankStrategy, levels,
// owning roots and root-path sums against ForestStrategy::Sequential, the
// permutation exit, and whole solves against Options::sequential().
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "core/coarsest_partition.hpp"
#include "graph/cycle_detect.hpp"
#include "graph/cycle_structure.hpp"
#include "graph/rooted_forest.hpp"
#include "pram/execution_context.hpp"
#include "pram/metrics.hpp"
#include "pram/worker_pool.hpp"
#include "prim/list_ranking.hpp"
#include "util/generators.hpp"
#include "util/random.hpp"

namespace sfcp {
namespace {

using graph::EulerPartition;
using graph::ForestStrategy;

struct Detected {
  std::vector<u8> on_cycle;
  EulerPartition partition;
};

Detected detect(std::span<const u32> f) {
  Detected d;
  graph::find_cycle_nodes_into(f, graph::CycleDetectStrategy::EulerTour, d.on_cycle, d.partition);
  return d;
}

// The arc at each slot of the layout.
std::vector<u32> layout(const Detected& d) {
  const std::vector<u32>& slot = d.partition.slot;
  std::vector<u32> arc_at(slot.size(), kNone);
  for (u32 a = 0; a < slot.size(); ++a) {
    EXPECT_LT(slot[a], slot.size()) << "arc " << a;
    if (slot[a] >= slot.size()) return {};
    EXPECT_EQ(arc_at[slot[a]], kNone) << "slot " << slot[a] << " taken twice";
    arc_at[slot[a]] = a;
  }
  return arc_at;
}

// The layout is a tour of whole subtrees between cycle arcs: the depth
// never drops below 0 and is 0 at every cycle arc, each tree node's down
// arc 2x+1 precedes its up arc 2x, and a parent's pair encloses its
// child's.
void check_layout(std::span<const u32> f, const Detected& d) {
  const std::size_t n = f.size();
  ASSERT_EQ(d.partition.slot.size(), 2 * n);
  const std::vector<u32> arc_at = layout(d);
  ASSERT_EQ(arc_at.size(), 2 * n);
  i64 depth = 0;
  for (const u32 a : arc_at) {
    if (d.on_cycle[a / 2]) {
      EXPECT_EQ(depth, 0) << "cycle arc " << a << " inside a subtree";
      continue;
    }
    depth += (a & 1) ? 1 : -1;
    EXPECT_GE(depth, 0) << "arc " << a;
  }
  EXPECT_EQ(depth, 0);
  const std::vector<u32>& at = d.partition.slot;
  for (u32 x = 0; x < n; ++x) {
    if (d.on_cycle[x]) continue;
    EXPECT_LT(at[2 * x + 1], at[2 * x]) << "tree node " << x;
    const u32 p = f[x];
    if (d.on_cycle[p]) continue;
    EXPECT_LT(at[2 * p + 1], at[2 * x + 1]) << "tree node " << x;
    EXPECT_GT(at[2 * p], at[2 * x]) << "tree node " << x;
  }
}

TEST(EulerTourTest, NoTreeNodes) {
  const std::vector<u32> f{1, 0};
  const Detected d = detect(f);
  EXPECT_EQ(d.on_cycle, (std::vector<u8>{1, 1}));
  EXPECT_TRUE(d.partition.empty());
  const graph::ForestPaths paths(f, d.on_cycle, d.partition);
  EXPECT_EQ(paths.levels().level, (std::vector<u32>{0, 0}));
  EXPECT_EQ(paths.levels().root_of, (std::vector<u32>{0, 1}));
}

TEST(EulerTourTest, SinglePathIntoSelfLoop) {
  // 0 self-loop; 1 -> 0; 2 -> 1.  One Euler cycle walks down to 2 and back;
  // the self-loop's buddy arc 1 is an Euler cycle of its own.
  const std::vector<u32> f{0, 0, 1};
  const Detected d = detect(f);
  check_layout(f, d);
  EXPECT_EQ(layout(d), (std::vector<u32>{0, 3, 5, 4, 2, 1}));
}

TEST(EulerTourTest, StarTree) {
  // 0 self-loop; 1..5 -> 0: siblings in ascending order.
  const std::vector<u32> f{0, 0, 0, 0, 0, 0};
  const Detected d = detect(f);
  check_layout(f, d);
  EXPECT_EQ(layout(d), (std::vector<u32>{0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10, 1}));
}

TEST(EulerTourTest, MultipleTreesChained) {
  // Two self-loops 0 and 1; 2 -> 0, 3 -> 1: two Euler cycles per
  // pseudo-tree, laid out in order of their minimum arcs.
  const std::vector<u32> f{0, 1, 0, 1};
  const Detected d = detect(f);
  check_layout(f, d);
  EXPECT_EQ(layout(d), (std::vector<u32>{0, 5, 4, 1, 2, 7, 6, 3}));
}

TEST(EulerTourTest, DeepPath) {
  util::Rng rng(709);
  const auto inst = util::long_tail(20000, 3, 2, rng);
  check_layout(inst.f, detect(inst.f));
}

// The Tarjan–Vishkin successor of every arc of the doubled pseudo-forest,
// built here from f alone: arc (u -> v) is followed by the out-arc of v
// after its buddy (v -> u), cyclically, with v's out-arcs ordered edge
// first, then the buddies of its preimages in ascending id order.
std::vector<u32> euler_successors(std::span<const u32> f) {
  const std::size_t n = f.size();
  std::vector<std::vector<u32>> out(n);
  for (u32 v = 0; v < n; ++v) out[v].push_back(2 * v);
  for (u32 x = 0; x < n; ++x) out[f[x]].push_back(2 * x + 1);
  std::vector<u32> succ(2 * n);
  for (u32 v = 0; v < n; ++v) {
    for (std::size_t i = 0; i < out[v].size(); ++i) {
      const u32 buddy = out[v][i] ^ 1u;
      succ[buddy] = out[v][(i + 1) % out[v].size()];
    }
  }
  return succ;
}

// The detector's layout against the Euler cycles of euler_successors, each
// opened at its first cycle arc after its minimum arc and ranked by
// prim::list_rank under every strategy, laid out in order of minimum arcs.
class EulerTourSweep : public ::testing::TestWithParam<prim::ListRankStrategy> {};

TEST_P(EulerTourSweep, RandomForestsAllRankingStrategies) {
  util::Rng rng(701);
  for (int iter = 0; iter < 15; ++iter) {
    const auto inst = util::random_function(1 + rng.below(3000), 3, rng);
    const Detected d = detect(inst.f);
    check_layout(inst.f, d);
    const auto on_cycle =
        graph::find_cycle_nodes(inst.f, graph::CycleDetectStrategy::Sequential);
    const std::vector<u32> succ = euler_successors(inst.f);
    const std::size_t arcs = succ.size();
    std::vector<u32> next = succ, head_of(arcs, kNone), len_of(arcs, 0), offset_of(arcs, 0);
    u32 offset = 0;
    for (u32 m = 0; m < arcs; ++m) {
      if (head_of[m] != kNone) continue;  // m is not the minimum of its cycle
      u32 head = m;
      while (!on_cycle[head / 2]) head = succ[head];
      u32 len = 0, tail = head;
      for (u32 a = head; len == 0 || a != head; a = succ[a]) {
        head_of[a] = head;
        ++len;
        tail = a;
      }
      len_of[head] = len;
      offset_of[head] = offset;
      offset += len;
      next[tail] = kNone;  // cut open before the head
    }
    const std::vector<u32> rank = prim::list_rank(next, GetParam());
    for (u32 a = 0; a < arcs; ++a) {
      const u32 head = head_of[a];
      ASSERT_EQ(d.partition.slot[a], offset_of[head] + len_of[head] - 1 - rank[a])
          << "iter " << iter << " arc " << a;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Rankings, EulerTourSweep,
                         ::testing::Values(prim::ListRankStrategy::Sequential,
                                           prim::ListRankStrategy::PointerJumping,
                                           prim::ListRankStrategy::RulingSet));

// Relabels the nodes by a random permutation, so that ids no longer follow
// the tree order.
graph::Instance relabel(const graph::Instance& inst, util::Rng& rng) {
  const std::size_t n = inst.size();
  std::vector<u32> to(n);
  std::iota(to.begin(), to.end(), 0u);
  for (std::size_t i = n; i > 1; --i) std::swap(to[i - 1], to[rng.below(i)]);
  graph::Instance out{std::vector<u32>(n), std::vector<u32>(n)};
  for (u32 x = 0; x < n; ++x) {
    out.f[to[x]] = to[inst.f[x]];
    out.b[to[x]] = inst.b[x];
  }
  return out;
}

// Hangs every node whose f is still kNone below a random node that already
// reaches a cycle, in random order, so subtrees mix low and high ids.
void hang_random_trees(graph::Instance& inst, util::Rng& rng) {
  const std::size_t n = inst.size();
  std::vector<u32> attached, loose;
  for (u32 x = 0; x < n; ++x) (inst.f[x] == kNone ? loose : attached).push_back(x);
  for (std::size_t i = loose.size(); i > 1; --i) std::swap(loose[i - 1], loose[rng.below(i)]);
  for (const u32 x : loose) {
    inst.f[x] = attached[rng.below(attached.size())];
    attached.push_back(x);
  }
  for (auto& b : inst.b) b = static_cast<u32>(rng.below(2));
}

graph::Instance blank(std::size_t n) {
  return graph::Instance{std::vector<u32>(n, kNone), std::vector<u32>(n, 0)};
}

// Levels, owning roots and root-path sums read off the detector's
// partition, and the whole solve, under thread budgets 1/2/4 and a 3-lane
// pool (grain 64, so small inputs take the parallel paths), against
// ForestStrategy::Sequential and Options::sequential().
void expect_matches_sequential(const graph::Instance& inst, const std::string& what) {
  const auto cs = graph::cycle_structure(inst.f, graph::CycleStructureStrategy::Sequential);
  const auto forest = graph::build_rooted_forest(inst.f, cs.on_cycle);
  const auto ref = graph::forest_levels(forest, ForestStrategy::Sequential);
  util::Rng rng(inst.size());
  std::vector<i64> vals(inst.size());
  for (auto& v : vals) v = static_cast<i64>(rng.below(2001)) - 1000;
  const auto ref_sums = graph::root_path_sums(forest, vals, ForestStrategy::Sequential);
  const auto want = core::solve(inst, core::Options::sequential());

  pram::WorkerPool pool(3);
  auto pooled = pram::ExecutionContext{}.with_threads(3).with_grain(64);
  pooled.pool = &pool;
  const std::pair<std::string, pram::ExecutionContext> contexts[] = {
      {"t1", pram::ExecutionContext{}.with_threads(1).with_grain(64)},
      {"t2", pram::ExecutionContext{}.with_threads(2).with_grain(64)},
      {"t4", pram::ExecutionContext{}.with_threads(4).with_grain(64)},
      {"pool3", pooled}};
  for (const auto& [name, ctx] : contexts) {
    pram::ScopedContext guard(ctx);
    const std::string where = what + " " + name;
    const Detected d = detect(inst.f);
    ASSERT_EQ(d.on_cycle, cs.on_cycle) << where;
    const graph::ForestPaths paths(inst.f, d.on_cycle, d.partition);
    EXPECT_EQ(paths.levels().level, ref.level) << where;
    EXPECT_EQ(paths.levels().root_of, ref.root_of) << where;
    EXPECT_EQ(paths.root_path_sums(vals), ref_sums) << where;
    const auto got = core::solve(inst, core::Options::parallel());
    EXPECT_EQ(got.q, want.q) << where;
    EXPECT_EQ(got.num_blocks, want.num_blocks) << where;
    EXPECT_EQ(got.kept_tree_nodes, want.kept_tree_nodes) << where;
    EXPECT_EQ(got.residual_tree_nodes, want.residual_tree_nodes) << where;
  }
}

TEST(EulerPartitionPaths, SelfLoopRoots) {
  util::Rng rng(1501);
  auto inst = blank(3000);
  for (u32 r = 0; r < 3000; r += 37) inst.f[r] = r;
  hang_random_trees(inst, rng);
  expect_matches_sequential(inst, "self-loops");
  expect_matches_sequential(relabel(inst, rng), "self-loops relabelled");
}

TEST(EulerPartitionPaths, RootChildrenOnBothSidesOfCyclePredecessor) {
  // Cycle 100 -> 200 -> 300 -> 100 and self-loop 50: each root gets tree
  // children with ids below and above its cycle predecessor (300, 100, 200
  // and 50), so its subtrees split between its two Euler cycles.
  util::Rng rng(1503);
  auto inst = blank(600);
  inst.f[100] = 200;
  inst.f[200] = 300;
  inst.f[300] = 100;
  inst.f[50] = 50;
  for (const auto& [child, root] : std::initializer_list<std::pair<u32, u32>>{
           {1, 100}, {599, 100}, {2, 200}, {598, 200}, {3, 300}, {597, 300},
           {4, 50}, {596, 50}, {250, 100}, {150, 200}, {260, 300}, {60, 50}}) {
    inst.f[child] = root;
  }
  hang_random_trees(inst, rng);
  expect_matches_sequential(inst, "both sides");
}

TEST(EulerPartitionPaths, MinimumArcInsideASubtree) {
  // 0 -> 1 -> ... -> 9 -> cycle {10, 11}: arc 0 (node 0's up arc, at depth
  // 10) is the minimum of its Euler cycle, where the orbit labelling
  // starts it; the layout must still cut it open at a cycle arc.
  util::Rng rng(1505);
  auto inst = blank(2000);
  for (u32 x = 0; x < 10; ++x) inst.f[x] = x + 1;
  inst.f[10] = 11;
  inst.f[11] = 10;
  hang_random_trees(inst, rng);
  const Detected d = detect(inst.f);
  ASSERT_EQ(d.on_cycle[0], 0);
  check_layout(inst.f, d);
  // The first Euler cycle is laid out from a cycle arc, not from arc 0.
  EXPECT_NE(d.partition.slot[0], 0u);
  EXPECT_EQ(d.on_cycle[layout(d)[0] / 2], 1);
  expect_matches_sequential(inst, "minimum arc inside");
}

TEST(EulerPartitionPaths, LongPath) {
  const std::size_t n = std::size_t{1} << 16;
  graph::Instance up{std::vector<u32>(n), std::vector<u32>(n, 0)};
  graph::Instance down = up;
  for (u32 x = 0; x < n; ++x) {
    up.f[x] = x + 1 < n ? x + 1 : x;   // root at the highest id
    down.f[x] = x > 0 ? x - 1 : 0;     // root at id 0
    up.b[x] = down.b[x] = x % 3 == 0 ? 1 : 0;
  }
  expect_matches_sequential(up, "path up");
  expect_matches_sequential(down, "path down");
}

TEST(EulerPartitionPaths, ManyComponents) {
  util::Rng rng(1507);
  graph::Instance inst;
  while (inst.size() < 20000) {
    // One pseudo-tree: a cycle of 1-3 nodes and 0-8 tree nodes.
    const u32 base = static_cast<u32>(inst.size());
    const u32 k = 1 + static_cast<u32>(rng.below(3));
    const u32 t = static_cast<u32>(rng.below(9));
    for (u32 i = 0; i < k; ++i) inst.f.push_back(base + (i + 1) % k);
    for (u32 i = 0; i < t; ++i) inst.f.push_back(base + static_cast<u32>(rng.below(k + i)));
  }
  inst.b.assign(inst.size(), 0);
  for (auto& b : inst.b) b = static_cast<u32>(rng.below(2));
  expect_matches_sequential(relabel(inst, rng), "many components");
}

// A permutation is all cycles: the detector skips the partition (no orbit
// labelling of the 2n arcs, which alone would charge at least 4n
// operations) and flags every node.  One redirected edge makes a tree, and
// the partition is taken.
TEST(EulerPartitionPermutation, SkipsThePartition) {
  util::Rng rng(1509);
  const std::size_t n = 5000;
  graph::Instance identity{std::vector<u32>(n), std::vector<u32>(n, 0)};
  graph::Instance rotation = identity;
  for (u32 x = 0; x < n; ++x) {
    identity.f[x] = x;
    rotation.f[x] = static_cast<u32>((x + 1) % n);
  }
  graph::Instance random = util::random_permutation(n, 2, rng);
  for (const graph::Instance* inst : {&identity, &rotation, &random}) {
    for (const int t : {1, 4}) {
      pram::Metrics m;
      pram::ScopedContext guard(
          pram::ExecutionContext{}.with_threads(t).with_grain(64).with_metrics(&m));
      const Detected d = detect(inst->f);
      EXPECT_EQ(d.on_cycle, std::vector<u8>(n, 1)) << "t=" << t;
      EXPECT_TRUE(d.partition.empty()) << "t=" << t;
      EXPECT_LE(m.snapshot().operations, 4 * n) << "t=" << t;
    }
  }
  auto redirected = random;
  redirected.f[7] = redirected.f[4000];
  for (const int t : {1, 4}) {
    pram::Metrics m;
    {
      pram::ScopedContext guard(
          pram::ExecutionContext{}.with_threads(t).with_grain(64).with_metrics(&m));
      const Detected d = detect(redirected.f);
      EXPECT_FALSE(d.partition.empty()) << "t=" << t;
      EXPECT_GT(m.snapshot().operations, 8 * n) << "t=" << t;
      EXPECT_EQ(d.on_cycle, graph::find_cycle_nodes(redirected.f,
                                                    graph::CycleDetectStrategy::Sequential));
      check_layout(redirected.f, d);
    }
  }
  expect_matches_sequential(redirected, "redirected permutation");
}

}  // namespace
}  // namespace sfcp
