// Unit tests for weakly connected components of functional graphs.
#include <gtest/gtest.h>

#include "graph/components.hpp"
#include "util/generators.hpp"
#include "util/random.hpp"

namespace sfcp {
namespace {

using graph::connected_components;

// Reference: union-find over edges (x, f(x)).
std::vector<u32> reference_components(std::span<const u32> f) {
  std::vector<u32> parent(f.size());
  for (u32 i = 0; i < f.size(); ++i) parent[i] = i;
  std::function<u32(u32)> find = [&](u32 x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (u32 x = 0; x < f.size(); ++x) {
    const u32 a = find(x), b = find(f[x]);
    if (a != b) parent[a] = b;
  }
  std::vector<u32> id(f.size());
  for (u32 x = 0; x < f.size(); ++x) id[x] = find(x);
  return id;
}

bool same_grouping(const std::vector<u32>& a, const std::vector<u32>& b) {
  std::map<u32, u32> fwd, bwd;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto [f1, i1] = fwd.emplace(a[i], b[i]);
    if (!i1 && f1->second != b[i]) return false;
    const auto [f2, i2] = bwd.emplace(b[i], a[i]);
    if (!i2 && f2->second != a[i]) return false;
  }
  return true;
}

TEST(Components, SingleSelfLoop) {
  std::vector<u32> f{0};
  const auto c = connected_components(f);
  EXPECT_EQ(c.count(), 1u);
  EXPECT_EQ(c.size[0], 1u);
  EXPECT_EQ(c.cycle_len[0], 1u);
}

TEST(Components, TwoIslands) {
  std::vector<u32> f{0, 0, 3, 3};  // self-loop 0 (+1), self-loop 3 (+2)
  const auto c = connected_components(f);
  EXPECT_EQ(c.count(), 2u);
  EXPECT_EQ(c.id[0], c.id[1]);
  EXPECT_EQ(c.id[2], c.id[3]);
  EXPECT_NE(c.id[0], c.id[2]);
  EXPECT_EQ(c.size[c.id[0]], 2u);
}

TEST(Components, PaperFig1HasTwoComponents) {
  const auto inst = util::paper_example_2_2();
  const auto c = connected_components(inst.f);
  EXPECT_EQ(c.count(), 2u);
  EXPECT_EQ(c.size[c.id[0]], 12u);
  EXPECT_EQ(c.size[c.id[12]], 4u);
  EXPECT_EQ(c.cycle_len[c.id[0]], 12u);
  EXPECT_EQ(c.cycle_len[c.id[12]], 4u);
}

TEST(Components, SizesSumToN) {
  util::Rng rng(2101);
  const auto inst = util::random_function(5000, 3, rng);
  const auto c = connected_components(inst.f);
  u64 total = 0;
  for (const u32 s : c.size) total += s;
  EXPECT_EQ(total, 5000u);
}

TEST(Components, MatchesUnionFindReference) {
  util::Rng rng(2103);
  for (int iter = 0; iter < 15; ++iter) {
    const auto inst = util::random_function(1 + rng.below(2000), 2, rng);
    const auto c = connected_components(inst.f);
    EXPECT_TRUE(same_grouping(c.id, reference_components(inst.f))) << "iter " << iter;
  }
}

TEST(Components, StrategiesAgree) {
  util::Rng rng(2107);
  const auto inst = util::random_function(3000, 2, rng);
  const auto a = connected_components(inst.f, graph::ForestStrategy::Sequential);
  const auto b = connected_components(inst.f, graph::ForestStrategy::EulerTour);
  EXPECT_EQ(a.id, b.id);
}

}  // namespace
}  // namespace sfcp
