// Unit tests for prim::label_orbits (ruling-set orbit labelling of a
// permutation): every case is compared with a plain sequential walk.
#include <gtest/gtest.h>

#include <numeric>

#include "pram/config.hpp"
#include "pram/execution_context.hpp"
#include "pram/metrics.hpp"
#include "pram/worker_pool.hpp"
#include "prim/list_ranking.hpp"
#include "prim/orbit_label.hpp"
#include "util/random.hpp"

namespace sfcp {
namespace {

struct OrbitLabels {
  std::vector<u32> id, pos, len;
};

OrbitLabels label_orbits(std::span<const u32> succ, std::span<const u8> active = {}) {
  const std::size_t m = succ.size();
  OrbitLabels o{std::vector<u32>(m), std::vector<u32>(m), std::vector<u32>(m)};
  prim::label_orbits(succ, active, o.id, o.pos, o.len);
  return o;
}

// Sequential walk: collect each orbit from its first (hence minimum) id.
OrbitLabels reference(std::span<const u32> succ, std::span<const u8> active) {
  const std::size_t m = succ.size();
  OrbitLabels ref{std::vector<u32>(m, kNone), std::vector<u32>(m, kNone),
                  std::vector<u32>(m, kNone)};
  std::vector<u32> orbit;
  for (u32 x = 0; x < m; ++x) {
    if ((!active.empty() && !active[x]) || ref.id[x] != kNone) continue;
    orbit.clear();
    u32 y = x;
    do {
      orbit.push_back(y);
      y = succ[y];
    } while (y != x);
    for (std::size_t p = 0; p < orbit.size(); ++p) {
      ref.id[orbit[p]] = x;
      ref.pos[orbit[p]] = static_cast<u32>(p);
      ref.len[orbit[p]] = static_cast<u32>(orbit.size());
    }
  }
  return ref;
}

const int kThreadBudgets[] = {1, 2, 3, 4, 8};

// Labels under every thread budget at grain 64 (so even small inputs take
// the parallel path) and checks each against the reference.
void expect_matches_reference(std::span<const u32> succ, std::span<const u8> active = {}) {
  const OrbitLabels ref = reference(succ, active);
  for (const int t : kThreadBudgets) {
    pram::ScopedContext guard(pram::ExecutionContext{}.with_threads(t).with_grain(64));
    const OrbitLabels got = label_orbits(succ, active);
    EXPECT_EQ(got.id, ref.id) << "threads=" << t << " m=" << succ.size();
    EXPECT_EQ(got.pos, ref.pos) << "threads=" << t << " m=" << succ.size();
    EXPECT_EQ(got.len, ref.len) << "threads=" << t << " m=" << succ.size();
  }
}

std::vector<u32> random_permutation(std::size_t m, util::Rng& rng) {
  std::vector<u32> succ(m);
  std::iota(succ.begin(), succ.end(), 0u);
  for (std::size_t i = m; i > 1; --i) std::swap(succ[i - 1], succ[rng.below(i)]);
  return succ;
}

// Consecutive ids [base, base + L) form one cycle in ascending order, for
// every L in 1..max_len — and only over ids the session's splitter sample
// skips, so no cycle holds a splitter (the sampled ids are fixed points).
std::vector<u32> ascending_unsampled_cycles(u32 max_len, u64 salt, std::size_t& cycled) {
  std::vector<u32> succ;
  std::vector<u32> pending;
  cycled = 0;
  for (u32 len = 1; len <= max_len; ++len) {
    pending.clear();
    while (pending.size() < len) {
      const u32 x = static_cast<u32>(succ.size());
      succ.push_back(x);  // fixed point unless linked below
      if (!prim::ruling_sample(x, salt)) pending.push_back(x);
    }
    for (u32 i = 0; i < len; ++i) succ[pending[i]] = pending[(i + 1) % len];
    cycled += len;
  }
  return succ;
}

TEST(OrbitLabel, Empty) {
  const OrbitLabels got = label_orbits({});
  EXPECT_TRUE(got.id.empty());
  EXPECT_TRUE(got.pos.empty());
  EXPECT_TRUE(got.len.empty());
}

TEST(OrbitLabel, IdentityIsAllSelfLoops) {
  std::vector<u32> succ(5000);
  std::iota(succ.begin(), succ.end(), 0u);
  expect_matches_reference(succ);
}

TEST(OrbitLabel, OneCycle) {
  const std::size_t m = 10000;
  std::vector<u32> ascending(m);
  for (u32 i = 0; i < m; ++i) ascending[i] = static_cast<u32>((i + 1) % m);
  expect_matches_reference(ascending);
  // One cycle through a random order of the ids.
  util::Rng rng(7);
  std::vector<u32> order = random_permutation(m, rng);
  std::vector<u32> succ(m);
  for (std::size_t i = 0; i < m; ++i) succ[order[i]] = order[(i + 1) % m];
  expect_matches_reference(succ);
}

TEST(OrbitLabel, AscendingSplitterFreeCyclesInLinearWork) {
  std::size_t cycled = 0;
  const std::vector<u32> succ = ascending_unsampled_cycles(128, pram::kDefaultSeed, cycled);
  const std::size_t m = succ.size();
  ASSERT_EQ(cycled, 128u * 129u / 2u);
  expect_matches_reference(succ);
  // One walk per element would cost sum L^2 / sum L ~ 86 per element here.
  for (const int t : kThreadBudgets) {
    pram::Metrics metrics;
    pram::ScopedContext guard(
        pram::ExecutionContext{}.with_threads(t).with_grain(64).with_metrics(&metrics));
    label_orbits(succ);
    EXPECT_LE(metrics.ops(), 16 * m) << "threads=" << t;
  }
}

TEST(OrbitLabel, MaskedElementsAreLeftUnlabelled) {
  util::Rng rng(11);
  for (const std::size_t m : {100u, 3000u, 20000u}) {
    std::vector<u8> active(m);
    std::vector<u32> members;
    for (u32 x = 0; x < m; ++x) {
      active[x] = rng.chance(0.3) ? 1 : 0;
      if (active[x]) members.push_back(x);
    }
    // A random permutation of the active elements; inactive ones point
    // nowhere, so reading their successor would fail loudly.
    std::vector<u32> succ(m, kNone);
    const std::vector<u32> perm = random_permutation(members.size(), rng);
    for (std::size_t i = 0; i < members.size(); ++i) succ[members[i]] = members[perm[i]];
    expect_matches_reference(succ, active);
  }
}

TEST(OrbitLabel, RandomPermutations) {
  util::Rng rng(13);
  for (const std::size_t m : {1u, 2u, 3u, 63u, 64u, 65u, 1000u, 4096u, 1u << 16}) {
    expect_matches_reference(random_permutation(m, rng));
  }
}

TEST(OrbitLabel, ManySmallCycles) {
  // Every orbit length 1..40 many times over, in random id order: most
  // orbits hold no splitter and are left to the residual visited walk.
  util::Rng rng(17);
  const std::size_t m = 1u << 15;
  const std::vector<u32> order = random_permutation(m, rng);
  std::vector<u32> succ(m);
  std::size_t at = 0;
  for (std::size_t len = 1; at < m; len = len % 40 + 1) {
    const std::size_t l = std::min(len, m - at);
    for (std::size_t i = 0; i < l; ++i) succ[order[at + i]] = order[at + (i + 1) % l];
    at += l;
  }
  expect_matches_reference(succ);
}

TEST(OrbitLabel, WorkerPoolRunsMatchReference) {
  // The same kernels on pram::WorkerPool workers instead of OpenMP, so the
  // thread sanitizer sees the segment walks race.
  util::Rng rng(29);
  const std::size_t m = 1u << 14;
  const std::vector<u32> order = random_permutation(m, rng);
  std::vector<u32> succ(m);
  std::size_t at = 0;
  for (std::size_t len = 1; at < m; len = len % 9 + 1) {
    const std::size_t l = std::min(len, m - at);
    for (std::size_t i = 0; i < l; ++i) succ[order[at + i]] = order[at + (i + 1) % l];
    at += l;
  }
  const OrbitLabels ref = reference(succ, {});
  pram::WorkerPool pool(4);
  pram::ScopedContext guard(
      pram::ExecutionContext{}.with_threads(4).with_grain(64).with_pool(&pool));
  for (int rep = 0; rep < 8; ++rep) {
    const OrbitLabels got = label_orbits(succ);
    EXPECT_EQ(got.id, ref.id);
    EXPECT_EQ(got.pos, ref.pos);
    EXPECT_EQ(got.len, ref.len);
  }
}

TEST(OrbitLabel, IdOnlyMatchesFullLabelling) {
  util::Rng rng(19);
  const std::vector<u32> succ = random_permutation(20000, rng);
  pram::ScopedContext guard(pram::ExecutionContext{}.with_threads(4).with_grain(64));
  std::vector<u32> id(succ.size());
  prim::label_orbits(succ, {}, id, {}, {});
  EXPECT_EQ(id, label_orbits(succ).id);
}

TEST(OrbitLabel, SeedsGiveIdenticalLabels) {
  util::Rng rng(23);
  const std::vector<u32> succ = random_permutation(30000, rng);
  std::vector<OrbitLabels> runs;
  for (const u64 seed : {1ull, 2ull, 0x9e3779b97f4a7c15ull}) {
    pram::ScopedContext guard(
        pram::ExecutionContext{}.with_threads(4).with_grain(64).with_seed(seed));
    runs.push_back(label_orbits(succ));
  }
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].id, runs[0].id);
    EXPECT_EQ(runs[i].pos, runs[0].pos);
    EXPECT_EQ(runs[i].len, runs[0].len);
  }
}

}  // namespace
}  // namespace sfcp
