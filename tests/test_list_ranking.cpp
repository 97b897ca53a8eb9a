// Unit tests for list ranking (sequential / pointer jumping / ruling set).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "pram/config.hpp"
#include "pram/execution_context.hpp"
#include "pram/metrics.hpp"
#include "prim/hash_table.hpp"
#include "prim/list_ranking.hpp"
#include "util/random.hpp"

namespace sfcp {
namespace {

using prim::list_rank;
using prim::ListRankStrategy;

// Builds a successor array holding the given chains (each a vector of node
// ids ending the list).
std::vector<u32> chains_to_next(std::size_t n, const std::vector<std::vector<u32>>& chains) {
  std::vector<u32> next(n, kNone);
  for (const auto& c : chains) {
    for (std::size_t i = 0; i + 1 < c.size(); ++i) next[c[i]] = c[i + 1];
  }
  return next;
}

std::vector<u32> reference_ranks(std::span<const u32> next) {
  std::vector<u32> rank(next.size(), 0);
  for (u32 v = 0; v < next.size(); ++v) {
    u32 r = 0, w = v;
    while (next[w] != kNone) {
      w = next[w];
      ++r;
    }
    rank[v] = r;
  }
  return rank;
}

class ListRankStrategies : public ::testing::TestWithParam<ListRankStrategy> {};

TEST_P(ListRankStrategies, Empty) {
  std::vector<u32> next;
  EXPECT_TRUE(list_rank(next, GetParam()).empty());
}

TEST_P(ListRankStrategies, SingleNode) {
  std::vector<u32> next{kNone};
  EXPECT_EQ(list_rank(next, GetParam()), (std::vector<u32>{0}));
}

TEST_P(ListRankStrategies, SimpleChain) {
  // 2 -> 0 -> 1 (end)
  std::vector<u32> next{1, kNone, 0};
  EXPECT_EQ(list_rank(next, GetParam()), (std::vector<u32>{1, 0, 2}));
}

TEST_P(ListRankStrategies, TwoChains) {
  const auto next = chains_to_next(6, {{0, 2, 4}, {1, 3, 5}});
  EXPECT_EQ(list_rank(next, GetParam()), reference_ranks(next));
}

TEST_P(ListRankStrategies, LongChainExactRanks) {
  const std::size_t n = 10000;
  // identity chain 0 -> 1 -> ... -> n-1
  std::vector<u32> next(n);
  for (u32 i = 0; i < n; ++i) next[i] = i + 1 < n ? i + 1 : kNone;
  const auto rank = list_rank(next, GetParam());
  for (u32 i = 0; i < n; ++i) EXPECT_EQ(rank[i], n - 1 - i);
}

TEST_P(ListRankStrategies, RandomManyChainsMatchReference) {
  util::Rng rng(55);
  for (int iter = 0; iter < 10; ++iter) {
    const std::size_t n = 1 + rng.below(3000);
    std::vector<u32> perm(n);
    std::iota(perm.begin(), perm.end(), 0u);
    for (std::size_t i = n; i > 1; --i) std::swap(perm[i - 1], perm[rng.below(i)]);
    // Random chain boundaries.
    std::vector<std::vector<u32>> chains;
    std::size_t pos = 0;
    while (pos < n) {
      const std::size_t len = 1 + rng.below(std::min<std::size_t>(n - pos, 200));
      chains.emplace_back(perm.begin() + static_cast<std::ptrdiff_t>(pos),
                          perm.begin() + static_cast<std::ptrdiff_t>(pos + len));
      pos += len;
    }
    const auto next = chains_to_next(n, chains);
    EXPECT_EQ(list_rank(next, GetParam()), reference_ranks(next)) << "n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, ListRankStrategies,
                         ::testing::Values(ListRankStrategy::Sequential,
                                           ListRankStrategy::PointerJumping,
                                           ListRankStrategy::RulingSet));

TEST(ListRankAgreement, StrategiesAgreeOnLargeInput) {
  util::Rng rng(77);
  const std::size_t n = 50000;
  std::vector<u32> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  for (std::size_t i = n; i > 1; --i) std::swap(perm[i - 1], perm[rng.below(i)]);
  std::vector<u32> next(n, kNone);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (!rng.chance(0.001)) next[perm[i]] = perm[i + 1];  // occasional list breaks
  }
  const auto seq = list_rank(next, ListRankStrategy::Sequential);
  EXPECT_EQ(list_rank(next, ListRankStrategy::PointerJumping), seq);
  EXPECT_EQ(list_rank(next, ListRankStrategy::RulingSet), seq);
}

TEST(ListRankCharges, RulingSetChargesEveryWalkedNode) {
  // Both strategies find the heads the same way.  Beyond that, Sequential
  // charges one walk of n nodes; RulingSet charges the sample pass (n), the
  // splitter pack (2n: count, then write) and two walks over all n nodes
  // (segment lengths, then expand) -- each walk per node, not per splitter.
  // That is 5n against Sequential's n; per-splitter walks would give ~2n.
  const std::size_t n = 1 << 14;
  std::vector<u32> next(n);
  for (u32 i = 0; i < n; ++i) next[i] = i + 1 < n ? i + 1 : kNone;
  pram::ScopedThreads threads(4);
  pram::ScopedGrain grain(64);
  const auto charged = [&](ListRankStrategy strategy) {
    pram::Metrics m;
    pram::ScopedMetrics guard(m);
    list_rank(next, strategy);
    return m.ops();
  };
  EXPECT_GE(charged(ListRankStrategy::RulingSet), charged(ListRankStrategy::Sequential) + 4 * n);
}

TEST(ListRankSalt, SeedsGiveIdenticalRanks) {
  util::Rng rng(91);
  const std::size_t n = 20000;
  std::vector<u32> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  for (std::size_t i = n; i > 1; --i) std::swap(perm[i - 1], perm[rng.below(i)]);
  std::vector<u32> next(n, kNone);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (!rng.chance(0.01)) next[perm[i]] = perm[i + 1];
  }
  const auto ref = reference_ranks(next);
  for (const u64 seed : {1ull, 2ull, 0xdeadbeefull}) {
    pram::ScopedContext guard(
        pram::ExecutionContext{}.with_threads(4).with_grain(64).with_seed(seed));
    EXPECT_EQ(list_rank(next, ListRankStrategy::RulingSet), ref) << "seed=" << seed;
  }
}

TEST(ListRankSalt, ListAvoidingTheUnsaltedSampleRanksCorrectly) {
  // One long list through every id the unsalted hash sample skips (each
  // sampled id is a singleton list): unsalted, this list would be walked
  // as one serial segment from its head.
  const std::size_t n = 30000;
  std::vector<u32> chain;
  for (u32 x = 0; x < n; ++x) {
    if (prim::hash_u64(x) % 64 != 0) chain.push_back(x);
  }
  ASSERT_GT(chain.size(), n / 2);
  const auto next = chains_to_next(n, {chain});
  std::vector<u32> expected(n, 0);
  for (std::size_t i = 0; i < chain.size(); ++i) {
    expected[chain[i]] = static_cast<u32>(chain.size() - 1 - i);
  }
  pram::ScopedContext guard(pram::ExecutionContext{}.with_threads(4).with_grain(64));
  EXPECT_EQ(list_rank(next, ListRankStrategy::RulingSet), expected);
  // The salted sample still splits the list about every 64 nodes: the
  // unsalted one (salt 0) puts no splitter on it at all.
  const auto splitters_on_chain = [&](u64 salt) {
    return std::count_if(chain.begin(), chain.end(),
                         [&](u32 x) { return prim::ruling_sample(x, salt); });
  };
  EXPECT_EQ(splitters_on_chain(0), 0);
  EXPECT_GE(splitters_on_chain(pram::session_seed()),
            static_cast<std::ptrdiff_t>(chain.size() / 128));
}

}  // namespace
}  // namespace sfcp
