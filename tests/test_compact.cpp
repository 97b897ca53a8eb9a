// Unit tests for parallel compaction (pack by flag / predicate).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "pram/config.hpp"
#include "pram/execution_context.hpp"
#include "pram/metrics.hpp"
#include "pram/worker_pool.hpp"
#include "prim/compact.hpp"
#include "util/random.hpp"

namespace sfcp {
namespace {

TEST(Compact, Empty) {
  std::vector<u8> flags;
  EXPECT_TRUE(prim::pack_index(flags).empty());
}

TEST(Compact, NoneSet) {
  std::vector<u8> flags(10, 0);
  EXPECT_TRUE(prim::pack_index(flags).empty());
}

TEST(Compact, AllSet) {
  std::vector<u8> flags(5, 1);
  EXPECT_EQ(prim::pack_index(flags), (std::vector<u32>{0, 1, 2, 3, 4}));
}

TEST(Compact, Alternating) {
  std::vector<u8> flags{1, 0, 1, 0, 1};
  EXPECT_EQ(prim::pack_index(flags), (std::vector<u32>{0, 2, 4}));
}

TEST(Compact, PredicateForm) {
  const auto evens = prim::pack_index_if(10, [](std::size_t i) { return i % 2 == 0; });
  EXPECT_EQ(evens, (std::vector<u32>{0, 2, 4, 6, 8}));
}

TEST(Compact, OrderPreservedOnLargeRandom) {
  util::Rng rng(11);
  const std::size_t n = 100000;
  std::vector<u8> flags(n);
  for (auto& f : flags) f = rng.chance(0.3) ? 1 : 0;
  std::vector<u32> ref;
  for (u32 i = 0; i < n; ++i) {
    if (flags[i]) ref.push_back(i);
  }
  for (const std::size_t grain : {64u, 1u << 22}) {
    pram::ScopedGrain g(grain);
    EXPECT_EQ(prim::pack_index(flags), ref) << "grain=" << grain;
  }
}

// Sizes on both sides of multiples of the grain put block edges next to
// every kind of hit, under every thread budget and on a worker pool.  Output
// and PRAM charges must match the one-thread run.
TEST(Compact, BlockEdgesAndThreadBudgetsMatchOneThread) {
  util::Rng rng(13);
  pram::WorkerPool pool(3);
  for (const std::size_t n : {1u, 63u, 64u, 65u, 127u, 128u, 129u, 191u, 192u, 193u, 255u, 256u,
                              257u, 319u, 320u, 321u, 513u, 1000u}) {
    for (const double density : {0.0, 0.05, 0.5, 1.0}) {
      std::vector<u8> flags(n);
      std::vector<u32> want_idx, want_unset;
      for (u32 i = 0; i < n; ++i) {
        flags[i] = rng.chance(density) ? 1 : 0;
        (flags[i] ? want_idx : want_unset).push_back(i);
      }
      pram::MetricsSnapshot one{};
      const auto check = [&](pram::ExecutionContext ctx, const std::string& what) {
        pram::Metrics m;
        pram::ScopedContext guard(ctx.with_grain(64).with_metrics(&m));
        EXPECT_EQ(prim::pack_index(flags), want_idx) << "n=" << n << " " << what;
        EXPECT_EQ(prim::pack_index_if(n, [&](std::size_t i) { return flags[i] == 0; }), want_unset)
            << "n=" << n << " " << what;
        const auto got = m.snapshot();
        if (what == "t=1") one = got;
        EXPECT_EQ(got.operations, one.operations) << "n=" << n << " " << what;
        EXPECT_EQ(got.rounds, one.rounds) << "n=" << n << " " << what;
      };
      for (const int t : {1, 2, 3, 4, 8}) {
        check(pram::ExecutionContext{}.with_threads(t), "t=" + std::to_string(t));
      }
      auto pooled = pram::ExecutionContext{}.with_threads(3);
      pooled.pool = &pool;
      check(pooled, "pool3");
    }
  }
}

}  // namespace
}  // namespace sfcp
