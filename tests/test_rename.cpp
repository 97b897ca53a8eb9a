// Unit tests for the two renaming backends (sorted = order-preserving dense
// ranks; hashed = arbitrary-CRCW BB-table emulation) and canonicalization.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <unordered_map>

#include "prim/rename.hpp"
#include "util/random.hpp"

namespace sfcp {
namespace {

TEST(RenameSorted, Empty) {
  std::vector<u64> keys;
  const auto r = prim::rename_sorted(keys);
  EXPECT_TRUE(r.labels.empty());
  EXPECT_EQ(r.num_classes, 0u);
}

TEST(RenameSorted, DenseRanksInKeyOrder) {
  std::vector<u64> keys{30, 10, 20, 10};
  const auto r = prim::rename_sorted(keys);
  EXPECT_EQ(r.num_classes, 3u);
  EXPECT_EQ(r.labels, (std::vector<u32>{2, 0, 1, 0}));
}

TEST(RenameSorted, AllEqual) {
  std::vector<u64> keys(100, 5);
  const auto r = prim::rename_sorted(keys);
  EXPECT_EQ(r.num_classes, 1u);
  for (const u32 l : r.labels) EXPECT_EQ(l, 0u);
}

TEST(RenameSorted, OrderPreservationProperty) {
  util::Rng rng(23);
  std::vector<u64> keys(5000);
  for (auto& k : keys) k = rng.below(500);
  const auto r = prim::rename_sorted(keys);
  for (std::size_t i = 0; i < keys.size(); i += 7) {
    for (std::size_t j = i + 1; j < keys.size(); j += 131) {
      EXPECT_EQ(keys[i] < keys[j], r.labels[i] < r.labels[j]);
      EXPECT_EQ(keys[i] == keys[j], r.labels[i] == r.labels[j]);
    }
  }
}

TEST(RenamePairsSorted, LexicographicOrder) {
  std::vector<u32> a{1, 1, 2, 0};
  std::vector<u32> b{5, 3, 0, 9};
  const auto r = prim::rename_pairs_sorted(a, b);
  // pairs: (1,5) (1,3) (2,0) (0,9) -> sorted (0,9)<(1,3)<(1,5)<(2,0)
  EXPECT_EQ(r.labels, (std::vector<u32>{2, 1, 3, 0}));
  EXPECT_EQ(r.num_classes, 4u);
}

TEST(RenameHashed, EqualityPreserved) {
  util::Rng rng(29);
  std::vector<u64> keys(20000);
  for (auto& k : keys) k = rng.below(300);
  const auto r = prim::rename_hashed(keys);
  std::unordered_map<u64, u32> seen;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto [it, inserted] = seen.emplace(keys[i], r.labels[i]);
    EXPECT_EQ(it->second, r.labels[i]) << "equal keys must share a label";
  }
  // Distinct keys must get distinct labels.
  std::unordered_map<u32, u64> inverse;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto [it, inserted] = inverse.emplace(r.labels[i], keys[i]);
    EXPECT_EQ(it->second, keys[i]) << "distinct keys must get distinct labels";
  }
}

TEST(RenameHashed, LabelsAreWinnerIndices) {
  std::vector<u64> keys{9, 9, 9, 4};
  const auto r = prim::rename_hashed(keys);
  EXPECT_LT(r.labels[0], keys.size());
  EXPECT_EQ(r.labels[0], r.labels[1]);
  EXPECT_EQ(r.labels[1], r.labels[2]);
  EXPECT_NE(r.labels[0], r.labels[3]);
}

TEST(Canonicalize, FirstOccurrenceOrder) {
  std::vector<u32> labels{42, 7, 42, 9, 7};
  const auto r = prim::canonicalize_labels(labels);
  EXPECT_EQ(r.labels, (std::vector<u32>{0, 1, 0, 2, 1}));
  EXPECT_EQ(r.num_classes, 3u);
}

TEST(Canonicalize, Idempotent) {
  util::Rng rng(31);
  std::vector<u32> labels(1000);
  for (auto& l : labels) l = rng.below_u32(50);
  const auto once = prim::canonicalize_labels(labels);
  const auto twice = prim::canonicalize_labels(once.labels);
  EXPECT_EQ(once.labels, twice.labels);
}

// First-occurrence numbering through a hash map: the reference both of
// canonicalize_labels's paths must reproduce.
std::vector<u32> hashed_first_occurrence(const std::vector<u32>& labels) {
  std::unordered_map<u32, u32> seen;
  std::vector<u32> out;
  for (const u32 l : labels) {
    out.push_back(seen.emplace(l, static_cast<u32>(seen.size())).first->second);
  }
  return out;
}

TEST(Canonicalize, Empty) {
  const auto r = prim::canonicalize_labels(std::vector<u32>{});
  EXPECT_TRUE(r.labels.empty());
  EXPECT_EQ(r.num_classes, 0u);
}

TEST(Canonicalize, DenseThresholdEdgeMatchesHashPath) {
  util::Rng rng(41);
  const std::size_t n = 3000;
  const u64 limit = prim::dense_label_limit(n);
  // Largest label just below the limit (direct-address table), at the limit
  // and far above it (hash map).
  for (const u64 top : {limit - 1, limit, limit + 1, u64{kNone}}) {
    std::vector<u32> labels(n);
    for (auto& l : labels) l = static_cast<u32>(top - rng.below(n / 4));
    labels[rng.below(n)] = static_cast<u32>(top);
    const auto want = hashed_first_occurrence(labels);
    const auto r = prim::canonicalize_labels(labels);
    EXPECT_EQ(r.labels, want) << "top=" << top;
    EXPECT_EQ(r.num_classes, *std::max_element(want.begin(), want.end()) + 1) << "top=" << top;
  }
}

TEST(Canonicalize, AllOnesLabel) {
  const std::vector<u32> labels{kNone, 0, kNone, 5, 0};
  const auto r = prim::canonicalize_labels(labels);
  EXPECT_EQ(r.labels, (std::vector<u32>{0, 1, 0, 2, 1}));
  EXPECT_EQ(r.num_classes, 3u);
}

TEST(RenameBackends, AgreeOnEquivalenceClasses) {
  util::Rng rng(37);
  std::vector<u32> a(3000), b(3000);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.below_u32(40);
    b[i] = rng.below_u32(40);
  }
  const auto sorted = prim::rename_pairs_sorted(a, b);
  const auto hashed = prim::rename_pairs_hashed(a, b);
  // Same partition into classes even though label values differ.
  EXPECT_EQ(prim::canonicalize_labels(sorted.labels).labels,
            prim::canonicalize_labels(hashed.labels).labels);
}

}  // namespace
}  // namespace sfcp
