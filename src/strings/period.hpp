#pragma once
// Smallest repeating prefix (smallest period that divides the length).
//
// Section 3 reduces every cycle's B-label string to its smallest repeating
// prefix P (P^j = S).  The paper cites the optimal parallel string matching
// machinery of [6, 20]; we provide
//   * `smallest_period_seq`     — KMP failure function, O(n) sequential
//   * `smallest_period_parallel`— doubling-rank table + O(1) substring
//                                 equality per divisor, O(n log n) work /
//                                 O(log n) depth (documented substitution)
// Cycle labelling uses the sequential finder, one cycle per processor; the
// parallel one is kept as a primitive (benchmarked in bench_msp).

#include <span>
#include <vector>

#include "pram/types.hpp"

namespace sfcp::strings {

/// Smallest p such that p divides s.size() and s = (s[0..p))^{n/p}.
/// Returns s.size() for a non-repeating string; 0 only for empty input.
u32 smallest_period_seq(std::span<const u32> s);

/// Parallel variant (same contract).
u32 smallest_period_parallel(std::span<const u32> s);

/// True iff s consists of >= 2 repetitions of a shorter string.
bool is_repeating(std::span<const u32> s);

/// Doubling-rank table supporting O(1) equality tests between arbitrary
/// equal-length substrings (suffix-array style, out-of-range = sentinel).
class RankTable {
 public:
  explicit RankTable(std::span<const u32> s);

  /// True iff s[i..i+len) == s[j..j+len) (both ranges must fit).
  bool equal(u32 i, u32 j, u32 len) const;

  /// Rank of suffix prefixes of length 2^level starting at i.
  u32 rank(int level, u32 i) const { return levels_[static_cast<std::size_t>(level)][i]; }

  int num_levels() const { return static_cast<int>(levels_.size()); }

 private:
  std::size_t n_ = 0;
  std::vector<std::vector<u32>> levels_;
};

}  // namespace sfcp::strings
