#pragma once
// Prefix sums (scans) — the workhorse primitive behind compaction, radix
// sorting and the Euler-tour computations.  Blocked two-pass parallel
// implementation: per-block partial sums, sequential scan over block sums,
// per-block rewrite.  O(n) work, O(n/p + p) depth.

#include <cstddef>
#include <span>
#include <vector>

#include "pram/parallel_for.hpp"
#include "pram/types.hpp"

namespace sfcp::prim {

/// Exclusive prefix sum: out[i] = init + sum(in[0..i)).  Returns the total
/// (init + sum of all elements).  `out` may alias `in`.
template <typename T>
T exclusive_scan(std::span<const T> in, std::span<T> out, T init = T{}) {
  const std::size_t n = in.size();
  const int nb = pram::num_blocks(n);
  std::vector<T> block_sum(static_cast<std::size_t>(nb) + 1, T{});
  pram::parallel_blocks(n, [&](int b, std::size_t lo, std::size_t hi) {
    T s{};
    for (std::size_t i = lo; i < hi; ++i) s += in[i];
    block_sum[static_cast<std::size_t>(b) + 1] = s;
  });
  block_sum[0] = init;
  for (int b = 1; b <= nb; ++b) block_sum[b] += block_sum[b - 1];
  pram::parallel_blocks(n, [&](int b, std::size_t lo, std::size_t hi) {
    T s = block_sum[static_cast<std::size_t>(b)];
    for (std::size_t i = lo; i < hi; ++i) {
      const T v = in[i];
      out[i] = s;
      s += v;
    }
  });
  return block_sum[static_cast<std::size_t>(nb)];
}

/// Inclusive prefix sum: out[i] = init + sum(in[0..i]).  Returns the total.
template <typename T>
T inclusive_scan(std::span<const T> in, std::span<T> out, T init = T{}) {
  const std::size_t n = in.size();
  const int nb = pram::num_blocks(n);
  std::vector<T> block_sum(static_cast<std::size_t>(nb) + 1, T{});
  pram::parallel_blocks(n, [&](int b, std::size_t lo, std::size_t hi) {
    T s{};
    for (std::size_t i = lo; i < hi; ++i) s += in[i];
    block_sum[static_cast<std::size_t>(b) + 1] = s;
  });
  block_sum[0] = init;
  for (int b = 1; b <= nb; ++b) block_sum[b] += block_sum[b - 1];
  pram::parallel_blocks(n, [&](int b, std::size_t lo, std::size_t hi) {
    T s = block_sum[static_cast<std::size_t>(b)];
    for (std::size_t i = lo; i < hi; ++i) {
      s += in[i];
      out[i] = s;
    }
  });
  return block_sum[static_cast<std::size_t>(nb)];
}

/// Segmented inclusive sum scan: the running sum restarts at every i with
/// seg_start[i] != 0.
template <typename T>
void segmented_inclusive_scan(std::span<const T> in, std::span<const u8> seg_start,
                              std::span<T> out) {
  const std::size_t n = in.size();
  const int nb = pram::num_blocks(n);
  // carry[b] propagates into block b+1 only if block b+1's prefix has no
  // segment start before the point of use; handled by tracking, per block,
  // the sum since the last segment start and whether the block saw one.
  std::vector<T> tail_sum(static_cast<std::size_t>(nb), T{});
  std::vector<u8> has_start(static_cast<std::size_t>(nb), 0);
  pram::parallel_blocks(n, [&](int b, std::size_t lo, std::size_t hi) {
    T s{};
    u8 seen = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      if (seg_start[i]) {
        s = T{};
        seen = 1;
      }
      s += in[i];
    }
    tail_sum[static_cast<std::size_t>(b)] = s;
    has_start[static_cast<std::size_t>(b)] = seen;
  });
  // carry_in[b]: sum flowing into block b from preceding blocks.
  std::vector<T> carry_in(static_cast<std::size_t>(nb), T{});
  T carry{};
  for (int b = 0; b < nb; ++b) {
    carry_in[static_cast<std::size_t>(b)] = carry;
    carry = has_start[static_cast<std::size_t>(b)]
                ? tail_sum[static_cast<std::size_t>(b)]
                : carry + tail_sum[static_cast<std::size_t>(b)];
  }
  pram::parallel_blocks(n, [&](int b, std::size_t lo, std::size_t hi) {
    T s = carry_in[static_cast<std::size_t>(b)];
    for (std::size_t i = lo; i < hi; ++i) {
      if (seg_start[i]) s = T{};
      s += in[i];
      out[i] = s;
    }
  });
}

/// Parallel sum reduction.
template <typename T>
T reduce_sum(std::span<const T> in) {
  const std::size_t n = in.size();
  const int nb = pram::num_blocks(n);
  std::vector<T> block_sum(static_cast<std::size_t>(nb), T{});
  pram::parallel_blocks(n, [&](int b, std::size_t lo, std::size_t hi) {
    T s{};
    for (std::size_t i = lo; i < hi; ++i) s += in[i];
    block_sum[static_cast<std::size_t>(b)] = s;
  });
  T total{};
  for (const T& s : block_sum) total += s;
  return total;
}

/// Parallel min reduction; returns the minimum value (UB on empty input).
template <typename T>
T reduce_min(std::span<const T> in) {
  const std::size_t n = in.size();
  const int nb = pram::num_blocks(n);
  std::vector<T> block_min(static_cast<std::size_t>(nb));
  pram::parallel_blocks(n, [&](int b, std::size_t lo, std::size_t hi) {
    T m = in[lo];
    for (std::size_t i = lo + 1; i < hi; ++i) m = std::min(m, in[i]);
    block_min[static_cast<std::size_t>(b)] = m;
  });
  T m = block_min[0];
  for (const T& v : block_min) m = std::min(m, v);
  return m;
}

/// Parallel max reduction; returns the maximum value (UB on empty input).
template <typename T>
T reduce_max(std::span<const T> in) {
  const std::size_t n = in.size();
  const int nb = pram::num_blocks(n);
  std::vector<T> block_max(static_cast<std::size_t>(nb));
  pram::parallel_blocks(n, [&](int b, std::size_t lo, std::size_t hi) {
    T m = in[lo];
    for (std::size_t i = lo + 1; i < hi; ++i) m = std::max(m, in[i]);
    block_max[static_cast<std::size_t>(b)] = m;
  });
  T m = block_max[0];
  for (const T& v : block_max) m = std::max(m, v);
  return m;
}

// Convenience non-template entry points (defined in scan.cpp).
u64 exclusive_scan_u32(std::span<const u32> in, std::span<u64> out);
u32 reduce_min_u32(std::span<const u32> in);
u32 reduce_max_u32(std::span<const u32> in);

}  // namespace sfcp::prim
