#include "prim/integer_sort.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "pram/metrics.hpp"
#include "pram/parallel_for.hpp"
#include "prim/scan.hpp"

namespace sfcp::prim {

namespace {

constexpr int kDigitBits = 8;
constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;

// One stable counting pass on digit `shift`, permuting `src_idx` into
// `dst_idx` ordered by the digit.  Every block counts into a private
// histogram and scatters through private offsets; the shared column-major
// table is written once per (digit, block) cell on each side of the scan,
// so no two blocks ever write a shared cache line per key.
void counting_pass(std::span<const u64> keys, std::span<const u32> src_idx,
                   std::span<u32> dst_idx, int shift) {
  const std::size_t n = src_idx.size();
  const int nb = pram::num_blocks(n);
  const std::size_t nbz = static_cast<std::size_t>(nb);
  // counts laid out column-major: counts[bucket * nb + block], so that a
  // single exclusive scan yields stable global offsets.
  std::vector<u32> counts(kBuckets * nbz);
  pram::parallel_blocks(n, [&](int b, std::size_t lo, std::size_t hi) {
    std::array<u32, kBuckets> hist{};
    for (std::size_t i = lo; i < hi; ++i) {
      ++hist[(keys[src_idx[i]] >> shift) & (kBuckets - 1)];
    }
    for (std::size_t d = 0; d < kBuckets; ++d) {
      counts[d * nbz + static_cast<std::size_t>(b)] = hist[d];
    }
  });
  exclusive_scan<u32>(counts, counts);
  pram::parallel_blocks(n, [&](int b, std::size_t lo, std::size_t hi) {
    std::array<u32, kBuckets> next;
    for (std::size_t d = 0; d < kBuckets; ++d) {
      next[d] = counts[d * nbz + static_cast<std::size_t>(b)];
    }
    for (std::size_t i = lo; i < hi; ++i) {
      const u32 x = src_idx[i];
      dst_idx[next[(keys[x] >> shift) & (kBuckets - 1)]++] = x;
    }
  });
  pram::charge_sort(2 * n + kBuckets * nbz);
}

u64 max_key_of(std::span<const u64> keys) {
  if (keys.empty()) return 0;
  return reduce_max<u64>(keys);
}

}  // namespace

int radix_passes(u64 max_key) noexcept {
  // Cap at 8 before shifting: a 64-bit shift by >= 64 is undefined.
  int passes = 1;
  while (passes < 8 && (max_key >> (passes * kDigitBits)) != 0) ++passes;
  return passes;
}

std::vector<u32> sort_order_by_key(std::span<const u64> keys, u64 max_key) {
  const std::size_t n = keys.size();
  std::vector<u32> order(n);
  pram::parallel_for(0, n, [&](std::size_t i) { order[i] = static_cast<u32>(i); });
  if (n <= 1) return order;
  if (max_key == 0) max_key = max_key_of(keys);
  const int passes = radix_passes(max_key);
  std::vector<u32> tmp(n);
  std::span<u32> a{order}, b{tmp};
  for (int p = 0; p < passes; ++p) {
    counting_pass(keys, a, b, p * kDigitBits);
    std::swap(a, b);
  }
  if (a.data() != order.data()) order.swap(tmp);
  return order;
}

void radix_sort(std::vector<u64>& keys, std::vector<u32>* values, u64 max_key) {
  const std::vector<u32> order = sort_order_by_key(keys, max_key);
  const std::size_t n = keys.size();
  std::vector<u64> sorted_keys(n);
  pram::parallel_for(0, n, [&](std::size_t i) { sorted_keys[i] = keys[order[i]]; });
  keys = std::move(sorted_keys);
  if (values != nullptr) {
    std::vector<u32> sorted_vals(n);
    pram::parallel_for(0, n, [&](std::size_t i) { sorted_vals[i] = (*values)[order[i]]; });
    *values = std::move(sorted_vals);
  }
}

}  // namespace sfcp::prim
