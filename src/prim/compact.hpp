#pragma once
// Parallel compaction (a.k.a. pack / filter): collect the indices whose
// flag is set, preserving order.  O(n) work in two rounds over
// pram::parallel_blocks: each block counts its hits, a prefix over the
// per-block counts gives each block its first output slot, and each block
// writes its own share.  No n-sized scratch array; the predicate is called
// twice per index, so it must be pure.

#include <cstddef>
#include <numeric>
#include <span>
#include <vector>

#include "pram/parallel_for.hpp"
#include "pram/types.hpp"

namespace sfcp::prim {

/// Returns the indices i (ascending) for which pred(i) is truthy.
template <typename Pred>
std::vector<u32> pack_index_if(std::size_t n, Pred&& pred) {
  std::vector<u32> block_at(static_cast<std::size_t>(pram::num_blocks(n)) + 1, 0);
  pram::parallel_blocks(n, [&](int b, std::size_t lo, std::size_t hi) {
    u32 c = 0;
    for (std::size_t i = lo; i < hi; ++i) c += pred(i) ? 1u : 0u;
    block_at[static_cast<std::size_t>(b) + 1] = c;
  });
  std::partial_sum(block_at.begin(), block_at.end(), block_at.begin());
  std::vector<u32> out(block_at.back());
  pram::parallel_blocks(n, [&](int b, std::size_t lo, std::size_t hi) {
    u32 at = block_at[static_cast<std::size_t>(b)];
    for (std::size_t i = lo; i < hi; ++i) {
      if (pred(i)) out[at++] = static_cast<u32>(i);
    }
  });
  return out;
}

/// Returns the indices i with flags[i] != 0, ascending.
std::vector<u32> pack_index(std::span<const u8> flags);

}  // namespace sfcp::prim
