#include "prim/list_ranking.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "pram/parallel_for.hpp"
#include "prim/compact.hpp"

namespace sfcp::prim {

namespace {

// Heads = nodes with no predecessor.  Every acyclic list has exactly one.
std::vector<u32> find_heads(std::span<const u32> next) {
  const std::size_t n = next.size();
  std::vector<u8> has_pred(n, 0);
  pram::parallel_for(0, n, [&](std::size_t i) {
    if (next[i] != kNone) has_pred[next[i]] = 1;  // common-CRCW write
  });
  return pack_index_if(n, [&](std::size_t i) { return !has_pred[i]; });
}

std::vector<u32> rank_sequential(std::span<const u32> next) {
  const std::size_t n = next.size();
  std::vector<u32> rank(n, 0);
  const std::vector<u32> heads = find_heads(next);
  std::vector<u32> chain;
  for (u32 h : heads) {
    chain.clear();
    for (u32 v = h; v != kNone; v = next[v]) chain.push_back(v);
    const u32 len = static_cast<u32>(chain.size());
    for (u32 i = 0; i < len; ++i) rank[chain[i]] = len - 1 - i;
  }
  pram::charge(n);
  return rank;
}

std::vector<u32> rank_pointer_jumping(std::span<const u32> next_in) {
  const std::size_t n = next_in.size();
  std::vector<u32> rank(n), next(next_in.begin(), next_in.end());
  if (n == 0) return rank;
  pram::parallel_for(0, n, [&](std::size_t i) { rank[i] = next[i] == kNone ? 0u : 1u; });
  std::vector<u32> rank2(n), next2(n);
  // After round k every pointer has jumped 2^k links, so ceil(log2 n)
  // rounds suffice for lists of length <= n.
  const int log_rounds = static_cast<int>(std::bit_width(n - 1)) + 1;
  for (int r = 0; r < log_rounds; ++r) {
    pram::parallel_for(0, n, [&](std::size_t i) {
      if (next[i] != kNone) {
        rank2[i] = rank[i] + rank[next[i]];
        next2[i] = next[next[i]];
      } else {
        rank2[i] = rank[i];
        next2[i] = kNone;
      }
    });
    rank.swap(rank2);
    next.swap(next2);
  }
  return rank;
}

std::vector<u32> rank_ruling_set(std::span<const u32> next) {
  const std::size_t n = next.size();
  std::vector<u32> rank(n, 0);
  if (n == 0) return rank;
  // Splitters: list heads plus a salted hash sample of ~n/64 nodes, so
  // segment lengths are O(64) in expectation.
  const u64 salt = pram::session_seed();
  std::vector<u8> is_splitter(n, 0);
  pram::parallel_for(0, n, [&](std::size_t i) { is_splitter[i] = ruling_sample(i, salt) ? 1 : 0; });
  for (u32 h : find_heads(next)) is_splitter[h] = 1;
  const std::vector<u32> splitters = pack_index(is_splitter);
  const std::size_t s = splitters.size();
  std::vector<u32> splitter_id(n, kNone);
  pram::parallel_for(0, s, [&](std::size_t j) { splitter_id[splitters[j]] = static_cast<u32>(j); });
  // Walk each segment: record the hop offset of every node from its owning
  // splitter, the segment length, and the successor splitter.
  std::vector<u32> seg_len(s, 0);
  std::vector<u32> seg_next(s, kNone);
  std::vector<u32> local_off(n, 0);
  pram::parallel_for(0, s, [&](std::size_t j) {
    u32 v = splitters[j];
    u32 hops = 0;
    for (;;) {
      local_off[v] = hops;
      const u32 w = next[v];
      if (w == kNone) {
        seg_len[j] = hops;  // v is the list end: distance(v, end) == 0
        break;
      }
      if (is_splitter[w]) {
        seg_len[j] = hops + 1;
        seg_next[j] = splitter_id[w];
        break;
      }
      ++hops;
      v = w;
    }
  });
  // The loop charged one operation per splitter; the walk visits every node.
  pram::charge(n - s);
  // Rank the contracted splitter list sequentially (expected size n/64).
  // seg_rank[j] = hops from the END of segment j to the list end.
  std::vector<u32> seg_rank(s, 0);
  {
    std::vector<u32> indeg(s, 0);
    for (std::size_t j = 0; j < s; ++j) {
      if (seg_next[j] != kNone) ++indeg[seg_next[j]];
    }
    std::vector<u32> chain;
    for (std::size_t j = 0; j < s; ++j) {
      if (indeg[j] != 0) continue;
      chain.clear();
      for (u32 c = static_cast<u32>(j); c != kNone; c = seg_next[c]) chain.push_back(c);
      u32 dist = 0;
      for (std::size_t t = chain.size(); t-- > 0;) {
        seg_rank[chain[t]] = dist;
        dist += seg_len[chain[t]];
      }
    }
    pram::charge(2 * s);
  }
  // Expand: distance(v, end) = seg_rank[owner] + seg_len[owner] - off(v).
  pram::parallel_for(0, s, [&](std::size_t j) {
    u32 v = splitters[j];
    const u32 base = seg_rank[j] + seg_len[j];
    for (;;) {
      rank[v] = base - local_off[v];
      const u32 w = next[v];
      if (w == kNone || is_splitter[w]) break;
      v = w;
    }
  });
  pram::charge(n - s);
  return rank;
}

}  // namespace

std::vector<u32> list_rank(std::span<const u32> next, ListRankStrategy strategy) {
  switch (strategy) {
    case ListRankStrategy::Sequential:
      return rank_sequential(next);
    case ListRankStrategy::PointerJumping:
      return rank_pointer_jumping(next);
    case ListRankStrategy::RulingSet:
      return rank_ruling_set(next);
  }
  return rank_sequential(next);
}

}  // namespace sfcp::prim
