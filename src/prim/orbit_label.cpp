#include "prim/orbit_label.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "pram/parallel_for.hpp"
#include "prim/compact.hpp"
#include "prim/list_ranking.hpp"

namespace sfcp::prim {

namespace {

struct Outputs {
  std::span<u32> id, pos, len;

  void put(u32 x, u32 orbit, u32 p, u32 l) const {
    id[x] = orbit;
    if (!pos.empty()) pos[x] = p;
    if (!len.empty()) len[x] = l;
  }
};

// Labels the orbit whose minimum is x by walking it from x; returns the
// number of elements walked.
u64 label_orbit(std::span<const u32> succ, u32 x, const Outputs& out) {
  u32 l = 0;
  u32 v = x;
  do {
    out.id[v] = x;
    if (!out.pos.empty()) out.pos[v] = l;
    ++l;
    v = succ[v];
  } while (v != x);
  if (out.len.empty()) return l;
  do {
    out.len[v] = l;
    v = succ[v];
  } while (v != x);
  return 2 * u64{l};
}

// Ascending visited walk: the first unlabelled element met in id order is
// the minimum of its orbit, so one walk from it labels the whole orbit.
void label_sequential(std::span<const u32> succ, std::span<const u8> active, const Outputs& out) {
  const std::size_t m = succ.size();
  std::fill(out.id.begin(), out.id.end(), kNone);
  std::fill(out.pos.begin(), out.pos.end(), kNone);
  std::fill(out.len.begin(), out.len.end(), kNone);
  u64 walked = 0;
  for (u32 x = 0; x < m; ++x) {
    if (out.id[x] == kNone && (active.empty() || active[x])) walked += label_orbit(succ, x, out);
  }
  pram::charge(m + walked);
}

// Walks the segments of splitters [lo, hi) -- each from its splitter to
// just before the next one -- in lock step: every sweep advances each
// unfinished segment by one element, so the cache misses of independent
// walks overlap instead of queueing behind one another.  visit(j, v, off)
// sees element v at offset off of segment j, in order; end(j, w, len) sees
// the splitter w that ends segment j.
template <typename Visit, typename End>
void walk_segments(std::span<const u32> succ, std::span<const u32> splitters, u64 salt,
                   std::size_t lo, std::size_t hi, Visit&& visit, End&& end) {
  struct Cursor {
    std::size_t seg;
    u32 v, off;
  };
  std::vector<Cursor> live(hi - lo);
  for (std::size_t j = lo; j < hi; ++j) live[j - lo] = {j, splitters[j], 0};
  while (!live.empty()) {
    for (std::size_t k = 0; k < live.size();) {
      Cursor& c = live[k];
      visit(c.seg, c.v, c.off);
      const u32 w = succ[c.v];
      ++c.off;
      if (!ruling_sample(w, salt)) {
        c.v = w;
        ++k;
        continue;
      }
      end(c.seg, w, c.off);
      c = live.back();  // retire: the last cursor takes slot k
      live.pop_back();
    }
  }
}

void label_ruling_set(std::span<const u32> succ, std::span<const u8> active, const Outputs& out) {
  const std::size_t m = succ.size();
  const u64 salt = pram::session_seed();
  const auto on = [&](std::size_t x) { return active.empty() || active[x] != 0; };
  const auto sampled = [&](std::size_t x) { return on(x) && ruling_sample(x, salt); };
  // Splitters, ascending: count per block, then each block writes its own
  // share.  The counting pass also marks every element unreached
  // (id = kNone) and labels inactive ones kNone.
  const int nb = pram::num_blocks(m);
  std::vector<u32> block_at(static_cast<std::size_t>(nb) + 1, 0);
  pram::parallel_blocks(m, [&](int b, std::size_t lo, std::size_t hi) {
    u32 c = 0;
    for (std::size_t x = lo; x < hi; ++x) {
      out.id[x] = kNone;
      if (!on(x)) out.put(static_cast<u32>(x), kNone, kNone, kNone);
      c += sampled(x) ? 1 : 0;
    }
    block_at[static_cast<std::size_t>(b) + 1] = c;
  });
  std::partial_sum(block_at.begin(), block_at.end(), block_at.begin());
  std::vector<u32> splitters(block_at.back());
  pram::parallel_blocks(m, [&](int b, std::size_t lo, std::size_t hi) {
    u32 at = block_at[static_cast<std::size_t>(b)];
    for (std::size_t x = lo; x < hi; ++x) {
      if (sampled(x)) splitters[at++] = static_cast<u32>(x);
    }
  });
  const std::size_t s = splitters.size();
  // Walk each segment: its length, the index of the next splitter, and its
  // minimum element with that element's offset.
  // Both walks split the splitters over the num_blocks(m) blocks of the
  // elements they stand for (~64 each): blocking by s would keep them on
  // one thread below 64 * grain elements.
  const auto walk_all = [&](auto&& visit, auto&& end) {
    pram::parallel_fan(static_cast<std::size_t>(nb), [&](std::size_t b) {
      const auto [lo, hi] = pram::block_range(s, nb, static_cast<int>(b));
      walk_segments(succ, splitters, salt, lo, hi, visit, end);
    });
  };
  std::vector<u32> seg_len(s), seg_next(s), seg_min(s), seg_min_off(s);
  walk_all(
      [&](std::size_t j, u32 v, u32 off) {
        if (off == 0 || v < seg_min[j]) {
          seg_min[j] = v;
          seg_min_off[j] = off;
        }
      },
      [&](std::size_t j, u32 w, u32 len) {
        seg_len[j] = len;
        seg_next[j] = static_cast<u32>(std::lower_bound(splitters.begin(), splitters.end(), w) -
                                       splitters.begin());
      });
  // Contracted cycles, sequentially (expected size m/64): each orbit's
  // minimum and length, and every splitter's position from that minimum.
  // seg_pos doubles as the visited mark.
  std::vector<u32> seg_pos(s, kNone), seg_id(s), seg_orbit_len(s);
  u64 covered = 0;
  for (std::size_t j0 = 0; j0 < s; ++j0) {
    if (seg_pos[j0] != kNone) continue;
    u64 total = 0, lo_at = 0;
    u32 lo = kNone;
    std::size_t j = j0;
    do {
      if (seg_min[j] < lo) {
        lo = seg_min[j];
        lo_at = total + seg_min_off[j];
      }
      total += seg_len[j];
      j = seg_next[j];
    } while (j != j0);
    u64 at = 0;
    do {
      seg_pos[j] = static_cast<u32>((at + total - lo_at) % total);
      seg_id[j] = lo;
      seg_orbit_len[j] = static_cast<u32>(total);
      at += seg_len[j];
      j = seg_next[j];
    } while (j != j0);
    covered += total;
  }
  pram::charge(2 * s);
  // Expand: walk every segment again, writing the labels.
  walk_all(
      [&](std::size_t j, u32 v, u32 off) {
        const u32 l = seg_orbit_len[j];
        const u64 p = u64{seg_pos[j]} + off;  // < 2l: off < seg_len <= l
        out.put(v, seg_id[j], static_cast<u32>(p < l ? p : p - l), l);
      },
      [](std::size_t, u32, u32) {});
  // The fans charged one operation per block; both walks visit every
  // covered element.
  pram::charge(2 * covered);
  if (active.empty() && covered == m) return;
  // Orbits no splitter landed in are still wholly unlabelled, so the
  // ascending visited walk of label_sequential labels each from its
  // minimum in O(|rest|).  Random inputs leave few: over the Euler arcs and
  // the cycle nodes of the random_function, random_permutation and
  // long_tail generators at n = 2^18, 0 to 811 elements.
  const std::vector<u32> rest =
      pack_index_if(m, [&](std::size_t x) { return on(x) && out.id[x] == kNone; });
  u64 walked = 0;
  for (const u32 x : rest) {
    if (out.id[x] == kNone) walked += label_orbit(succ, x, out);
  }
  pram::charge(walked);
}

}  // namespace

void label_orbits(std::span<const u32> succ, std::span<const u8> active, std::span<u32> id,
                  std::span<u32> pos, std::span<u32> len) {
  const std::size_t m = succ.size();
  assert(id.size() == m && (pos.empty() || pos.size() == m) && (len.empty() || len.size() == m));
  assert(active.empty() || active.size() == m);
  assert(m < kNone);  // kNone marks unlabelled elements
  if (m == 0) return;
  const Outputs out{id, pos, len};
  if (pram::threads() == 1 || m < pram::grain()) {
    label_sequential(succ, active, out);
  } else {
    label_ruling_set(succ, active, out);
  }
}

}  // namespace sfcp::prim
