#pragma once
// List ranking: distance from every element of a linked list (given by a
// successor array) to the end of its list.
//
// The paper invokes the optimal O(log n)-time, O(n)-operation list ranking
// of Anderson & Miller [2] for arranging cycles contiguously and for the
// Euler-tour computations.  We provide three interchangeable strategies:
//   * Sequential    — walk each list (O(n) work, reference)
//   * PointerJumping — Wyllie's algorithm (O(log n) rounds, O(n log n) work)
//   * RulingSet     — random sparse ruling set: sample ~n/64 splitters,
//                     walk the gaps in parallel, rank the contracted list,
//                     expand (O(n) expected work)
// The ablation bench A2 compares them.  prim::label_orbits (orbit_label.hpp)
// applies the same ruling set to the cycles of a permutation.

#include <span>
#include <vector>

#include "pram/types.hpp"
#include "prim/hash_table.hpp"

namespace sfcp::prim {

/// Ruling-set sample shared by list_rank and label_orbits: x is a splitter
/// when its salted hash falls in one residue class of 64, so the gap between
/// splitters is 64 in expectation.  Callers salt with pram::session_seed(),
/// so an input built against the unsalted hash is sampled like any other.
/// The protection is only as good as the seed: sessions left on the
/// default seed (pram::kDefaultSeed) sample the same ids every run, and an
/// input crafted against that seed still collapses into one serial segment;
/// a secret or random seed closes that hole.
inline bool ruling_sample(u64 x, u64 salt) noexcept { return hash_u64(x ^ salt) % 64 == 0; }

enum class ListRankStrategy { Sequential, PointerJumping, RulingSet };

/// next[i] = successor of i, or kNone at list ends.  Multiple disjoint lists
/// may be present.  Returns rank[i] = number of links from i to its list end
/// (rank of an end node is 0).  Lists must be acyclic.
std::vector<u32> list_rank(std::span<const u32> next,
                           ListRankStrategy strategy = ListRankStrategy::RulingSet);

}  // namespace sfcp::prim
