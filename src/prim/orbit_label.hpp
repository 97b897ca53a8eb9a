#pragma once
// Orbit labelling of a permutation: every element learns its orbit's
// minimum element, its distance from that minimum along the successor, and
// the orbit length.
//
// This is the ruling-set technique of prim::list_rank applied to cycles,
// and the one orbit computation the parallel pipeline runs: Euler-cycle
// detection (graph/cycle_detect, over the 2n Euler arcs) and cycle
// structure (graph/cycle_structure, over the cycle nodes) both call it.
//   1. Sample ~m/64 splitters by salted hash (prim::ruling_sample).
//   2. Walk the segments between splitters in parallel: segment length,
//      next splitter, and the segment minimum with its offset.
//   3. Resolve the contracted splitter cycles in one sequential pass.
//   4. Expand with a second parallel walk.
//   5. Orbits that hold no splitter (few, on random inputs) are labelled by
//      the sequential visited walk, restricted to their elements.
// Work is O(m) expected; with one thread or m below pram::grain() a
// sequential visited walk does the same job.

#include <span>

#include "pram/types.hpp"

namespace sfcp::prim {

/// For every active x: id[x] = the minimum element of x's orbit, pos[x] =
/// steps from id[x] to x along succ, len[x] = the orbit length; kNone in
/// all three for inactive x.  succ restricted to the active elements must
/// be a permutation of them (active x has active succ[x]); an empty
/// `active` means every element is active.  id must have succ.size()
/// entries; pos and len either too or none, in which case that output is
/// not computed.
void label_orbits(std::span<const u32> succ, std::span<const u8> active, std::span<u32> id,
                  std::span<u32> pos, std::span<u32> len);

}  // namespace sfcp::prim
