// Straight search (paper §III-A-2): walk the current solution X toward a
// target vector D, each step flipping the minimum-Delta bit among those
// where X and D differ, so the Hamming distance shrinks by one per flip
// and the walk ends exactly at D.
#pragma once

#include <cstdint>
#include <vector>

#include "qubo/search_state.hpp"
#include "util/bit_vector.hpp"

namespace dabs {

/// Walks state's solution to `target`; returns the number of flips
/// (= initial Hamming distance).  Step-1 best tracking stays active: each
/// iteration also updates BEST with the globally best 1-bit neighbor.
/// Ties go to the lowest index.  Each step costs O(n/64 + remaining
/// distance) to choose plus one flip_and_scan().  When `flipped` is
/// non-null, the flipped indices are appended to it in order.
std::uint64_t straight_walk(SearchState& state, const BitVector& target,
                            std::vector<VarIndex>* flipped = nullptr);

}  // namespace dabs
