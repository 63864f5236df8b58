#include "search/straight.hpp"

#include <bit>
#include <limits>

#include "util/assert.hpp"

namespace dabs {

std::uint64_t straight_walk(SearchState& state, const BitVector& target,
                            std::vector<VarIndex>* flipped) {
  DABS_CHECK(target.size() == state.size(), "target length mismatch");
  std::uint64_t flips = 0;
  const auto n = static_cast<VarIndex>(state.size());
  // The bits still differing from the target, built once and cleared as
  // they are flipped, so each step visits only |diff| candidates.  Both
  // vectors keep their tail bits zero, so diff has none.
  const std::size_t words = target.word_count();
  std::vector<std::uint64_t> diff(words);
  const std::uint64_t* x = state.solution().words();
  for (std::size_t w = 0; w < words; ++w) diff[w] = x[w] ^ target.words()[w];
  state.scan();  // Step 1: BEST update over all 1-bit neighbors
  for (;;) {
    // Step 2: first-occurrence minimum-Delta bit among the differing ones.
    Energy diff_min = std::numeric_limits<Energy>::max();
    VarIndex diff_arg = n;  // n == "no differing bit left"
    for (std::size_t w = 0; w < words; ++w) {
      for (std::uint64_t bits = diff[w]; bits != 0; bits &= bits - 1) {
        const auto k = static_cast<VarIndex>(w * 64 + std::countr_zero(bits));
        const Energy d = state.delta(k);
        if (d < diff_min) {
          diff_min = d;
          diff_arg = k;
        }
      }
    }
    if (diff_arg == n) break;  // X == target
    diff[diff_arg >> 6] &= ~(std::uint64_t{1} << (diff_arg & 63));
    state.flip_and_scan(diff_arg);  // Step 3 fused with the next Step 1
    if (flipped != nullptr) flipped->push_back(diff_arg);
    ++flips;
  }
  return flips;
}

}  // namespace dabs
