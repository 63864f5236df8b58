// Incremental search state (paper §III-A).
//
// Maintains, for a current solution X:
//   - E(X)                       updated in O(1) per flip,
//   - Delta_k(X) for every k     updated in O(deg(i)) per flip of bit i
//                                via Eq. (4) (neighbors) and Eq. (5) (i itself),
//   - BEST / E(BEST)             the best 1-bit neighbor f_j(X) seen by any
//                                Step-1 scan (plus every visited X), which is
//                                what a batch search ultimately reports.
//
// Kernel engine: alongside the packed x_ the state caches sigma_ (int8 ±1,
// kept in sync with x_), so both flip kernels are branchless
// delta_[k] += w * si * sigma_[k] loops the compiler can auto-vectorize —
// a contiguous row stream on the dense backend, a CSR gather on the sparse
// one.  scan() is the CPU equivalent of the paper's GPU Step 1: a blocked
// min/argmin/max reduction over Delta that opportunistically improves BEST.
// flip_and_scan() fuses Step 3 of one iteration with Step 1 of the next,
// block by block on the dense backend so each Delta block is reduced while
// still cache-hot.
//
// Delta storage width is chosen from the model: int32 when
// QuboModel::delta_bound() fits (every +-1 MaxCut instance, K2000
// included), which halves the bytes each flip streams and lets the
// reduction vectorize; int64 otherwise.  Every stored value is a true
// Delta of some reachable state, so the narrow path never overflows.  All
// arithmetic is exact integer math, so every backend, width and kernel
// variant is bit-identical.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "qubo/qubo_model.hpp"
#include "qubo/types.hpp"
#include "util/bit_vector.hpp"

namespace dabs {

struct ScanResult {
  Energy min_delta;
  Energy max_delta;
  VarIndex argmin;
};

class SearchState {
 public:
  /// Binds to a model; starts at the zero vector (E=0, Delta_k = W_{k,k}).
  explicit SearchState(const QuboModel& model);

  const QuboModel& model() const noexcept { return *model_; }
  std::size_t size() const noexcept { return sigma_.size(); }

  /// Resets to the zero vector in O(n) without touching the matrix
  /// (the paper's batch-search starting point).
  void reset();

  /// Resets to an arbitrary vector; O(n + nnz) full recompute.
  void reset_to(const BitVector& x);

  const BitVector& solution() const noexcept { return x_; }
  Energy energy() const noexcept { return energy_; }
  Energy delta(VarIndex k) const {
    return narrow_ ? Energy{delta32_[k]} : delta64_[k];
  }
  /// Bytes per stored Delta: 4 when model().delta_bound() fits int32,
  /// else 8.
  std::size_t delta_width() const noexcept { return narrow_ ? 4 : 8; }

  /// Cached spins sigma(x_k) as int8 ±1, always in sync with solution().
  std::span<const std::int8_t> sigmas() const noexcept { return sigma_; }

  /// Flips bit i: X <- f_i(X), updating E and every Delta_k incrementally.
  /// Also folds the *visited* X into BEST (an O(1) check).
  void flip(VarIndex i);

  /// Fused Step 3 + Step 1: flip(i) followed by scan(), except the dense
  /// backend interleaves the Delta update and the reduction block by block
  /// so the deltas are reduced while still in cache.  Exactly equivalent to
  /// `flip(i); return scan();`.
  ScanResult flip_and_scan(VarIndex i);

  /// Total flips since construction or the last reset.
  std::uint64_t flip_count() const noexcept { return flips_; }

  /// Step 1: one pass over Delta computing min/argmin/max and updating
  /// BEST with the best 1-bit neighbor if it improves.
  ScanResult scan();

  /// BEST bookkeeping.
  const BitVector& best() const noexcept { return best_; }
  Energy best_energy() const noexcept { return best_energy_; }
  /// Re-anchors BEST at the current X (start of a fresh batch search).
  void reset_best();

  /// True when every Delta_k >= 0, i.e. X is a 1-flip local minimum.
  bool is_local_minimum() const;

 private:
  /// Reduction block width: big enough to amortize the per-block argmin
  /// bookkeeping, small enough that a fused dense block (weights + deltas)
  /// stays resident in L1/L2.
  static constexpr std::size_t kScanBlock = 1024;

  void maybe_record_visited();
  /// Records BEST <- f_{arg}(X) with energy e through the scratch buffer
  /// (word copy + swap; no per-improvement allocation).
  void record_best_neighbor(VarIndex arg, Energy e);

  // Kernels, instantiated for D = int32_t (narrow_) and int64_t.
  /// The active Delta array: delta32_ or delta64_.
  template <typename D>
  D* delta_data() noexcept;
  template <typename D>
  void flip_impl(VarIndex i);
  template <typename D>
  ScanResult scan_impl();
  template <typename D>
  ScanResult flip_and_scan_impl(VarIndex i);
  /// Eq. 4 over one dense block [b0, b1) of Delta (row streamed, branchless).
  template <typename D>
  void dense_update_block(const Weight* row, std::int32_t si, std::size_t b0,
                          std::size_t b1);
  /// Branchless min/max over one block; returns {block_min, block_max}.
  template <typename D>
  void reduce_block(std::size_t b0, std::size_t b1, Energy& mn,
                    Energy& mx) noexcept;
  /// Shared tail of flip()/flip_and_scan(): Eq. 5 and the x/sigma updates.
  template <typename D>
  void finish_flip(VarIndex i, std::int32_t si);
  /// Locates the first argmin in [b0, b1) and applies the BEST update.
  template <typename D>
  ScanResult finish_scan(Energy mn, Energy mx, std::size_t mn_block);

  const QuboModel* model_;
  BitVector x_;
  Energy energy_ = 0;
  bool narrow_;                        // Delta stored as int32
  std::vector<std::int32_t> delta32_;  // size n when narrow_, else empty
  std::vector<Energy> delta64_;        // size n when !narrow_, else empty
  std::vector<std::int8_t> sigma_;     // sigma_[k] == sigma(x_.get(k))
  std::uint64_t flips_ = 0;

  BitVector best_;
  BitVector scratch_;  // reusable buffer for BEST updates
  Energy best_energy_ = 0;
};

}  // namespace dabs
