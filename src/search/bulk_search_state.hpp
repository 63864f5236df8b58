// Bulk-parallel replica state (paper §II: "bulk search" = many concurrent
// search states against one shared model).
//
// BulkSearchState maintains R independent SearchState-equivalent replicas
// in a lane-sliced layout: replicas are grouped into blocks of 64 lanes,
// and within a block every per-variable quantity is stored replica-major
// ([k][lane]), so one model row load amortizes across all 64 delta
// updates.  Solution vectors X and BEST are bit-sliced — one uint64 word
// per variable per block, same LSB-first convention as util/bit_vector —
// which makes masked per-lane flips single xor's and lets the sparse/CSR
// backend update 64 replicas per coupling with a handful of ops.
//
// The ops are *same-index* and masked: flip(i, mask) flips bit i in every
// replica whose mask bit is set.  flip_chunk() defers up to kMaxChunk
// same-index flips and applies them in ONE pass over the delta arrays
// (rank-B update): for k outside the chunk the per-flip contributions of
// Eq. 4 are order-independent (each chunk index flips at most once, so
// sigma at flip time equals its pre-chunk value), so
//
//   Delta_k += sigma_k * sum_b W_{i_b,k} * h_b,   h_b = active_b * sigma_{i_b}
//
// with h_b independent of k — the inner loop is a multiply-accumulate the
// compiler vectorizes across lanes.  The chunk indices themselves (the
// only k where sequential order matters) are replayed scalar per lane,
// reproducing SearchState's flip-by-flip semantics exactly: energies,
// Eq. 5 negations, and every intermediate visited-X BEST fold.  All
// arithmetic is exact integer math, so every replica is bit-identical to
// a single-replica SearchState fed the same flip sequence, on both
// backends and at any SIMD width.
//
// Delta storage width is chosen per model from QuboModel::delta_bound()
// = max_k(|W_kk| + sum_i |W_ik|), the gate SearchState uses too: int16
// when it fits (true for every +-1 MaxCut instance incl. K2000) — twice
// the lanes per vector register of the scalar int32 kernel — int32/int64
// otherwise.  The choice is an internal optimization; results are
// identical across widths.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "qubo/qubo_model.hpp"
#include "qubo/search_state.hpp"
#include "util/bit_vector.hpp"

namespace dabs {

namespace detail {
class BulkEngine;
}

class BulkSearchState {
 public:
  /// Lanes per block: one uint64 mask word covers one block.
  static constexpr std::size_t kLanesPerBlock = 64;
  /// Maximum deferred same-index flips per flip_chunk()/descend_chunk().
  static constexpr std::size_t kMaxChunk = 8;

  /// R replicas bound to `model`, all starting at the zero vector.
  BulkSearchState(const QuboModel& model, std::size_t replicas);
  ~BulkSearchState();

  BulkSearchState(BulkSearchState&&) noexcept;
  BulkSearchState& operator=(BulkSearchState&&) noexcept;
  BulkSearchState(const BulkSearchState&) = delete;
  BulkSearchState& operator=(const BulkSearchState&) = delete;

  const QuboModel& model() const noexcept;
  std::size_t size() const noexcept;           // variables n
  std::size_t replica_count() const noexcept;  // replicas R
  /// ceil(R / 64): number of mask words per flip position.
  std::size_t block_count() const noexcept;

  // --- per-replica state (mirrors SearchState) ---------------------------
  void reset();                                       // all replicas
  void reset_to(std::size_t r, const BitVector& x);   // one replica
  void reset_best(std::size_t r);
  void reset_best_all();

  Energy energy(std::size_t r) const;
  Energy delta(std::size_t r, VarIndex k) const;
  bool get(std::size_t r, VarIndex k) const;
  /// Bit-sliced views used by the bulk sweep algorithms: the 64 lanes of
  /// block `b` at variable k — solution bits, and a mask of lanes whose
  /// Delta_k is currently negative (improving flip candidates).
  std::uint64_t solution_word(std::size_t b, VarIndex k) const;
  std::uint64_t negative_delta_word(std::size_t b, VarIndex k) const;
  BitVector solution(std::size_t r) const;  // extracted copy
  BitVector best(std::size_t r) const;      // extracted copy
  Energy best_energy(std::size_t r) const;
  std::uint64_t flip_count(std::size_t r) const;
  bool is_local_minimum(std::size_t r) const;

  // --- bulk ops ----------------------------------------------------------
  // Lane masks: `block_count()` words per flip position; bit (r mod 64) of
  // word (r / 64) selects replica r.  Bits past replica_count() are
  // ignored.

  /// Flips bit i in every replica.
  void flip(VarIndex i);
  /// Flips bit i in the replicas selected by `lane_mask`.
  void flip(VarIndex i, std::span<const std::uint64_t> lane_mask);

  /// Applies up to kMaxChunk same-index masked flips in one rank-B pass.
  /// `idx` must hold distinct variable indices; `lane_masks` is laid out
  /// position-major: words [p * block_count(), (p+1) * block_count()) are
  /// the mask of idx[p].  Per replica, the flips are applied in position
  /// order with exact sequential semantics.
  void flip_chunk(std::span<const VarIndex> idx,
                  std::span<const std::uint64_t> lane_masks);

  /// flip_chunk variant for greedy sweeps: a selected lane applies flip
  /// idx[p] only if its Delta_{idx[p]} is still negative *at its turn*
  /// (exact Gauss-Seidel order, no stale-mask synchronous artifacts).
  /// When `applied` is non-empty it must match `lane_masks` in shape and
  /// receives the masks of flips actually performed.
  void descend_chunk(std::span<const VarIndex> idx,
                     std::span<const std::uint64_t> lane_masks,
                     std::span<std::uint64_t> applied = {});

  /// Step 1 for every replica: per-lane min/argmin/max over Delta with the
  /// same first-occurrence argmin and BEST-neighbor fold as
  /// SearchState::scan().  `out` must hold replica_count() entries.
  void scan(std::span<ScanResult> out);

  /// Fused Step 3 + Step 1: flip(i, lane_mask) then scan(out), processed
  /// block by block so each block's deltas are reduced while cache-hot.
  /// Exactly equivalent to `flip(i, lane_mask); scan(out);`.
  void flip_and_scan(VarIndex i, std::span<const std::uint64_t> lane_mask,
                     std::span<ScanResult> out);

 private:
  std::unique_ptr<detail::BulkEngine> engine_;
};

}  // namespace dabs
