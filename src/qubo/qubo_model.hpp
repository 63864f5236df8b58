// Immutable QUBO model W = (W_{i,j}) over n binary variables:
//
//   E(X) = sum_{(i,j) in E, i<j} W_{i,j} x_i x_j + sum_i W_{i,i} x_i   (Eq. 2)
//
// Storage is CSR over the full symmetric adjacency (each off-diagonal edge
// appears in both endpoint rows) plus a separate diagonal array.  The CSR
// rows are exactly what the incremental update (Eq. 4) walks after a flip,
// so a flip costs O(deg(i)); dense models like K2000 simply have rows of
// length n-1.
//
// Dense instances additionally carry a row-major n x n weight matrix
// (diagonal slots zero) so the flip kernel can stream a contiguous row
// instead of chasing CSR columns; see QuboBackend in types.hpp.  The CSR
// arrays are always present — IO, model analysis, and sparse queries keep
// using them — so the dense matrix is a kernel-side acceleration structure,
// not a replacement representation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "qubo/types.hpp"
#include "util/bit_vector.hpp"

namespace dabs {

class QuboBuilder;

class QuboModel {
 public:
  QuboModel() = default;

  /// Number of binary variables.
  std::size_t size() const noexcept { return diag_.size(); }

  /// Number of off-diagonal couplings (each undirected edge counted once).
  std::size_t edge_count() const noexcept { return col_.size() / 2; }

  /// Linear (diagonal) weight W_{i,i}.
  Weight diag(VarIndex i) const { return diag_[i]; }

  /// Neighbor column indices of variable i.
  std::span<const VarIndex> neighbors(VarIndex i) const {
    return {col_.data() + row_ptr_[i], row_ptr_[i + 1] - row_ptr_[i]};
  }
  /// Coupling weights aligned with neighbors(i).
  std::span<const Weight> weights(VarIndex i) const {
    return {val_.data() + row_ptr_[i], row_ptr_[i + 1] - row_ptr_[i]};
  }

  std::size_t degree(VarIndex i) const {
    return row_ptr_[i + 1] - row_ptr_[i];
  }
  std::size_t max_degree() const noexcept { return max_degree_; }

  /// Coupling weight W_{i,j} (O(deg) lookup; 0 when not adjacent).
  Weight weight(VarIndex i, VarIndex j) const;

  /// Active kernel backend (kCsr or kDense, never kAuto).
  QuboBackend backend() const noexcept { return backend_; }
  bool has_dense_rows() const noexcept {
    return backend_ == QuboBackend::kDense;
  }
  /// Contiguous row i of the dense matrix: n weights, W_{i,j} at slot j,
  /// zero on the diagonal.  Only valid when has_dense_rows().
  const Weight* dense_row(VarIndex i) const noexcept {
    return dense_.data() + std::size_t{i} * size();
  }

  /// Edge density relative to the complete graph (0 for n < 2).
  double density() const noexcept {
    const std::size_t n = size();
    return n >= 2 ? double(edge_count()) / (double(n) * double(n - 1) / 2.0)
                  : 0.0;
  }

  /// kAuto resolution policy: dense when density() >= this ...
  static constexpr double kDenseDensityThreshold = 0.4;
  /// ... and the n x n matrix stays within this budget (256 MiB).
  static constexpr std::size_t kDenseMaxBytes = std::size_t{256} << 20;

  /// Full O(n + nnz) evaluation of Eq. 2.  Used for verification and for
  /// one-off energy queries; the search kernels never call this per flip.
  Energy energy(const BitVector& x) const;

  /// Delta_k(X) = E(f_k(X)) - E(X) for one k, from scratch (Eq. 3).
  Energy delta(const BitVector& x, VarIndex k) const;

  /// All Delta_k(X) from scratch; used to (re)initialize SearchState.
  void delta_all(const BitVector& x, std::vector<Energy>& out) const;

  /// Largest possible |E| change of a single flip of bit i:
  /// |W_ii| + sum_k |W_ik|.
  Energy flip_bound(VarIndex i) const;

  /// max_i flip_bound(i): bounds every Delta_k of every solution, and every
  /// partial row sum the flip kernels form.  Computed once by
  /// QuboBuilder::build(); SearchState and BulkSearchState pick their Delta
  /// storage width from it.
  std::uint64_t delta_bound() const noexcept { return delta_bound_; }

  /// One-line description, e.g. "QUBO n=2000 edges=1999000 dense
  /// backend=dense".
  std::string describe() const;

 private:
  friend class QuboBuilder;

  std::vector<Weight> diag_;
  std::vector<std::size_t> row_ptr_;  // size n+1
  std::vector<VarIndex> col_;         // size 2*edges
  std::vector<Weight> val_;           // size 2*edges
  std::vector<Weight> dense_;         // size n*n when backend_ == kDense
  std::size_t max_degree_ = 0;
  std::uint64_t delta_bound_ = 0;
  QuboBackend backend_ = QuboBackend::kCsr;
};

}  // namespace dabs
