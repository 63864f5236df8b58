#include "qubo/search_state.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/assert.hpp"

namespace dabs {

SearchState::SearchState(const QuboModel& model)
    : model_(&model),
      x_(model.size()),
      narrow_(model.delta_bound() <=
              std::uint64_t{std::numeric_limits<std::int32_t>::max()}),
      delta32_(narrow_ ? model.size() : 0),
      delta64_(narrow_ ? 0 : model.size()),
      sigma_(model.size(), std::int8_t{-1}),
      best_(model.size()),
      scratch_(model.size()) {
  reset();
}

template <>
std::int32_t* SearchState::delta_data<std::int32_t>() noexcept {
  return delta32_.data();
}

template <>
Energy* SearchState::delta_data<Energy>() noexcept {
  return delta64_.data();
}

void SearchState::reset() {
  x_.clear();
  energy_ = 0;
  const auto n = static_cast<VarIndex>(size());
  // |W_kk| <= delta_bound(), so the narrow store is exact.
  if (narrow_) {
    for (VarIndex k = 0; k < n; ++k) delta32_[k] = model_->diag(k);
  } else {
    for (VarIndex k = 0; k < n; ++k) delta64_[k] = model_->diag(k);
  }
  std::fill(sigma_.begin(), sigma_.end(), std::int8_t{-1});
  flips_ = 0;
  reset_best();
}

void SearchState::reset_to(const BitVector& x) {
  DABS_CHECK(x.size() == size(), "solution length mismatch");
  x_ = x;
  energy_ = model_->energy(x_);
  if (narrow_) {
    // Every Delta is bounded by delta_bound(), so narrowing is exact.
    std::vector<Energy> full;
    model_->delta_all(x_, full);
    std::copy(full.begin(), full.end(), delta32_.begin());
  } else {
    model_->delta_all(x_, delta64_);
  }
  for (std::size_t k = 0; k < sigma_.size(); ++k) {
    sigma_[k] = static_cast<std::int8_t>(sigma(x_.get(k)));
  }
  flips_ = 0;
  reset_best();
}

void SearchState::reset_best() {
  best_ = x_;
  best_energy_ = energy_;
}

void SearchState::maybe_record_visited() {
  if (energy_ < best_energy_) {
    best_ = x_;
    best_energy_ = energy_;
  }
}

void SearchState::record_best_neighbor(VarIndex arg, Energy e) {
  scratch_ = x_;  // word copy into the preallocated buffer — no allocation
  scratch_.flip(arg);
  std::swap(best_, scratch_);
  best_energy_ = e;
}

template <typename D>
void SearchState::dense_update_block(const Weight* __restrict row,
                                     std::int32_t si, std::size_t b0,
                                     std::size_t b1) {
  // Eq. 4, branchless over the contiguous row: Delta_k += W_{i,k} *
  // sigma(x_i) * sigma(x_k).  The sign product is applied as an xor-negate
  // (m == 0 keeps w, m == -1 yields -w) because the baseline x86-64 target
  // has no vector 64-bit multiply — this form auto-vectorizes under plain
  // SSE2.  Safe because the builder rejects INT32_MIN couplings.  row[i]
  // is 0, so Delta_i is left for Eq. 5.  In int32 storage the sum is a
  // true Delta, bounded by delta_bound(), so it cannot overflow.
  D* __restrict d = delta_data<D>();
  const std::int8_t* __restrict sg = sigma_.data();
  if (si >= 0) {
    for (std::size_t k = b0; k < b1; ++k) {
      const std::int32_t m = std::int32_t{sg[k]} >> 7;  // sg<0 ? -1 : 0
      d[k] += D{(row[k] ^ m) - m};
    }
  } else {
    for (std::size_t k = b0; k < b1; ++k) {
      const std::int32_t m = ~(std::int32_t{sg[k]} >> 7);  // sg<0 ? 0 : -1
      d[k] += D{(row[k] ^ m) - m};
    }
  }
}

template <typename D>
void SearchState::reduce_block(std::size_t b0, std::size_t b1, Energy& mn,
                               Energy& mx) noexcept {
  const D* __restrict d = delta_data<D>();
  D lo = d[b0], hi = d[b0];
  for (std::size_t k = b0 + 1; k < b1; ++k) {
    lo = d[k] < lo ? d[k] : lo;
    hi = d[k] > hi ? d[k] : hi;
  }
  mn = lo;
  mx = hi;
}

template <typename D>
void SearchState::finish_flip(VarIndex i, std::int32_t si) {
  D* d = delta_data<D>();
  energy_ += d[i];
  d[i] = -d[i];  // Eq. 5
  sigma_[i] = static_cast<std::int8_t>(-si);
  x_.flip(i);
  ++flips_;
  maybe_record_visited();
}

template <typename D>
void SearchState::flip_impl(VarIndex i) {
  DABS_ASSERT(i < size());
  const std::int32_t si = sigma_[i];  // sigma of the *old* value of bit i
  if (model_->has_dense_rows()) {
    dense_update_block<D>(model_->dense_row(i), si, 0, size());
  } else {
    const auto nbrs = model_->neighbors(i);
    const auto w = model_->weights(i);
    const std::int8_t* sg = sigma_.data();
    D* d = delta_data<D>();
    for (std::size_t t = 0; t < nbrs.size(); ++t) {
      const VarIndex k = nbrs[t];
      // Eq. 4: Delta_k(f_i(X)) = Delta_k(X) + W_{i,k} sigma(x_i) sigma(x_k).
      d[k] += D{w[t]} * (si * std::int32_t{sg[k]});
    }
  }
  finish_flip<D>(i, si);
}

void SearchState::flip(VarIndex i) {
  if (narrow_) {
    flip_impl<std::int32_t>(i);
  } else {
    flip_impl<Energy>(i);
  }
}

template <typename D>
ScanResult SearchState::finish_scan(Energy mn, Energy mx,
                                    std::size_t mn_block) {
  // The first-occurrence argmin lives in the first block that attained mn.
  const D* d = delta_data<D>();
  const std::size_t b1 = std::min(size(), mn_block + kScanBlock);
  VarIndex arg = 0;
  for (std::size_t k = mn_block; k < b1; ++k) {
    if (d[k] == mn) {
      arg = static_cast<VarIndex>(k);
      break;
    }
  }
  if (energy_ + mn < best_energy_) record_best_neighbor(arg, energy_ + mn);
  return {mn, mx, arg};
}

template <typename D>
ScanResult SearchState::scan_impl() {
  const std::size_t n = size();
  DABS_ASSERT(n > 0);
  Energy mn = std::numeric_limits<Energy>::max();
  Energy mx = std::numeric_limits<Energy>::min();
  std::size_t mn_block = 0;
  for (std::size_t b0 = 0; b0 < n; b0 += kScanBlock) {
    const std::size_t b1 = std::min(n, b0 + kScanBlock);
    Energy bmn, bmx;
    reduce_block<D>(b0, b1, bmn, bmx);
    if (bmn < mn) {
      mn = bmn;
      mn_block = b0;
    }
    mx = bmx > mx ? bmx : mx;
  }
  return finish_scan<D>(mn, mx, mn_block);
}

ScanResult SearchState::scan() {
  return narrow_ ? scan_impl<std::int32_t>() : scan_impl<Energy>();
}

template <typename D>
ScanResult SearchState::flip_and_scan_impl(VarIndex i) {
  if (!model_->has_dense_rows()) {
    // Sparse flips touch O(deg) scattered deltas; nothing to fuse.
    flip_impl<D>(i);
    return scan_impl<D>();
  }
  DABS_ASSERT(i < size());
  const std::size_t n = size();
  const std::int32_t si = sigma_[i];
  const Weight* row = model_->dense_row(i);
  // Eq. 5 and the X/E/BEST bookkeeping come first: row[i] == 0 means the
  // blocked Eq. 4 sweep below never touches Delta_i, so the reduction sees
  // every delta in its final state while it is still cache-hot.
  finish_flip<D>(i, si);
  Energy mn = std::numeric_limits<Energy>::max();
  Energy mx = std::numeric_limits<Energy>::min();
  std::size_t mn_block = 0;
  for (std::size_t b0 = 0; b0 < n; b0 += kScanBlock) {
    const std::size_t b1 = std::min(n, b0 + kScanBlock);
    dense_update_block<D>(row, si, b0, b1);
    Energy bmn, bmx;
    reduce_block<D>(b0, b1, bmn, bmx);
    if (bmn < mn) {
      mn = bmn;
      mn_block = b0;
    }
    mx = bmx > mx ? bmx : mx;
  }
  return finish_scan<D>(mn, mx, mn_block);
}

ScanResult SearchState::flip_and_scan(VarIndex i) {
  return narrow_ ? flip_and_scan_impl<std::int32_t>(i)
                 : flip_and_scan_impl<Energy>(i);
}

bool SearchState::is_local_minimum() const {
  const auto n = static_cast<VarIndex>(size());
  for (VarIndex k = 0; k < n; ++k) {
    if (delta(k) < 0) return false;
  }
  return true;
}

}  // namespace dabs
