#include "qubo/qubo_builder.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/assert.hpp"

namespace dabs {

namespace {

Weight checked_narrow(Energy w, const char* what, Weight lo) {
  DABS_CHECK(w >= lo && w <= std::numeric_limits<Weight>::max(),
             std::string("accumulated ") + what +
                 " coefficient overflows the int32 weight range");
  return static_cast<Weight>(w);
}

// Couplings are restricted to the *symmetric* range [-INT32_MAX, INT32_MAX]
// so the dense flip kernel may negate a weight branchlessly without risking
// int32 overflow on INT32_MIN.  Diagonals never enter that kernel (they
// reach Delta through Eqs. 3/5 in 64-bit) and keep the full int32 range.
constexpr Weight kQuadraticLo = -std::numeric_limits<Weight>::max();
constexpr Weight kLinearLo = std::numeric_limits<Weight>::min();

}  // namespace

QuboBuilder::QuboBuilder(std::size_t n) : diag_(n, 0) {
  DABS_CHECK(n > 0, "QUBO model needs at least one variable");
}

QuboBuilder& QuboBuilder::add_linear(VarIndex i, Weight w) {
  DABS_CHECK(i < size(), "variable index out of range");
  diag_[i] += w;
  return *this;
}

QuboBuilder& QuboBuilder::add_quadratic(VarIndex i, VarIndex j, Weight w) {
  DABS_CHECK(i < size() && j < size(), "variable index out of range");
  DABS_CHECK(i != j, "use add_linear for diagonal terms");
  if (i > j) std::swap(i, j);
  entries_.push_back({i, j, w});
  return *this;
}

QuboModel QuboBuilder::build() {
  // Coalesce duplicate (i, j) terms (64-bit accumulation).
  std::sort(entries_.begin(), entries_.end(),
            [](const Entry& a, const Entry& b) {
              return a.i != b.i ? a.i < b.i : a.j < b.j;
            });
  std::vector<Entry> edges;
  edges.reserve(entries_.size());
  for (const Entry& e : entries_) {
    if (!edges.empty() && edges.back().i == e.i && edges.back().j == e.j) {
      edges.back().w += e.w;
    } else {
      edges.push_back(e);
    }
  }
  std::erase_if(edges, [](const Entry& e) { return e.w == 0; });

  QuboModel m;
  const std::size_t n = diag_.size();
  m.diag_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    m.diag_[i] = checked_narrow(diag_[i], "linear", kLinearLo);
  }

  // Build symmetric CSR: each edge contributes to both endpoint rows.
  std::vector<std::size_t> deg(n, 0);
  for (const Entry& e : edges) {
    ++deg[e.i];
    ++deg[e.j];
  }
  m.row_ptr_.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    m.row_ptr_[i + 1] = m.row_ptr_[i] + deg[i];
  }
  m.col_.resize(2 * edges.size());
  m.val_.resize(2 * edges.size());

  std::vector<std::size_t> cursor(m.row_ptr_.begin(), m.row_ptr_.end() - 1);
  for (const Entry& e : edges) {
    const Weight w = checked_narrow(e.w, "quadratic", kQuadraticLo);
    m.col_[cursor[e.i]] = e.j;
    m.val_[cursor[e.i]++] = w;
    m.col_[cursor[e.j]] = e.i;
    m.val_[cursor[e.j]++] = w;
  }
  m.max_degree_ = deg.empty() ? 0 : *std::max_element(deg.begin(), deg.end());
  for (VarIndex i = 0; i < n; ++i) {
    m.delta_bound_ = std::max(m.delta_bound_,
                              static_cast<std::uint64_t>(m.flip_bound(i)));
  }

  // Resolve the kernel backend and, when dense, materialize the row-major
  // matrix the flip kernel streams (diagonal slots stay zero; the diagonal
  // lives in diag_ and enters Delta via Eq. 5, not the row walk).
  // Overflow-safe test for n * n * sizeof(Weight) <= kDenseMaxBytes.
  const bool fits = n <= QuboModel::kDenseMaxBytes / sizeof(Weight) / n;
  QuboBackend resolved = backend_;
  if (resolved == QuboBackend::kAuto) {
    resolved = (fits && m.density() >= QuboModel::kDenseDensityThreshold)
                   ? QuboBackend::kDense
                   : QuboBackend::kCsr;
  }
  DABS_CHECK(resolved != QuboBackend::kDense || fits,
             "dense backend requested but the n x n matrix exceeds "
             "QuboModel::kDenseMaxBytes");
  m.backend_ = resolved;
  if (resolved == QuboBackend::kDense) {
    m.dense_.assign(n * n, 0);
    for (const Entry& e : edges) {
      const Weight w = static_cast<Weight>(e.w);  // narrowing checked above
      m.dense_[std::size_t{e.i} * n + e.j] = w;
      m.dense_[std::size_t{e.j} * n + e.i] = w;
    }
  }

  entries_.clear();
  diag_.clear();
  backend_ = QuboBackend::kAuto;
  return m;
}

}  // namespace dabs
