// Property tests for the incremental SearchState: after any flip sequence,
// E(X) and every Delta_k(X) must equal a fresh full recomputation (Eqs.
// 3-5), and BEST must dominate everything the scans have seen.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <tuple>

#include "qubo/qubo_builder.hpp"
#include "qubo/search_state.hpp"
#include "test_helpers.hpp"

namespace dabs {
namespace {

using testing::naive_energy;
using testing::random_model;
using testing::random_solution;

void expect_consistent(const SearchState& s) {
  const QuboModel& m = s.model();
  EXPECT_EQ(s.energy(), m.energy(s.solution()));
  std::vector<Energy> fresh;
  m.delta_all(s.solution(), fresh);
  for (VarIndex k = 0; k < m.size(); ++k) {
    ASSERT_EQ(s.delta(k), fresh[k]) << "k=" << k;
  }
}

TEST(SearchState, StartsAtZeroVector) {
  const QuboModel m = random_model(12, 0.5, 5, 1);
  SearchState s(m);
  EXPECT_EQ(s.energy(), 0);
  EXPECT_EQ(s.solution().count(), 0u);
  for (VarIndex k = 0; k < m.size(); ++k) {
    EXPECT_EQ(s.delta(k), m.diag(k));  // Delta_k of the zero vector
  }
  EXPECT_EQ(s.flip_count(), 0u);
}

class SearchStateProperty
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(SearchStateProperty, RandomWalkStaysConsistent) {
  const auto [n, density] = GetParam();
  const QuboModel m = random_model(n, density, 9, 400 + n);
  SearchState s(m);
  Rng rng(n * 13 + 7);
  for (int step = 0; step < 200; ++step) {
    s.flip(static_cast<VarIndex>(rng.next_index(n)));
  }
  expect_consistent(s);
  EXPECT_EQ(s.flip_count(), 200u);
}

TEST_P(SearchStateProperty, ResetToArbitraryVector) {
  const auto [n, density] = GetParam();
  const QuboModel m = random_model(n, density, 9, 500 + n);
  SearchState s(m);
  Rng rng(n * 17 + 3);
  s.reset_to(random_solution(n, rng));
  expect_consistent(s);
  EXPECT_EQ(s.flip_count(), 0u);
  // Walk again after the reset.
  for (int step = 0; step < 50; ++step) {
    s.flip(static_cast<VarIndex>(rng.next_index(n)));
  }
  expect_consistent(s);
}

TEST_P(SearchStateProperty, DoubleFlipNegatesDelta) {
  // Eq. 5: Delta_k(f_k(X)) = -Delta_k(X).
  const auto [n, density] = GetParam();
  const QuboModel m = random_model(n, density, 9, 600 + n);
  SearchState s(m);
  Rng rng(n * 19 + 11);
  s.reset_to(random_solution(n, rng));
  for (VarIndex k = 0; k < m.size(); ++k) {
    const Energy before = s.delta(k);
    s.flip(k);
    EXPECT_EQ(s.delta(k), -before);
    s.flip(k);  // restore
    EXPECT_EQ(s.delta(k), before);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SearchStateProperty,
    ::testing::Combine(::testing::Values(2, 5, 16, 33, 64, 100),
                       ::testing::Values(0.1, 0.5, 1.0)));

TEST(SearchState, Eq4CrossUpdate) {
  // Delta_k(f_i(X)) - Delta_k(X) = W_{i,k} sigma(x_i) sigma(x_k), i != k.
  const QuboModel m = random_model(20, 0.7, 9, 77);
  SearchState s(m);
  Rng rng(123);
  s.reset_to(random_solution(20, rng));
  for (int trial = 0; trial < 40; ++trial) {
    const auto i = static_cast<VarIndex>(rng.next_index(20));
    const auto& x = s.solution();
    std::vector<Energy> before(20);
    for (VarIndex k = 0; k < 20; ++k) before[k] = s.delta(k);
    std::vector<int> sig(20);
    for (VarIndex k = 0; k < 20; ++k) sig[k] = sigma(x.get(k));
    s.flip(i);
    for (VarIndex k = 0; k < 20; ++k) {
      if (k == i) continue;
      EXPECT_EQ(s.delta(k) - before[k],
                Energy{m.weight(i, k)} * sig[i] * sig[k]);
    }
  }
}

TEST(SearchState, EnergyUpdatesByDelta) {
  const QuboModel m = random_model(15, 0.6, 9, 88);
  SearchState s(m);
  Rng rng(5);
  s.reset_to(random_solution(15, rng));
  for (int trial = 0; trial < 60; ++trial) {
    const auto i = static_cast<VarIndex>(rng.next_index(15));
    const Energy e = s.energy();
    const Energy d = s.delta(i);
    s.flip(i);
    EXPECT_EQ(s.energy(), e + d);
  }
}

TEST(SearchState, ScanFindsTrueMinMax) {
  const QuboModel m = random_model(40, 0.4, 9, 99);
  SearchState s(m);
  Rng rng(6);
  s.reset_to(random_solution(40, rng));
  const ScanResult r = s.scan();
  Energy mn = s.delta(0), mx = s.delta(0);
  for (VarIndex k = 1; k < 40; ++k) {
    mn = std::min(mn, s.delta(k));
    mx = std::max(mx, s.delta(k));
  }
  EXPECT_EQ(r.min_delta, mn);
  EXPECT_EQ(r.max_delta, mx);
  EXPECT_EQ(s.delta(r.argmin), mn);
}

TEST(SearchState, ScanRecordsBestOneBitNeighbor) {
  const QuboModel m = random_model(25, 0.5, 9, 111);
  SearchState s(m);
  Rng rng(7);
  s.reset_to(random_solution(25, rng));
  const Energy e0 = s.energy();
  const ScanResult r = s.scan();
  if (r.min_delta < 0) {
    // BEST must now be the argmin neighbor, without X having moved.
    EXPECT_EQ(s.best_energy(), e0 + r.min_delta);
    EXPECT_EQ(s.energy(), e0);
    EXPECT_EQ(s.best().hamming_distance(s.solution()), 1u);
    EXPECT_EQ(m.energy(s.best()), s.best_energy());
  } else {
    EXPECT_EQ(s.best_energy(), e0);
  }
}

TEST(SearchState, BestTracksVisitedSolutions) {
  const QuboModel m = random_model(30, 0.5, 9, 222);
  SearchState s(m);
  Rng rng(8);
  s.reset_to(random_solution(30, rng));
  Energy lowest_seen = s.energy();
  for (int step = 0; step < 100; ++step) {
    s.flip(static_cast<VarIndex>(rng.next_index(30)));
    lowest_seen = std::min(lowest_seen, s.energy());
  }
  EXPECT_LE(s.best_energy(), lowest_seen);
  EXPECT_EQ(m.energy(s.best()), s.best_energy());
}

TEST(SearchState, ResetBestAnchorsAtCurrent) {
  const QuboModel m = random_model(10, 0.8, 9, 333);
  SearchState s(m);
  Rng rng(9);
  s.reset_to(random_solution(10, rng));
  for (int step = 0; step < 20; ++step) {
    s.flip(static_cast<VarIndex>(rng.next_index(10)));
  }
  s.reset_best();
  EXPECT_EQ(s.best_energy(), s.energy());
  EXPECT_EQ(s.best(), s.solution());
}

TEST(SearchState, IsLocalMinimumMatchesDefinition) {
  const QuboModel m = random_model(18, 0.5, 9, 444);
  SearchState s(m);
  Rng rng(10);
  s.reset_to(random_solution(18, rng));
  // Drive to a local minimum by always flipping the argmin while negative.
  for (;;) {
    const ScanResult r = s.scan();
    if (r.min_delta >= 0) break;
    s.flip(r.argmin);
  }
  EXPECT_TRUE(s.is_local_minimum());
  // Verify against brute force: no 1-bit neighbor is better.
  for (VarIndex k = 0; k < 18; ++k) {
    BitVector fx = s.solution();
    fx.flip(k);
    EXPECT_GE(m.energy(fx), s.energy());
  }
}

TEST(SearchState, ResetReturnsToZeroVector) {
  const QuboModel m = random_model(22, 0.5, 9, 555);
  SearchState s(m);
  Rng rng(11);
  s.reset_to(random_solution(22, rng));
  s.flip(3);
  s.reset();
  EXPECT_EQ(s.energy(), 0);
  EXPECT_EQ(s.solution().count(), 0u);
  EXPECT_EQ(s.flip_count(), 0u);
  expect_consistent(s);
}

// Delta storage width.  The int32 path is taken exactly when
// QuboModel::delta_bound() <= INT32_MAX; both paths must stay exact.

/// Random flips, fused flip+scans and a reset, checked against a full
/// recomputation after every step.
void walk_and_check(SearchState& s, std::uint64_t seed) {
  const auto n = s.size();
  Rng rng(seed);
  s.reset_to(random_solution(n, rng));
  expect_consistent(s);
  for (int step = 0; step < 60; ++step) {
    const auto i = static_cast<VarIndex>(rng.next_index(n));
    if (step % 2 == 0) {
      s.flip(i);
    } else {
      const ScanResult r = s.flip_and_scan(i);
      Energy mn = s.delta(0), mx = s.delta(0);
      for (VarIndex k = 1; k < n; ++k) {
        mn = std::min(mn, s.delta(k));
        mx = std::max(mx, s.delta(k));
      }
      EXPECT_EQ(r.min_delta, mn);
      EXPECT_EQ(r.max_delta, mx);
      EXPECT_EQ(s.delta(r.argmin), mn);
    }
    expect_consistent(s);
  }
}

class SearchStateWidth : public ::testing::TestWithParam<QuboBackend> {};

TEST_P(SearchStateWidth, Int64DeltaPathIsExact) {
  // Weights near 2^29 on 16 variables push the bound past int32.
  const QuboModel m = random_model(16, 1.0, 1 << 29, 45, GetParam());
  ASSERT_GT(m.delta_bound(),
            std::uint64_t{std::numeric_limits<std::int32_t>::max()});
  SearchState s(m);
  EXPECT_EQ(s.delta_width(), 8u);
  walk_and_check(s, 46);
}

TEST_P(SearchStateWidth, BoundAtInt32MaxTakesTheInt32Path) {
  // Rows 0, 1 and 2 sum to exactly INT32_MAX in absolute value, so
  // Delta_0 reaches +-INT32_MAX when x1 = x2 = 1.
  constexpr Weight kHalf = Weight{1} << 30;
  QuboBuilder b(4);
  b.set_backend(GetParam());
  b.add_linear(0, 1);
  b.add_quadratic(0, 1, kHalf);
  b.add_quadratic(0, 2, kHalf - 2);
  b.add_quadratic(1, 2, -(kHalf - 1));
  b.add_linear(3, -5);
  b.add_quadratic(2, 3, 2);
  const QuboModel m = b.build();
  ASSERT_EQ(m.delta_bound(),
            std::uint64_t{std::numeric_limits<std::int32_t>::max()});
  SearchState s(m);
  EXPECT_EQ(s.delta_width(), 4u);
  walk_and_check(s, 47);

  BitVector x(4);
  x.set(1, true);
  x.set(2, true);
  s.reset_to(x);
  EXPECT_EQ(s.delta(0), Energy{std::numeric_limits<std::int32_t>::max()});
  s.flip(0);
  EXPECT_EQ(s.delta(0), -Energy{std::numeric_limits<std::int32_t>::max()});
  expect_consistent(s);
}

TEST(SearchState, PlusMinusOneMaxCutUsesInt32Deltas) {
  const QuboModel m = random_model(64, 0.5, 1, 48, QuboBackend::kDense);
  EXPECT_EQ(SearchState(m).delta_width(), 4u);
}

INSTANTIATE_TEST_SUITE_P(Backends, SearchStateWidth,
                         ::testing::Values(QuboBackend::kCsr,
                                           QuboBackend::kDense));

}  // namespace
}  // namespace dabs
