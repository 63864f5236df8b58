// Tests for the seven search algorithms and the tabu rule (paper §III-A).
#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <string>
#include <vector>

#include "qubo/search_state.hpp"
#include "search/cyclicmin.hpp"
#include "search/greedy.hpp"
#include "search/maxmin.hpp"
#include "search/positivemin.hpp"
#include "search/randommin.hpp"
#include "search/registry.hpp"
#include "search/straight.hpp"
#include "search/tabu_list.hpp"
#include "search/two_neighbor.hpp"
#include "test_helpers.hpp"

namespace dabs {
namespace {

using testing::random_model;
using testing::random_solution;

TEST(TabuList, DisabledTenureAllowsEverything) {
  TabuList t(10, 0);
  t.record(3, 5);
  EXPECT_TRUE(t.allowed(3, 5));
  EXPECT_TRUE(t.allowed(3, 6));
}

TEST(TabuList, BlocksForExactlyTenureIterations) {
  TabuList t(10, 8);  // the paper's tenure
  t.record(4, 100);
  for (std::uint64_t now = 101; now <= 108; ++now) {
    EXPECT_FALSE(t.allowed(4, now)) << now;
  }
  EXPECT_TRUE(t.allowed(4, 109));
}

TEST(TabuList, FreshBitsAreAllowed) {
  TabuList t(5, 8);
  for (VarIndex i = 0; i < 5; ++i) EXPECT_TRUE(t.allowed(i, 0));
}

TEST(TabuList, ClearForgetsHistory) {
  TabuList t(5, 8);
  t.record(1, 50);
  EXPECT_FALSE(t.allowed(1, 51));
  t.clear();
  EXPECT_TRUE(t.allowed(1, 51));
}

TEST(Greedy, TerminatesAtLocalMinimum) {
  const QuboModel m = random_model(50, 0.3, 9, 1000);
  SearchState s(m);
  Rng rng(1);
  s.reset_to(random_solution(50, rng));
  greedy_descent(s);
  EXPECT_TRUE(s.is_local_minimum());
}

TEST(Greedy, EveryFlipStrictlyImproves) {
  const QuboModel m = random_model(40, 0.5, 9, 1001);
  SearchState s(m);
  Rng rng(2);
  s.reset_to(random_solution(40, rng));
  Energy prev = s.energy();
  while (!s.is_local_minimum()) {
    greedy_descent(s, 1);
    EXPECT_LT(s.energy(), prev);
    prev = s.energy();
  }
}

TEST(Greedy, MaxFlipsRespected) {
  const QuboModel m = random_model(60, 0.5, 9, 1002);
  SearchState s(m);
  Rng rng(3);
  s.reset_to(random_solution(60, rng));
  const std::uint64_t done = greedy_descent(s, 2);
  EXPECT_LE(done, 2u);
}

TEST(Straight, ReachesTargetInHammingDistanceFlips) {
  const QuboModel m = random_model(64, 0.4, 9, 1003);
  SearchState s(m);
  Rng rng(4);
  s.reset_to(random_solution(64, rng));
  const BitVector target = random_solution(64, rng);
  const std::size_t dist = s.solution().hamming_distance(target);
  const std::uint64_t flips = straight_walk(s, target);
  EXPECT_EQ(flips, dist);
  EXPECT_EQ(s.solution(), target);
}

TEST(Straight, NoopWhenAlreadyAtTarget) {
  const QuboModel m = random_model(20, 0.5, 9, 1004);
  SearchState s(m);
  Rng rng(5);
  const BitVector x = random_solution(20, rng);
  s.reset_to(x);
  EXPECT_EQ(straight_walk(s, x), 0u);
  EXPECT_EQ(s.solution(), x);
}

TEST(Straight, BestCoversPathMinimum) {
  // The walk's BEST must be at least as good as every point it visited.
  const QuboModel m = random_model(32, 0.6, 9, 1005);
  SearchState probe(m);
  Rng rng(6);
  const BitVector start = random_solution(32, rng);
  const BitVector target = random_solution(32, rng);
  probe.reset_to(start);
  straight_walk(probe, target);
  EXPECT_LE(probe.best_energy(), m.energy(start));
  EXPECT_LE(probe.best_energy(), m.energy(target));
}

// Reference walk, O(n) per step: scan every bit and keep the first strict
// minimum among those still differing from the target.
std::vector<VarIndex> reference_walk(SearchState& state,
                                     const BitVector& target) {
  std::vector<VarIndex> flipped;
  const auto n = static_cast<VarIndex>(state.size());
  state.scan();
  for (;;) {
    Energy diff_min = std::numeric_limits<Energy>::max();
    VarIndex diff_arg = n;
    for (VarIndex k = 0; k < n; ++k) {
      if (state.solution().get(k) != target.get(k) &&
          state.delta(k) < diff_min) {
        diff_min = state.delta(k);
        diff_arg = k;
      }
    }
    if (diff_arg == n) return flipped;
    state.flip_and_scan(diff_arg);
    flipped.push_back(diff_arg);
  }
}

class StraightBackend : public ::testing::TestWithParam<QuboBackend> {};

TEST_P(StraightBackend, WordWiseWalkMatchesReferenceWalk) {
  // n = 130 leaves a 2-bit tail word; small weights make Delta ties
  // common, so the lowest-index tie-break is exercised.
  constexpr std::size_t kN = 130;
  const QuboModel m = random_model(kN, 0.5, 3, 1010, GetParam());
  Rng rng(11);
  SearchState walked(m);
  SearchState reference(m);
  for (int trial = 0; trial < 20; ++trial) {
    const BitVector start = random_solution(kN, rng);
    const BitVector target = random_solution(kN, rng);
    walked.reset_to(start);
    reference.reset_to(start);
    std::vector<VarIndex> flipped;
    const std::uint64_t flips = straight_walk(walked, target, &flipped);
    const std::vector<VarIndex> expected = reference_walk(reference, target);
    ASSERT_EQ(flipped, expected) << "trial " << trial;
    EXPECT_EQ(flips, expected.size());
    EXPECT_EQ(walked.solution(), target);
    EXPECT_EQ(walked.best(), reference.best());
    EXPECT_EQ(walked.best_energy(), reference.best_energy());
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, StraightBackend,
                         ::testing::Values(QuboBackend::kCsr,
                                           QuboBackend::kDense));

// All iteration-driven algorithms must perform exactly the requested number
// of flips and leave the state internally consistent.
class MainSearchProperty : public ::testing::TestWithParam<MainSearch> {};

TEST_P(MainSearchProperty, PerformsRequestedFlips) {
  const MainSearch id = GetParam();
  const QuboModel m = random_model(48, 0.4, 9, 1006);
  SearchState s(m);
  Rng rng(7);
  s.reset_to(random_solution(48, rng));
  TabuList tabu(48, 8);
  auto algo = make_search_algorithm(id);
  const std::uint64_t before = s.flip_count();
  algo->run(s, rng, &tabu, 100);
  if (id == MainSearch::kTwoNeighbor) {
    EXPECT_EQ(s.flip_count() - before, 2u * 48 - 1);  // fixed ripple
  } else {
    EXPECT_EQ(s.flip_count() - before, 100u);
  }
}

TEST_P(MainSearchProperty, StateStaysConsistent) {
  const MainSearch id = GetParam();
  const QuboModel m = random_model(30, 0.5, 9, 1007);
  SearchState s(m);
  Rng rng(8);
  s.reset_to(random_solution(30, rng));
  auto algo = make_search_algorithm(id);
  algo->run(s, rng, nullptr, 64);
  EXPECT_EQ(s.energy(), m.energy(s.solution()));
  std::vector<Energy> fresh;
  m.delta_all(s.solution(), fresh);
  for (VarIndex k = 0; k < m.size(); ++k) EXPECT_EQ(s.delta(k), fresh[k]);
}

TEST_P(MainSearchProperty, BestNeverWorseThanStart) {
  const MainSearch id = GetParam();
  const QuboModel m = random_model(36, 0.5, 9, 1008);
  SearchState s(m);
  Rng rng(9);
  const BitVector start = random_solution(36, rng);
  s.reset_to(start);
  auto algo = make_search_algorithm(id);
  algo->run(s, rng, nullptr, 80);
  EXPECT_LE(s.best_energy(), m.energy(start));
  EXPECT_EQ(m.energy(s.best()), s.best_energy());
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, MainSearchProperty,
                         ::testing::ValuesIn(kAllMainSearches),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(TwoNeighbor, CoversAllTwoBitNeighbors) {
  // After the ripple, BEST must be <= the best solution within Hamming
  // distance 2 of the start vector.
  const QuboModel m = random_model(14, 0.6, 9, 1009);
  SearchState s(m);
  Rng rng(10);
  const BitVector start = random_solution(14, rng);
  s.reset_to(start);
  TwoNeighborSearch tn;
  tn.run(s, rng, nullptr, 0);

  Energy best2 = m.energy(start);
  for (VarIndex i = 0; i < 14; ++i) {
    BitVector x1 = start;
    x1.flip(i);
    best2 = std::min(best2, m.energy(x1));
    for (VarIndex j = i + 1; j < 14; ++j) {
      BitVector x2 = x1;
      x2.flip(j);
      best2 = std::min(best2, m.energy(x2));
    }
  }
  EXPECT_LE(s.best_energy(), best2);
}

TEST(TwoNeighbor, EndsOneFlipFromStart) {
  // The ripple ends at ...0001-pattern: exactly bit n-1 flipped.
  const QuboModel m = random_model(10, 0.5, 9, 1010);
  SearchState s(m);
  Rng rng(11);
  const BitVector start = random_solution(10, rng);
  s.reset_to(start);
  TwoNeighborSearch tn;
  tn.run(s, rng, nullptr, 0);
  EXPECT_EQ(s.solution().hamming_distance(start), 1u);
  EXPECT_NE(s.solution().get(9), start.get(9));
}

TEST(CyclicMin, PermanentTabuForcesAllDistinctFlips) {
  const QuboModel m = random_model(12, 0.5, 9, 1012);
  SearchState s(m);
  Rng rng(13);
  const BitVector start = random_solution(12, rng);
  s.reset_to(start);
  TabuList tabu(12, 100000);
  CyclicMinSearch cm(12);
  cm.run(s, rng, &tabu, 12);
  // Every bit flipped exactly once -> Hamming distance n from the start.
  EXPECT_EQ(s.solution().hamming_distance(start), 12u);
}

TEST(CyclicMin, WindowPositionAdvances) {
  const QuboModel m = random_model(20, 0.5, 9, 1013);
  SearchState s(m);
  Rng rng(14);
  s.reset_to(random_solution(20, rng));
  CyclicMinSearch cm(4);
  const std::size_t before = cm.window_position();
  cm.run(s, rng, nullptr, 3);
  EXPECT_NE(cm.window_position(), before);
}

TEST(MaxMin, LateIterationsAreNearlyGreedy) {
  // In the final iteration u = 0, so the threshold collapses to minDelta
  // and the flipped bit must attain it.
  const QuboModel m = random_model(24, 0.5, 9, 1014);
  SearchState s(m);
  Rng rng(15);
  s.reset_to(random_solution(24, rng));
  MaxMinSearch mm;
  // Run exactly one iteration with T = 1: t = T = 1, u = 0, d = minDelta.
  const Energy e_before = s.energy();
  const Energy expected_min = s.scan().min_delta;
  mm.run(s, rng, nullptr, 1);
  EXPECT_EQ(s.energy(), e_before + expected_min);
}

TEST(PositiveMin, FlipsOnlyCandidateBits) {
  // Every flip must have Delta <= posmin (the cheapest strictly positive
  // Delta) at the time of the flip.  Verify via energy bound: a single
  // iteration can never increase E by more than the current posmin.
  const QuboModel m = random_model(28, 0.5, 9, 1015);
  SearchState s(m);
  Rng rng(16);
  s.reset_to(random_solution(28, rng));
  PositiveMinSearch pm;
  for (int it = 0; it < 50; ++it) {
    Energy posmin = std::numeric_limits<Energy>::max();
    for (VarIndex k = 0; k < 28; ++k) {
      const Energy d = s.delta(k);
      if (d > 0 && d < posmin) posmin = d;
    }
    const Energy before = s.energy();
    pm.run(s, rng, nullptr, 1);
    if (posmin != std::numeric_limits<Energy>::max()) {
      EXPECT_LE(s.energy() - before, posmin);
    }
  }
}

TEST(RandomMin, WithFullProbabilityActsGreedy) {
  // min_candidates >= n forces p(t) = 1: every bit is a candidate, so the
  // flip must attain the global minimum Delta.
  const QuboModel m = random_model(26, 0.5, 9, 1016);
  SearchState s(m);
  Rng rng(17);
  s.reset_to(random_solution(26, rng));
  RandomMinSearch rm(26);
  const Energy e = s.energy();
  const Energy mn = s.scan().min_delta;
  rm.run(s, rng, nullptr, 1);
  EXPECT_EQ(s.energy(), e + mn);
}

TEST(Registry, NamesAreUniqueAndStable) {
  std::set<std::string_view> names;
  for (const MainSearch a : kAllMainSearches) {
    names.insert(to_string(a));
  }
  EXPECT_EQ(names.size(), kMainSearchCount);
  EXPECT_EQ(to_string(MainSearch::kCyclicMin), "CyclicMin");
}

TEST(Registry, FactoryProducesEveryAlgorithm) {
  for (const MainSearch a : kAllMainSearches) {
    EXPECT_NE(make_search_algorithm(a), nullptr);
  }
}

}  // namespace
}  // namespace dabs
