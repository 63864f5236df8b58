// Reproducibility sweep: every main search algorithm, genetic operation,
// and the full synchronous solver must be bit-identical given the same
// seed — the property the virtual-device substrate guarantees and the
// paper's GPU implementation (per-thread Xorshift streams) aims for.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "core/dabs_solver.hpp"
#include "qubo/search_state.hpp"
#include "search/registry.hpp"
#include "test_helpers.hpp"

namespace dabs {
namespace {

using testing::random_model;
using testing::random_solution;

class AlgorithmDeterminism : public ::testing::TestWithParam<MainSearch> {};

TEST_P(AlgorithmDeterminism, IdenticalSeedsIdenticalWalks) {
  const QuboModel m = random_model(36, 0.5, 9, 11000);
  Rng seed_rng(1);
  const BitVector start = random_solution(36, seed_rng);

  SearchState sa(m), sb(m);
  sa.reset_to(start);
  sb.reset_to(start);
  Rng ra(777), rb(777);
  TabuList ta(36, 8), tb(36, 8);
  auto algo_a = make_search_algorithm(GetParam());
  auto algo_b = make_search_algorithm(GetParam());
  algo_a->run(sa, ra, &ta, 120);
  algo_b->run(sb, rb, &tb, 120);
  EXPECT_EQ(sa.solution(), sb.solution());
  EXPECT_EQ(sa.energy(), sb.energy());
  EXPECT_EQ(sa.best(), sb.best());
  EXPECT_EQ(sa.best_energy(), sb.best_energy());
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, AlgorithmDeterminism,
                         ::testing::ValuesIn(kAllMainSearches),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

class SolverDeterminism : public ::testing::TestWithParam<MainSearch> {};

TEST_P(SolverDeterminism, SingleAlgorithmConfigIsReproducible) {
  const QuboModel m = random_model(24, 0.5, 9, 11001);
  SolverConfig c;
  c.devices = 2;
  c.device.blocks = 2;
  c.mode = ExecutionMode::kSynchronous;
  c.algorithms = {GetParam()};
  c.stop.max_batches = 40;
  c.seed = 314159;
  const SolveResult a = DabsSolver(c).solve(m);
  const SolveResult b = DabsSolver(c).solve(m);
  EXPECT_EQ(a.best_energy, b.best_energy);
  EXPECT_EQ(a.best_solution, b.best_solution);
  EXPECT_EQ(a.stats.op_executed, b.stats.op_executed);
  EXPECT_EQ(a.stats.improvements.size(), b.stats.improvements.size());
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, SolverDeterminism,
                         ::testing::ValuesIn(kAllMainSearches),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(SolverDeterminismMisc, SynchronousSolveResultBitIdentical64Var) {
  // Full adaptive portfolio (every algorithm, every genetic op) on a
  // 64-variable random model: two synchronous runs with the same seed must
  // agree on every field of SolveResult, not just the best energy.
  const QuboModel m = random_model(64, 0.3, 9, 11004);
  SolverConfig c;
  c.devices = 3;
  c.device.blocks = 2;
  c.mode = ExecutionMode::kSynchronous;
  c.stop.max_batches = 120;
  c.seed = 0xD1CED1CE;
  const SolveResult a = DabsSolver(c).solve(m);
  const SolveResult b = DabsSolver(c).solve(m);
  EXPECT_EQ(a.best_energy, b.best_energy);
  EXPECT_EQ(a.best_solution, b.best_solution);
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.restarts, b.restarts);
  EXPECT_EQ(a.reached_target, b.reached_target);
  EXPECT_EQ(a.stats.algo_executed, b.stats.algo_executed);
  EXPECT_EQ(a.stats.op_executed, b.stats.op_executed);
  EXPECT_EQ(a.stats.improvements.size(), b.stats.improvements.size());
  EXPECT_EQ(m.energy(a.best_solution), a.best_energy);
}

TEST(SolverDeterminismMisc, WarmStartDoesNotBreakReproducibility) {
  const QuboModel m = random_model(20, 0.5, 9, 11002);
  Rng rng(5);
  SolverConfig c;
  c.devices = 2;
  c.device.blocks = 1;
  c.mode = ExecutionMode::kSynchronous;
  c.warm_start = {random_solution(20, rng), random_solution(20, rng)};
  c.stop.max_batches = 30;
  const SolveResult a = DabsSolver(c).solve(m);
  const SolveResult b = DabsSolver(c).solve(m);
  EXPECT_EQ(a.best_energy, b.best_energy);
  EXPECT_EQ(a.best_solution, b.best_solution);
}

TEST(SolverDeterminismMisc, DeviceAndBlockCountChangeTheWalkNotValidity) {
  const QuboModel m = random_model(20, 0.5, 9, 11003);
  for (const std::size_t devices : {1u, 2u, 3u}) {
    for (const std::uint32_t blocks : {1u, 2u}) {
      SolverConfig c;
      c.devices = devices;
      c.device.blocks = blocks;
      c.mode = ExecutionMode::kSynchronous;
      c.stop.max_batches = 30;
      const SolveResult r = DabsSolver(c).solve(m);
      EXPECT_EQ(m.energy(r.best_solution), r.best_energy)
          << devices << "x" << blocks;
    }
  }
}

/// FNV-1a over the solution bits: a compact fingerprint of best_solution.
std::uint64_t solution_hash(const BitVector& x) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < x.size(); ++i) {
    h = (h ^ (x.get(i) ? 1u : 0u)) * 0x100000001b3ULL;
  }
  return h;
}

// Golden fingerprints: values recorded from the synchronous trajectory and
// pinned here, so a change to the solve loop that alters the walk (RNG draw
// order, block round-robin, merge-check cadence) fails across commits, not
// only between two runs of the same build.
TEST(SolverDeterminismGolden, SynchronousFingerprint64Var) {
  const QuboModel m = random_model(64, 0.3, 9, 11004);
  SolverConfig c;
  c.devices = 3;
  c.device.blocks = 2;
  c.mode = ExecutionMode::kSynchronous;
  c.stop.max_batches = 120;
  c.seed = 0xD1CED1CE;
  const SolveResult r = DabsSolver(c).solve(m);
  EXPECT_EQ(r.best_energy, -416);
  EXPECT_EQ(r.batches, 120u);
  EXPECT_EQ(r.restarts, 0u);
  EXPECT_EQ(solution_hash(r.best_solution), 2643378358876355841ull);
  EXPECT_EQ(r.stats.algo_executed,
            (std::array<std::uint64_t, kMainSearchCount>{27, 18, 20, 32, 23}));
  EXPECT_EQ(r.stats.op_executed,
            (std::array<std::uint64_t, kGeneticOpCount>{17, 12, 16, 14, 6, 9,
                                                        18, 28, 0}));
}

TEST(SolverDeterminismGolden, SynchronousWarmStartFingerprint) {
  const QuboModel m = random_model(24, 0.5, 9, 11005);
  Rng rng(7);
  SolverConfig c;
  c.devices = 2;
  c.device.blocks = 2;
  c.mode = ExecutionMode::kSynchronous;
  c.warm_start = {random_solution(24, rng), random_solution(24, rng),
                  random_solution(24, rng)};
  c.stop.max_batches = 400;
  c.seed = 0xA11CE;
  const SolveResult r = DabsSolver(c).solve(m);
  EXPECT_EQ(r.best_energy, -93);
  EXPECT_EQ(r.batches, 400u);
  EXPECT_EQ(r.restarts, 3u);
  EXPECT_EQ(solution_hash(r.best_solution), 12905555987772229362ull);
  EXPECT_EQ(r.stats.algo_executed,
            (std::array<std::uint64_t, kMainSearchCount>{102, 79, 69, 78, 72}));
  EXPECT_EQ(r.stats.op_executed,
            (std::array<std::uint64_t, kGeneticOpCount>{41, 41, 70, 34, 45,
                                                        50, 63, 56, 0}));
}

}  // namespace
}  // namespace dabs
