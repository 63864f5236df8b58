// Tests for the DABS orchestration: stop conditions, statistics, restricted
// diversity, determinism, and correctness against exhaustive optima.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "baseline/abs_solver.hpp"
#include "baseline/exhaustive.hpp"
#include "core/dabs_solver.hpp"
#include "test_helpers.hpp"

namespace dabs {
namespace {

using testing::random_model;

SolverConfig quick_config() {
  SolverConfig c;
  c.devices = 2;
  c.device.blocks = 2;
  c.device.batch.search_flip_factor = 0.2;
  c.device.batch.batch_flip_factor = 0.5;
  c.pool_capacity = 10;
  c.mode = ExecutionMode::kSynchronous;
  c.stop.max_batches = 200;
  return c;
}

TEST(SolverConfig, ValidateRejectsUnboundedRuns) {
  // An unbounded stop is legal at configuration time (a SolveRequest may
  // supply the budget later) but a run must be bounded when it starts.
  const QuboModel m = random_model(8, 0.5, 9, 3999);
  SolverConfig c = quick_config();
  c.stop = {};
  DabsSolver solver{c};  // construction is configuration: no throw
  EXPECT_THROW((void)solver.solve(m), std::invalid_argument);
  SolveRequest req;
  req.model = &m;
  EXPECT_THROW((void)solver.solve(req), std::invalid_argument);
  req.stop.max_batches = 10;
  EXPECT_NO_THROW((void)solver.solve(req));
}

TEST(SolverConfig, ValidateRejectsNonsense) {
  SolverConfig c = quick_config();
  c.devices = 0;
  EXPECT_THROW(DabsSolver{c}, std::invalid_argument);
  c = quick_config();
  c.algorithms.clear();
  EXPECT_THROW(DabsSolver{c}, std::invalid_argument);
  c = quick_config();
  c.explore_prob = 1.5;
  EXPECT_THROW(DabsSolver{c}, std::invalid_argument);
}

TEST(DabsSolver, FindsExhaustiveOptimumOnSmallModel) {
  const QuboModel m = random_model(18, 0.5, 9, 4000);
  const BaselineResult truth = ExhaustiveSolver().solve(m);

  SolverConfig c = quick_config();
  c.stop.max_batches = 400;
  c.stop.target_energy = truth.best_energy;
  DabsSolver solver(c);
  const SolveResult r = solver.solve(m);
  EXPECT_TRUE(r.reached_target);
  EXPECT_EQ(r.best_energy, truth.best_energy);
  EXPECT_EQ(m.energy(r.best_solution), r.best_energy);
}

TEST(DabsSolver, MaxBatchesStopsTheRun) {
  const QuboModel m = random_model(30, 0.5, 9, 4001);
  SolverConfig c = quick_config();
  c.stop.max_batches = 50;
  const SolveResult r = DabsSolver(c).solve(m);
  EXPECT_GE(r.batches, 50u);
  EXPECT_LE(r.batches, 50u + c.devices);  // at most one overshoot per pool
  EXPECT_FALSE(r.reached_target);
}

TEST(DabsSolver, TargetEnergyRecordsTts) {
  const QuboModel m = random_model(16, 0.5, 9, 4002);
  SolverConfig c = quick_config();
  c.stop.max_batches = 1000;
  c.stop.target_energy = 0;  // trivially reachable (zero vector energy 0)
  const SolveResult r = DabsSolver(c).solve(m);
  EXPECT_TRUE(r.reached_target);
  EXPECT_GE(r.tts_seconds, 0.0);
  EXPECT_LE(r.tts_seconds, r.elapsed_seconds + 1e-9);
  EXPECT_LE(r.best_energy, 0);
}

TEST(DabsSolver, TimeLimitStopsTheRun) {
  const QuboModel m = random_model(64, 0.5, 9, 4003);
  SolverConfig c = quick_config();
  c.stop.max_batches = 0;
  c.stop.time_limit_seconds = 0.2;
  const SolveResult r = DabsSolver(c).solve(m);
  EXPECT_GE(r.elapsed_seconds, 0.2);
  EXPECT_LT(r.elapsed_seconds, 5.0);
}

TEST(DabsSolver, StatsCountEveryBatch) {
  const QuboModel m = random_model(24, 0.5, 9, 4004);
  SolverConfig c = quick_config();
  c.stop.max_batches = 60;
  const SolveResult r = DabsSolver(c).solve(m);
  std::uint64_t algo_total = 0, op_total = 0;
  for (const auto v : r.stats.algo_executed) algo_total += v;
  for (const auto v : r.stats.op_executed) op_total += v;
  EXPECT_EQ(algo_total, r.batches);
  EXPECT_EQ(op_total, r.batches);
  EXPECT_EQ(r.stats.batches, r.batches);
}

TEST(DabsSolver, ImprovementTraceIsMonotone) {
  const QuboModel m = random_model(32, 0.5, 9, 4005);
  SolverConfig c = quick_config();
  c.stop.max_batches = 100;
  const SolveResult r = DabsSolver(c).solve(m);
  ASSERT_FALSE(r.stats.improvements.empty());
  for (std::size_t i = 1; i < r.stats.improvements.size(); ++i) {
    EXPECT_LT(r.stats.improvements[i].energy,
              r.stats.improvements[i - 1].energy);
    EXPECT_GE(r.stats.improvements[i].at_seconds,
              r.stats.improvements[i - 1].at_seconds);
  }
  EXPECT_EQ(r.stats.improvements.back().energy, r.best_energy);
}

TEST(DabsSolver, FirstFinderMatchesFinalImprovement) {
  const QuboModel m = random_model(20, 0.5, 9, 4006);
  SolverConfig c = quick_config();
  c.stop.max_batches = 80;
  const SolveResult r = DabsSolver(c).solve(m);
  MainSearch algo{};
  GeneticOp op{};
  ASSERT_TRUE(r.stats.first_finder(algo, op));
  EXPECT_EQ(algo, r.stats.improvements.back().algo);
  EXPECT_EQ(op, r.stats.improvements.back().op);
}

TEST(DabsSolver, RestrictedAlgorithmSetIsHonored) {
  const QuboModel m = random_model(24, 0.5, 9, 4007);
  SolverConfig c = quick_config();
  c.algorithms = {MainSearch::kPositiveMin};
  c.stop.max_batches = 40;
  const SolveResult r = DabsSolver(c).solve(m);
  for (const MainSearch s : kAllMainSearches) {
    if (s == MainSearch::kPositiveMin) {
      EXPECT_EQ(r.stats.algo_executed[std::size_t(s)], r.batches);
    } else {
      EXPECT_EQ(r.stats.algo_executed[std::size_t(s)], 0u);
    }
  }
}

TEST(DabsSolver, SynchronousModeIsDeterministic) {
  const QuboModel m = random_model(28, 0.5, 9, 4008);
  SolverConfig c = quick_config();
  c.stop.max_batches = 60;
  c.seed = 987;
  const SolveResult a = DabsSolver(c).solve(m);
  const SolveResult b = DabsSolver(c).solve(m);
  EXPECT_EQ(a.best_energy, b.best_energy);
  EXPECT_EQ(a.best_solution, b.best_solution);
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.stats.algo_executed, b.stats.algo_executed);
  EXPECT_EQ(a.stats.op_executed, b.stats.op_executed);
}

TEST(DabsSolver, DifferentSeedsExploreDifferently) {
  const QuboModel m = random_model(28, 0.5, 9, 4009);
  SolverConfig c = quick_config();
  c.stop.max_batches = 60;
  c.seed = 1;
  const SolveResult a = DabsSolver(c).solve(m);
  c.seed = 2;
  const SolveResult b = DabsSolver(c).solve(m);
  EXPECT_TRUE(a.stats.algo_executed != b.stats.algo_executed ||
              a.best_solution != b.best_solution ||
              a.stats.op_executed != b.stats.op_executed);
}

TEST(DabsSolver, ThreadedModeSolvesAndStopsCleanly) {
  const QuboModel m = random_model(40, 0.5, 9, 4010);
  SolverConfig c = quick_config();
  c.mode = ExecutionMode::kThreaded;
  c.stop.max_batches = 100;
  const SolveResult r = DabsSolver(c).solve(m);
  EXPECT_GE(r.batches, 100u);
  EXPECT_NE(r.best_energy, kInfiniteEnergy);
  EXPECT_EQ(m.energy(r.best_solution), r.best_energy);
}

TEST(DabsSolver, ThreadedModeReachesExhaustiveOptimum) {
  const QuboModel m = random_model(14, 0.6, 9, 4011);
  const BaselineResult truth = ExhaustiveSolver().solve(m);
  SolverConfig c = quick_config();
  c.mode = ExecutionMode::kThreaded;
  c.stop.max_batches = 0;
  c.stop.time_limit_seconds = 10.0;
  c.stop.target_energy = truth.best_energy;
  const SolveResult r = DabsSolver(c).solve(m);
  EXPECT_TRUE(r.reached_target);
  EXPECT_EQ(r.best_energy, truth.best_energy);
}

/// Invariants of the threaded step loop under a batch budget: every drawn
/// target is charged to the budget exactly once, the overshoot is at most
/// one step per worker, and the reported best re-evaluates exactly.
void expect_threaded_budget_invariants(const SolverConfig& c,
                                       const QuboModel& m) {
  const SolveResult r = DabsSolver(c).solve(m);
  const std::uint64_t budget = c.stop.max_batches;
  const std::uint64_t workers = c.devices * c.device.blocks;
  const std::uint64_t lanes = c.device.replicas;
  EXPECT_EQ(r.extras.at("packets_generated"), std::to_string(r.batches));
  EXPECT_GE(r.batches, budget);
  EXPECT_LE(r.batches, budget + workers * lanes);
  EXPECT_EQ(r.best_solution.size(), m.size());
  EXPECT_EQ(m.energy(r.best_solution), r.best_energy);
}

TEST(DabsSolver, ThreadedScalarSolveKeepsBudgetInvariants) {
  const QuboModel m = random_model(40, 0.5, 9, 4013);
  SolverConfig c = quick_config();
  c.mode = ExecutionMode::kThreaded;
  c.devices = 2;
  c.device.blocks = 2;
  c.stop.max_batches = 150;
  expect_threaded_budget_invariants(c, m);
}

TEST(DabsSolver, ThreadedBulkSolveKeepsBudgetInvariants) {
  const QuboModel m = random_model(40, 0.5, 9, 4014);
  SolverConfig c = quick_config();
  c.mode = ExecutionMode::kThreaded;
  c.devices = 2;
  c.device.blocks = 1;
  c.device.replicas = 8;
  c.stop.max_batches = 150;
  expect_threaded_budget_invariants(c, m);
}

TEST(DabsSolver, ThreadedWorkerExceptionReachesTheCaller) {
  // The first on_new_best comes from the caller's initial pool entry;
  // later ones fire on whichever worker thread improved the best.
  struct ThrowingObserver : ProgressObserver {
    std::atomic<int> calls{0};
    void on_new_best(const ProgressEvent&) override {
      if (calls.fetch_add(1) >= 1) throw std::runtime_error("observer");
    }
  };
  const QuboModel m = random_model(40, 0.5, 9, 4015);
  SolverConfig c = quick_config();
  c.mode = ExecutionMode::kThreaded;
  ThrowingObserver observer;
  SolveRequest req;
  req.model = &m;
  req.stop.time_limit_seconds = 30.0;
  req.observer = &observer;
  EXPECT_THROW((void)DabsSolver(c).solve(req), std::runtime_error);
  EXPECT_GE(observer.calls.load(), 2);
}

TEST(DabsSolver, SingleDeviceRunWorks) {
  const QuboModel m = random_model(20, 0.5, 9, 4012);
  SolverConfig c = quick_config();
  c.devices = 1;
  c.stop.max_batches = 40;
  const SolveResult r = DabsSolver(c).solve(m);
  EXPECT_NE(r.best_energy, kInfiniteEnergy);
}

TEST(AbsSolver, ConfigRestrictsToCyclicMinAndMutateCrossover) {
  const SolverConfig c = make_abs_config(quick_config());
  ASSERT_EQ(c.algorithms.size(), 1u);
  EXPECT_EQ(c.algorithms[0], MainSearch::kCyclicMin);
  ASSERT_EQ(c.operations.size(), 1u);
  EXPECT_EQ(c.operations[0], GeneticOp::kMutateCrossover);
  EXPECT_EQ(c.explore_prob, 0.0);
  EXPECT_FALSE(c.restart_on_merge);
}

TEST(AbsSolver, RunsAndOnlyUsesItsFeatureSet) {
  const QuboModel m = random_model(24, 0.5, 9, 4013);
  SolverConfig base = quick_config();
  base.stop.max_batches = 40;
  AbsSolver abs(base);
  const SolveResult r = abs.solve(m);
  EXPECT_EQ(r.stats.algo_executed[std::size_t(MainSearch::kCyclicMin)],
            r.batches);
  EXPECT_EQ(r.stats.op_executed[std::size_t(GeneticOp::kMutateCrossover)],
            r.batches);
}

TEST(RunStats, SnapshotIsIndependentCopy) {
  RunStats stats;
  stats.record_batch(MainSearch::kMaxMin, GeneticOp::kZero);
  const RunStatsSnapshot snap = stats.snapshot();
  stats.record_batch(MainSearch::kMaxMin, GeneticOp::kZero);
  EXPECT_EQ(snap.batches, 1u);
  EXPECT_EQ(stats.snapshot().batches, 2u);
}

TEST(RunStats, FractionsSumToOne) {
  RunStats stats;
  stats.record_batch(MainSearch::kMaxMin, GeneticOp::kZero);
  stats.record_batch(MainSearch::kCyclicMin, GeneticOp::kOne);
  stats.record_batch(MainSearch::kCyclicMin, GeneticOp::kOne);
  const RunStatsSnapshot snap = stats.snapshot();
  double algo_sum = 0, op_sum = 0;
  for (const MainSearch s : kAllMainSearches) algo_sum += snap.algo_fraction(s);
  for (std::size_t i = 0; i < kGeneticOpCount; ++i) {
    op_sum += snap.op_fraction(static_cast<GeneticOp>(i));
  }
  EXPECT_DOUBLE_EQ(algo_sum, 1.0);
  EXPECT_DOUBLE_EQ(op_sum, 1.0);
}

TEST(RunStats, ToStringMentionsAlgorithms) {
  RunStats stats;
  stats.record_batch(MainSearch::kRandomMin, GeneticOp::kBest);
  stats.record_improvement(0.5, -10, MainSearch::kRandomMin,
                           GeneticOp::kBest);
  const std::string s = stats.snapshot().to_string();
  EXPECT_NE(s.find("RandomMin"), std::string::npos);
  EXPECT_NE(s.find("Best"), std::string::npos);
}

}  // namespace
}  // namespace dabs
