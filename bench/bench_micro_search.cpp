// Micro benchmarks (google-benchmark): per-iteration cost of each main
// search algorithm, the straight walk on K2000, and throughput of a whole
// batch search.
#include <benchmark/benchmark.h>

#include <vector>

#include "evolve/genetic_ops.hpp"
#include "problems/maxcut.hpp"
#include "qubo/search_state.hpp"
#include "search/batch_search.hpp"
#include "search/registry.hpp"
#include "search/straight.hpp"

namespace dabs {
namespace {

const QuboModel& k300() {
  static const QuboModel m =
      problems::maxcut_to_qubo(problems::make_complete_maxcut(300, 7, "K300"));
  return m;
}

void BM_MainSearchIteration(benchmark::State& state) {
  const auto id = static_cast<MainSearch>(state.range(0));
  const QuboModel& m = k300();
  SearchState s(m);
  Rng rng(1);
  s.reset_to(random_bit_vector(m.size(), rng));
  TabuList tabu(m.size(), 8);
  auto algo = make_search_algorithm(id);
  for (auto _ : state) {
    algo->run(s, rng, &tabu, 16);
  }
  state.SetItemsProcessed(state.iterations() * 16);
  state.SetLabel(std::string(to_string(id)));
}
BENCHMARK(BM_MainSearchIteration)
    ->DenseRange(0, static_cast<int>(kMainSearchCount) - 1);

// Straight walk (batch Step 0) on K2000: each iteration walks the state
// to the next of a ring of random targets, about n/2 = 1000 flips apart.
// items_per_second counts walk flips, each one choice among the bits still
// differing plus one fused flip_and_scan — compare BM_FlipAndScanK2000 in
// bench_micro_incremental for the kernel share.
void BM_StraightWalkK2000(benchmark::State& state) {
  const auto backend = static_cast<QuboBackend>(state.range(0));
  static const QuboModel csr =
      problems::maxcut_to_qubo(problems::make_k2000(), QuboBackend::kCsr);
  static const QuboModel dense =
      problems::maxcut_to_qubo(problems::make_k2000(), QuboBackend::kDense);
  const QuboModel& m = backend == QuboBackend::kDense ? dense : csr;
  SearchState s(m);
  Rng rng(6);
  std::vector<BitVector> targets;
  for (int t = 0; t < 16; ++t) {
    targets.push_back(random_bit_vector(m.size(), rng));
  }
  s.reset_to(targets.back());
  std::uint64_t flips = 0;
  std::size_t next = 0;
  for (auto _ : state) {
    flips += straight_walk(s, targets[next]);
    benchmark::DoNotOptimize(s.best_energy());
    next = (next + 1) % targets.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(flips));
  state.SetLabel(to_string(backend));
}
BENCHMARK(BM_StraightWalkK2000)
    ->Arg(static_cast<int>(QuboBackend::kCsr))
    ->Arg(static_cast<int>(QuboBackend::kDense))
    ->Unit(benchmark::kMillisecond);

void BM_BatchSearchThroughput(benchmark::State& state) {
  const QuboModel& m = k300();
  BatchParams p;
  p.search_flip_factor = 0.1;
  p.batch_flip_factor = 1.0;
  BatchSearch bs(m, p, 42);
  Rng rng(2);
  std::uint64_t flips = 0;
  for (auto _ : state) {
    const BitVector target = random_bit_vector(m.size(), rng);
    const BatchResult r = bs.run(target, MainSearch::kCyclicMin);
    flips += r.flips;
    benchmark::DoNotOptimize(r.best_energy);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(flips));
  state.SetLabel("flips/sec");
}
BENCHMARK(BM_BatchSearchThroughput);

void BM_GreedyDescent(benchmark::State& state) {
  const QuboModel& m = k300();
  SearchState s(m);
  Rng rng(3);
  for (auto _ : state) {
    state.PauseTiming();
    s.reset_to(random_bit_vector(m.size(), rng));
    state.ResumeTiming();
    ScanResult r = s.scan();
    while (r.min_delta < 0) r = s.flip_and_scan(r.argmin);
    benchmark::DoNotOptimize(s.energy());
  }
}
BENCHMARK(BM_GreedyDescent);

void BM_GeneticOperation(benchmark::State& state) {
  const auto op = static_cast<GeneticOp>(state.range(0));
  const std::size_t n = 2000;
  SolutionPool pool(100, n);
  SolutionPool neighbor(100, n);
  Rng rng(4);
  pool.initialize_random(rng);
  neighbor.initialize_random(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        apply_genetic_op(op, n, pool, &neighbor, rng));
  }
  state.SetLabel(std::string(to_string(op)));
}
BENCHMARK(BM_GeneticOperation)
    ->DenseRange(0, static_cast<int>(kGeneticOpCount) - 1);

}  // namespace
}  // namespace dabs

BENCHMARK_MAIN();
