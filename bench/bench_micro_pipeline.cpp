// Micro benchmarks (google-benchmark) for the host-side GA machinery:
// solution-pool insertion and adaptive selection (paper §IV).
#include <benchmark/benchmark.h>

#include "evolve/adaptive_selector.hpp"
#include "evolve/genetic_ops.hpp"
#include "evolve/solution_pool.hpp"
#include "rng/xorshift.hpp"

namespace dabs {
namespace {

void BM_PoolInsert(benchmark::State& state) {
  const std::size_t n = 2000;
  SolutionPool pool(100, n);
  Rng rng(2);
  pool.initialize_random(rng);
  Energy e = -1;
  for (auto _ : state) {
    PoolEntry entry;
    entry.solution = random_bit_vector(n, rng);
    entry.energy = e--;  // always improving: worst-case sorted insert
    entry.algo = MainSearch::kMaxMin;
    entry.op = GeneticOp::kMutation;
    benchmark::DoNotOptimize(pool.insert(std::move(entry)));
  }
}
BENCHMARK(BM_PoolInsert);

void BM_PoolInsertRejected(benchmark::State& state) {
  const std::size_t n = 2000;
  SolutionPool pool(100, n);
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    pool.insert({random_bit_vector(n, rng), -1000 - i, MainSearch::kMaxMin,
                 GeneticOp::kMutation});
  }
  PoolEntry worse;
  worse.solution = random_bit_vector(n, rng);
  worse.energy = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.insert(worse));  // O(1) rejection path
  }
}
BENCHMARK(BM_PoolInsertRejected);

void BM_AdaptiveSelection(benchmark::State& state) {
  SolutionPool pool(100, 64);
  Rng rng(4);
  pool.initialize_random(rng);
  AdaptiveSelector sel;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sel.select_algorithm(pool, rng));
    benchmark::DoNotOptimize(sel.select_operation(pool, rng));
  }
}
BENCHMARK(BM_AdaptiveSelection);

void BM_CubeWeightedSelection(benchmark::State& state) {
  SolutionPool pool(100, 2000);
  Rng rng(5);
  pool.initialize_random(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.select_cube_weighted(rng));
  }
}
BENCHMARK(BM_CubeWeightedSelection);

}  // namespace
}  // namespace dabs

BENCHMARK_MAIN();
