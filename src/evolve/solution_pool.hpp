// Solution pool (paper Fig. 2 and §IV): a capacity-bounded, energy-sorted
// store of packets received from a device.  Each entry records, alongside
// the solution vector and its energy, *which* main search algorithm and
// genetic operation produced it — the records that drive the adaptive
// 95 %/5 % selection rule.
//
// Pools are shared between their own island's workers and the neighbor
// island's workers performing Xrossover, so every public operation is
// internally synchronized and selection results are returned by value.
#pragma once

#include <cstddef>
#include <mutex>
#include <vector>

#include "evolve/diversity.hpp"
#include "evolve/op_ids.hpp"
#include "qubo/types.hpp"
#include "rng/xorshift.hpp"
#include "search/registry.hpp"
#include "util/bit_vector.hpp"

namespace dabs {

struct PoolEntry {
  BitVector solution;
  Energy energy = kInfiniteEnergy;
  MainSearch algo = MainSearch::kMaxMin;
  GeneticOp op = GeneticOp::kRandom;
};

class SolutionPool {
 public:
  /// An empty pool holding up to `capacity` entries of `n`-bit solutions.
  SolutionPool(std::size_t capacity, std::size_t n);

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t bits() const noexcept { return n_; }

  /// Fills the pool to capacity with random vectors at +infinity energy and
  /// uniformly random algorithm/operation records (paper §IV-A start-up).
  void initialize_random(Rng& rng);

  /// Inserts if the entry beats the worst entry (or the pool has space) and
  /// is not a duplicate.  Returns true when inserted.
  bool insert(PoolEntry entry);

  std::size_t size() const;
  /// Entry at `rank` (0 = lowest energy).  Returned by value: the pool may
  /// mutate concurrently.
  PoolEntry entry(std::size_t rank) const;
  Energy best_energy() const;
  Energy worst_energy() const;

  /// Cube-weighted parent selection: rank = floor(r^3 * size).
  PoolEntry select_cube_weighted(Rng& rng) const;

  /// Uniformly random entry (used by the 95 % adaptive rule).
  PoolEntry select_uniform(Rng& rng) const;

  /// Empties and re-randomizes (the paper's restart after pool merge) in
  /// one critical section: concurrent selections never see an empty pool.
  void restart(Rng& rng);

  /// Copies of the solution vectors of every *evaluated* entry (the random
  /// +infinity seeds are excluded — they carry no search information).
  std::vector<BitVector> evaluated_solutions() const;

  /// Up to `count` best *evaluated* entries, taken under one lock (an
  /// atomic snapshot — safe against concurrent restarts).
  std::vector<PoolEntry> best_entries(std::size_t count) const;

  /// Min/mean pairwise Hamming distance and per-bit entropy over the
  /// evaluated entries.  Snapshot semantics: the pool may mutate after.
  PoolDiversity diversity() const;

 private:
  bool is_duplicate_locked(const PoolEntry& e) const;

  mutable std::mutex mu_;
  std::size_t capacity_;
  std::size_t n_;
  std::vector<PoolEntry> entries_;  // sorted ascending by energy
};

}  // namespace dabs
