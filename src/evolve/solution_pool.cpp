#include "evolve/solution_pool.hpp"

#include <algorithm>

#include "evolve/genetic_ops.hpp"
#include "rng/seeder.hpp"
#include "util/assert.hpp"

namespace dabs {

SolutionPool::SolutionPool(std::size_t capacity, std::size_t n)
    : capacity_(capacity), n_(n) {
  DABS_CHECK(capacity > 0, "pool capacity must be positive");
  DABS_CHECK(n > 0, "pool solutions need at least one bit");
  entries_.reserve(capacity);
}

void SolutionPool::initialize_random(Rng& rng) {
  std::lock_guard lock(mu_);
  entries_.clear();
  for (std::size_t i = 0; i < capacity_; ++i) {
    PoolEntry e;
    e.solution = random_bit_vector(n_, rng);
    e.energy = kInfiniteEnergy;
    e.algo = static_cast<MainSearch>(rng.next_index(kMainSearchCount));
    e.op = kDabsGeneticOps[rng.next_index(kDabsGeneticOpCount)];
    entries_.push_back(std::move(e));
  }
}

bool SolutionPool::is_duplicate_locked(const PoolEntry& e) const {
  // Entries are sorted by energy, so any duplicate has equal energy and sits
  // in the contiguous equal-energy range.
  auto lo = std::lower_bound(
      entries_.begin(), entries_.end(), e.energy,
      [](const PoolEntry& a, Energy v) { return a.energy < v; });
  for (; lo != entries_.end() && lo->energy == e.energy; ++lo) {
    if (lo->solution == e.solution) return true;
  }
  return false;
}

bool SolutionPool::insert(PoolEntry entry) {
  DABS_CHECK(entry.solution.size() == n_, "solution length mismatch");
  std::lock_guard lock(mu_);
  const bool full = entries_.size() >= capacity_;
  if (full && !entries_.empty() && entry.energy >= entries_.back().energy) {
    return false;  // not better than the worst
  }
  if (is_duplicate_locked(entry)) return false;
  auto pos = std::upper_bound(
      entries_.begin(), entries_.end(), entry.energy,
      [](Energy v, const PoolEntry& a) { return v < a.energy; });
  entries_.insert(pos, std::move(entry));
  if (entries_.size() > capacity_) entries_.pop_back();
  return true;
}

std::size_t SolutionPool::size() const {
  std::lock_guard lock(mu_);
  return entries_.size();
}

PoolEntry SolutionPool::entry(std::size_t rank) const {
  std::lock_guard lock(mu_);
  DABS_CHECK(rank < entries_.size(), "pool rank out of range");
  return entries_[rank];
}

Energy SolutionPool::best_energy() const {
  std::lock_guard lock(mu_);
  return entries_.empty() ? kInfiniteEnergy : entries_.front().energy;
}

Energy SolutionPool::worst_energy() const {
  std::lock_guard lock(mu_);
  return entries_.empty() ? kInfiniteEnergy : entries_.back().energy;
}

PoolEntry SolutionPool::select_cube_weighted(Rng& rng) const {
  std::lock_guard lock(mu_);
  DABS_CHECK(!entries_.empty(), "selection from an empty pool");
  return entries_[cube_weighted_rank(rng, entries_.size())];
}

PoolEntry SolutionPool::select_uniform(Rng& rng) const {
  std::lock_guard lock(mu_);
  DABS_CHECK(!entries_.empty(), "selection from an empty pool");
  return entries_[rng.next_index(entries_.size())];
}

std::vector<BitVector> SolutionPool::evaluated_solutions() const {
  std::lock_guard lock(mu_);
  std::vector<BitVector> out;
  out.reserve(entries_.size());
  for (const PoolEntry& e : entries_) {
    if (e.energy != kInfiniteEnergy) out.push_back(e.solution);
  }
  return out;
}

std::vector<PoolEntry> SolutionPool::best_entries(std::size_t count) const {
  std::lock_guard lock(mu_);
  std::vector<PoolEntry> out;
  out.reserve(std::min(count, entries_.size()));
  for (const PoolEntry& e : entries_) {
    if (out.size() >= count) break;
    if (e.energy == kInfiniteEnergy) break;  // sorted: only +inf seeds follow
    out.push_back(e);
  }
  return out;
}

PoolDiversity SolutionPool::diversity() const {
  return measure_diversity(evaluated_solutions(), n_);
}

void SolutionPool::restart(Rng& rng) {
  // initialize_random() clears and refills under one lock, so a selection
  // racing the restart never sees an empty pool.
  initialize_random(rng);
}

}  // namespace dabs
