// DabsSolver — the full Diverse Adaptive Bulk Search framework (paper §V):
//
//   islands                   batch searchers (devices x blocks)
//   -------                   ----------------------------------
//   pool 0  <- step loop ->   searcher 0.0 ... searcher 0.(blocks-1)
//   pool 1  <- step loop ->   searcher 1.0 ... searcher 1.(blocks-1)
//   ...                       ...
//
// The GA side (pools, adaptive selection, island ring, migration) lives in
// the DiversityEngine (src/evolve).  The solver owns one persistent batch
// searcher per CUDA-block equivalent — a BatchSearch, or a BulkBatchSearch
// of `replicas` lanes — and drives each with one step: draw one target per
// lane from the searcher's island (engine.next_packet), run the batch, and
// hand every result back (engine.accept_result), updating the global best.
// The paper's host<->device packet queues hide PCIe latency behind GPU
// batches; on a CPU there is no device latency to hide, so each searcher
// generates its own targets and a bulk searcher fills all of its lanes.
//
// ExecutionMode::kThreaded runs one thread per searcher (the caller runs
// searcher 0); a per-island mutex serializes next_packet / maybe_migrate,
// because the engine lets one thread at a time drive an island.
// ExecutionMode::kSynchronous runs the identical step on the caller,
// round-robin over islands and over each island's blocks, bit-reproducibly
// (used by tests and deterministic ablations).
//
// Termination runs through one shared StopContext (target energy, wall
// clock, batch budget, cooperative cancellation); workers serialize their
// driving-thread calls on it under a mutex.  When every pool's best has
// merged to the same solution the engine restarts the ring from random
// pools (paper §IV-B).
#pragma once

#include <map>
#include <string>

#include "core/run_stats.hpp"
#include "core/solve_report.hpp"
#include "core/solver.hpp"
#include "core/solver_config.hpp"
#include "qubo/qubo_model.hpp"
#include "util/bit_vector.hpp"

namespace dabs {

struct SolveResult {
  BitVector best_solution;
  Energy best_energy = kInfiniteEnergy;
  bool reached_target = false;
  /// Seconds from start until the target energy was first attained
  /// (meaningful only when reached_target).
  double tts_seconds = 0.0;
  double elapsed_seconds = 0.0;
  std::uint64_t batches = 0;
  std::uint32_t restarts = 0;
  /// Pool entries migrated between ring neighbors (0 unless the config
  /// enables migration).
  std::uint64_t migrations = 0;
  /// True when the run ended because a SolveRequest stop token fired.
  bool cancelled = false;
  RunStatsSnapshot stats;
  /// Diversity-engine summary (pool entropy / Hamming spread, per-operator
  /// win counts, ...), merged verbatim into SolveReport::extras.
  std::map<std::string, std::string> extras;
};

class DabsSolver : public Solver {
 public:
  explicit DabsSolver(SolverConfig config = {});

  const SolverConfig& config() const noexcept { return config_; }

  /// Runs the framework on `model` until a stop condition fires.
  /// Re-entrant: each call builds fresh pools/searchers.  The config's stop
  /// condition must be bounded.
  SolveResult solve(const QuboModel& model);

  /// Unified-interface entry: the request's stop condition / seed /
  /// warm-start override the config's when set, and the stop token and
  /// observer are honored by both execution modes.
  SolveReport solve(const SolveRequest& request) override;

  std::string_view name() const noexcept override { return "dabs"; }

 private:
  SolverConfig config_;
};

}  // namespace dabs
