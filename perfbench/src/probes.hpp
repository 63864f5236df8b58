// Layer probes for the traced run.  Some layers run inside Solver::solve,
// where the benchmark cannot wrap them; these probes call each such
// layer's public function on the workload's model, with inputs drawn the
// way the solver draws them (targets generated by a DiversityEngine, not
// uniform bits), and time it.  Results are labelled probe-derived.
#pragma once

#include <cstdint>

#include "bench.hpp"
#include "qubo/qubo_model.hpp"

namespace perfbench {

struct ProbeResult {
  double flip_and_scan_ns = 0.0;       // SearchState::flip_and_scan
  double bytes_per_flip = 0.0;         // computed from the model's layout
  double batch_ms = 0.0;               // BatchSearch::run
  double flips_per_batch = 0.0;        // BatchResult::flips
  double next_packet_us = 0.0;         // DiversityEngine::next_packet
  double accept_result_us = 0.0;       // DiversityEngine::accept_result
  double bulk_pass_ms = 0.0;           // BulkBatchSearch::run, 64 lanes
  double bulk_flip_ns_per_lane = 0.0;  // BulkSearchState::flip_and_scan / 64
  /// Batches per second of one worker running full 64-lane bulk passes.
  double bulk_capacity_bps() const {
    return bulk_pass_ms > 0.0 ? 64.0 * 1e3 / bulk_pass_ms : 0.0;
  }
  /// Share of a scalar batch spent in flip_and_scan.
  double kernel_share() const {
    return batch_ms > 0.0
               ? flips_per_batch * flip_and_scan_ns * 1e-6 / batch_ms
               : 0.0;
  }
};

/// Runs every probe on `model` for roughly `seconds` in total, recording a
/// span per probe call into `tracer` under id `trace_id`.
ProbeResult run_probes(const dabs::QuboModel& model, std::uint64_t seed,
                       double seconds, Tracer& tracer,
                       std::uint64_t trace_id);

}  // namespace perfbench
