#include "probes.hpp"

#include <vector>

#include "device/packet.hpp"
#include "evolve/diversity_engine.hpp"
#include "qubo/search_state.hpp"
#include "rng/seeder.hpp"
#include "rng/xorshift.hpp"
#include "search/batch_search.hpp"
#include "search/bulk_batch_search.hpp"
#include "search/bulk_search_state.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kLanes = 64;
/// Bounds the calls (and trace spans) a probe makes on tiny models.
constexpr std::size_t kMaxCalls = 2000;

/// Bytes one flip_and_scan moves, from the model's storage layout: the
/// weight row (dense) or the CSR slice (sparse), a read and a write of
/// each touched Delta and spin, plus the scan's read of every Delta.
double computed_bytes_per_flip(const dabs::QuboModel& m) {
  const double n = static_cast<double>(m.size());
  const double delta_rw = 2.0 * sizeof(dabs::Energy) + sizeof(std::int8_t);
  if (m.has_dense_rows()) {
    // Fused dense update + scan: each Delta is read and written once.
    return n * (sizeof(dabs::Weight) + delta_rw);
  }
  const double deg = 2.0 * static_cast<double>(m.edge_count()) / n;
  return deg * (sizeof(dabs::VarIndex) + sizeof(dabs::Weight) + delta_rw) +
         n * sizeof(dabs::Energy);
}

}  // namespace

ProbeResult run_probes(const dabs::QuboModel& model, std::uint64_t seed,
                       double seconds, Tracer& tracer,
                       std::uint64_t trace_id) {
  ProbeResult out;
  out.bytes_per_flip = computed_bytes_per_flip(model);
  const std::size_t n = model.size();

  dabs::MersenneSeeder seeder(mix_seed(seed, 100));
  dabs::DiversityEngine engine(dabs::EngineConfig{}, n, seeder);
  dabs::Rng rng(mix_seed(seed, 101));
  std::size_t island = 0;

  // Scalar batches on engine targets, with the host GA calls around them
  // exactly as the synchronous solver loop makes them.
  {
    dabs::BatchSearch batch(model, dabs::BatchParams{}, mix_seed(seed, 102));
    double t_next = 0.0, t_batch = 0.0, t_accept = 0.0, flips = 0.0;
    std::size_t count = 0;
    const auto t0 = Clock::now();
    while (count < 3 ||
           (count < kMaxCalls && seconds_since(t0) < 0.35 * seconds)) {
      auto t = Clock::now();
      double s = tracer.now();
      dabs::Packet p = engine.next_packet(island, rng);
      t_next += seconds_since(t);
      tracer.span("probe.evolve.next_packet", trace_id, s, tracer.now());
      t = Clock::now();
      s = tracer.now();
      const dabs::BatchResult r = batch.run(p.solution, p.algo);
      t_batch += seconds_since(t);
      tracer.span("probe.search.batch", trace_id, s, tracer.now());
      flips += static_cast<double>(r.flips);
      p.solution = r.best;
      p.energy = r.best_energy;
      t = Clock::now();
      s = tracer.now();
      engine.accept_result(p);
      t_accept += seconds_since(t);
      tracer.span("probe.evolve.accept_result", trace_id, s, tracer.now());
      island = (island + 1) % engine.islands();
      ++count;
    }
    const double c = static_cast<double>(count);
    out.next_packet_us = t_next / c * 1e6;
    out.accept_result_us = t_accept / c * 1e6;
    out.batch_ms = t_batch / c * 1e3;
    out.flips_per_batch = flips / c;
  }

  // The fused scalar kernel, starting from a pool solution and following
  // the steepest move the way the main searches do (a random move instead
  // of undoing the previous flip).
  {
    dabs::SearchState state(model);
    state.reset_to(engine.next_packet(0, rng).solution);
    auto last = static_cast<dabs::VarIndex>(n);  // no previous flip
    dabs::VarIndex next = static_cast<dabs::VarIndex>(rng.next_index(n));
    std::size_t count = 0;
    const auto t0 = Clock::now();
    const double s = tracer.now();
    while (count < 1000 || seconds_since(t0) < 0.15 * seconds) {
      for (int k = 0; k < 100; ++k) {
        const dabs::ScanResult r = state.flip_and_scan(next);
        last = next;
        next = r.argmin != last
                   ? r.argmin
                   : static_cast<dabs::VarIndex>(rng.next_index(n));
      }
      count += 100;
    }
    out.flip_and_scan_ns = seconds_since(t0) / static_cast<double>(count) * 1e9;
    tracer.span("probe.qubo.flip_and_scan", trace_id, s, tracer.now());
  }

  // Full 64-lane bulk passes on engine targets.
  {
    dabs::BulkBatchSearch bulk(model, dabs::BatchParams{}, kLanes,
                               mix_seed(seed, 103));
    std::vector<dabs::Packet> packets(kLanes);
    std::vector<dabs::BitVector> targets(kLanes);
    double t_pass = 0.0;
    std::size_t count = 0;
    const auto t0 = Clock::now();
    while (count < 2 ||
           (count < kMaxCalls && seconds_since(t0) < 0.35 * seconds)) {
      for (std::size_t r = 0; r < kLanes; ++r) {
        packets[r] = engine.next_packet(island, rng);
        island = (island + 1) % engine.islands();
        targets[r] = packets[r].solution;
      }
      const auto t = Clock::now();
      const double s = tracer.now();
      const std::vector<dabs::BatchResult> res = bulk.run(targets);
      t_pass += seconds_since(t);
      tracer.span("probe.search.bulk_pass", trace_id, s, tracer.now());
      for (std::size_t r = 0; r < kLanes; ++r) {
        packets[r].solution = res[r].best;
        packets[r].energy = res[r].best_energy;
        engine.accept_result(packets[r]);
      }
      ++count;
    }
    out.bulk_pass_ms = t_pass / static_cast<double>(count) * 1e3;
  }

  // The bulk fused kernel with every lane selected.
  {
    dabs::BulkSearchState bulk(model, kLanes);
    const std::vector<std::uint64_t> all_lanes(bulk.block_count(),
                                               ~std::uint64_t{0});
    std::vector<dabs::ScanResult> scans(kLanes);
    std::size_t count = 0;
    const auto t0 = Clock::now();
    const double s = tracer.now();
    while (count < 100 || seconds_since(t0) < 0.15 * seconds) {
      for (int k = 0; k < 10; ++k) {
        bulk.flip_and_scan(static_cast<dabs::VarIndex>(rng.next_index(n)),
                           all_lanes, scans);
      }
      count += 10;
    }
    out.bulk_flip_ns_per_lane = seconds_since(t0) /
                                static_cast<double>(count * kLanes) * 1e9;
    tracer.span("probe.qubo.bulk_flip_and_scan", trace_id, s, tracer.now());
  }
  return out;
}

}  // namespace perfbench
