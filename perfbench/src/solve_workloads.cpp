// The two solve workloads: k2000-sync (dense, synchronous DABS, a batch
// budget per solve) and g22-bulk (sparse, 64-lane bulk DABS on 4 workers,
// a wall budget per solve).  Both solve one fixed registry instance over a
// seed list derived from --seed, re-evaluate and verify every result, and
// measure quality against the pinned reference in perfbench/refs/.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "core/solve_report.hpp"
#include "core/solver.hpp"
#include "core/solver_registry.hpp"
#include "problems/problem_registry.hpp"
#include "probes.hpp"

namespace perfbench {

namespace {

struct SolveWorkload {
  std::string problem;
  dabs::SolverOptions solver_options;
  std::uint64_t max_batches = 0;  // work budget per solve (0 = none)
  double time_limit = 0.0;        // wall budget per solve (0 = none)
  /// Nominal seconds of one solve on the reference host; sizes the seed
  /// list from --seconds (the list depends on the arguments only).
  double nominal_solve_s = 1.0;
  /// Batch-search workers a solve runs (scalar: 1; bulk: devices*blocks).
  double workers = 1.0;
  bool bulk = false;
  int setup_reps = 5;
};

/// What one solve produced, as measured from outside.
struct Outcome {
  double wall = 0.0;
  double tts = kInf;                // seconds to the pinned target
  double batches_to_target = kInf;  // work units at that moment
  double batches = 0.0;
  double gap_pct = 0.0;
  double decode_verify_s = 0.0;
  bool ok = false;
  std::map<std::string, std::string> extras;
};

/// Records the first moment the best energy reaches the target.
class TargetObserver : public dabs::ProgressObserver {
 public:
  TargetObserver(dabs::Energy target, Tracer& tracer, std::uint64_t id)
      : target_(target), tracer_(tracer), id_(id) {}
  void on_new_best(const dabs::ProgressEvent& e) override {
    std::lock_guard lock(mu_);
    if (tracer_.enabled()) {
      tracer_.instant("core.new_best", id_, tracer_.now(),
                      std::to_string(e.best_energy));
    }
    if (e.best_energy <= target_ && tts_ == kInf) {
      tts_ = e.elapsed_seconds;
      work_ = static_cast<double>(e.work);
    }
  }
  double tts() const {
    std::lock_guard lock(mu_);
    return tts_;
  }
  double work() const {
    std::lock_guard lock(mu_);
    return work_;
  }

 private:
  dabs::Energy target_;
  Tracer& tracer_;
  std::uint64_t id_;
  mutable std::mutex mu_;
  double tts_ = kInf;
  double work_ = kInf;
};

struct Instance {
  std::unique_ptr<dabs::Problem> problem;
  dabs::QuboModel model;
  std::unique_ptr<dabs::Solver> solver;
};

/// Set-up as a user pays it: problem construction + encode + solver
/// construction.
Instance set_up(const SolveWorkload& w, Tracer& tracer, double* seconds,
                double* encode_seconds) {
  Instance inst;
  const auto t0 = Clock::now();
  {
    Scope s(tracer, "problems.create", 0);
    inst.problem = dabs::ProblemRegistry::global().create(w.problem);
  }
  const auto te = Clock::now();
  {
    Scope s(tracer, "problems.encode", 0);
    inst.model = inst.problem->encode();
  }
  if (encode_seconds != nullptr) *encode_seconds = seconds_since(te);
  {
    Scope s(tracer, "core.create_solver", 0);
    inst.solver =
        dabs::SolverRegistry::global().create("dabs", w.solver_options);
  }
  *seconds = seconds_since(t0);
  return inst;
}

/// Seed j of base b: two independent bases give the reseed spread.
std::uint64_t solve_seed(std::uint64_t run_seed, int base, std::size_t j) {
  return mix_seed(mix_seed(run_seed, 1000 + static_cast<std::uint64_t>(base)),
                  j);
}

Outcome solve_once(const SolveWorkload& w, const Instance& inst,
                   const Reference& ref, const Options& opt,
                   std::uint64_t seed, std::uint64_t id, Tracer& tracer,
                   Sheet& sheet, bool corrupt_energy, bool corrupt_verify,
                   std::size_t* ref_beaten) {
  TargetObserver observer(ref.target, tracer, id);
  dabs::SolveRequest req;
  req.model = &inst.model;
  req.stop.max_batches = w.max_batches;
  req.stop.time_limit_seconds = w.time_limit;
  req.seed = seed;
  req.observer = &observer;

  Outcome o;
  dabs::SolveReport rep;
  {
    Scope s(tracer, "core.solve", id);
    const auto t0 = Clock::now();
    rep = inst.solver->solve(req);
    o.wall = seconds_since(t0);
  }
  if (corrupt_energy) rep.best_energy -= 1;

  // Output checks: the reported energy must re-evaluate from the reported
  // solution, and the decoded result must verify.
  std::ostringstream why;
  dabs::Energy e = 0;
  {
    Scope s(tracer, "qubo.energy", id);
    e = rep.best_solution.size() == inst.model.size()
            ? inst.model.energy(rep.best_solution)
            : dabs::kInfiniteEnergy;
  }
  bool ok = e == rep.best_energy;
  if (!ok) {
    why << "seed " << seed << ": reported energy " << rep.best_energy
        << " re-evaluates to " << e << "; ";
  }
  {
    Scope s(tracer, "problems.decode_verify", id);
    const auto t0 = Clock::now();
    const dabs::DomainSolution d = inst.problem->decode(rep.best_solution);
    const dabs::VerifyResult v = inst.problem->verify(
        rep.best_solution, corrupt_verify ? e + 1 : e);
    o.decode_verify_s = seconds_since(t0);
    if (!d.feasible || !v.ok) {
      ok = false;
      why << "seed " << seed << ": verify() failed: " << v.message;
    }
  }
  sheet.record(ok, why.str());
  o.ok = ok;
  if (!ok) return o;  // a failed result is never reported as a result

  o.tts = observer.tts();
  o.batches_to_target = observer.work();
  o.batches = static_cast<double>(rep.batches);
  o.gap_pct = 100.0 * static_cast<double>(e - ref.e_ref) /
              std::abs(static_cast<double>(ref.e_ref));
  o.extras = rep.extras;
  std::cout << "solve " << id << ": seed " << seed << ", " << o.wall
            << " s, " << rep.batches << " batches, energy " << e
            << ", to target " << o.tts << " s / " << o.batches_to_target
            << " batches\n";
  if (e < ref.e_ref) {
    ++*ref_beaten;
    std::cout << "ref_beaten: energy " << e << " < e_ref " << ref.e_ref
              << ", saved to "
              << save_beaten_reference(opt, ref.cache_key, e,
                                       rep.best_solution)
              << "\n";
  }
  return o;
}

struct Quality {
  double tts = kInf;
  double success = 0.0;
  double gap = 0.0;
  double batches_to_target = kInf;
};

Quality quality_of(const std::vector<Outcome>& v) {
  Quality q;
  std::vector<double> tts, gap, btt;
  double reached = 0;
  for (const Outcome& o : v) {
    tts.push_back(o.tts);
    btt.push_back(o.batches_to_target);
    if (!o.ok) continue;
    gap.push_back(o.gap_pct);
    reached += std::isfinite(o.tts) ? 1 : 0;
  }
  q.tts = median(tts);
  q.batches_to_target = median(btt);
  q.success = v.empty() ? 0.0 : reached / static_cast<double>(v.size());
  q.gap = mean(gap);
  return q;
}

double extra_mean(const std::vector<Outcome>& v, const std::string& key) {
  std::vector<double> xs;
  for (const Outcome& o : v) {
    const auto it = o.extras.find(key);
    if (it != o.extras.end()) xs.push_back(std::stod(it->second));
  }
  return mean(xs);
}

struct Pass {
  std::vector<Outcome> outcomes[2];  // per seed base
  double wall = 0.0;
  double batches = 0.0;
};

Pass run_pass(const SolveWorkload& w, const Instance& inst,
              const Reference& ref, const Options& opt,
              std::size_t per_base, Tracer& tracer, Sheet& sheet,
              std::size_t* ref_beaten) {
  Pass pass;
  std::uint64_t id = 1;
  for (std::size_t j = 0; j < per_base; ++j) {
    for (int base = 0; base < 2; ++base) {
      const bool first = j == 0 && base == 0;
      Outcome o = solve_once(w, inst, ref, opt, solve_seed(opt.seed, base, j),
                             id++, tracer, sheet,
                             first && opt.inject_bad_energy,
                             first && opt.inject_bad_verify, ref_beaten);
      pass.wall += o.wall;
      pass.batches += o.batches;
      pass.outcomes[base].push_back(std::move(o));
    }
  }
  return pass;
}

std::vector<Outcome> all_of(const Pass& p) {
  std::vector<Outcome> v = p.outcomes[0];
  v.insert(v.end(), p.outcomes[1].begin(), p.outcomes[1].end());
  return v;
}

void print_reseed_spread(const Pass& p) {
  const Quality a = quality_of(p.outcomes[0]);
  const Quality b = quality_of(p.outcomes[1]);
  std::cout << "reseed spread over two seed bases (" << p.outcomes[0].size()
            << " solves each):\n";
  const auto row = [](const char* name, double x, double y) {
    std::cout << "  " << std::left << std::setw(28) << name << std::right
              << std::setw(12) << x << std::setw(12) << y << std::setw(12)
              << std::abs(x - y) << "\n";
  };
  std::cout << "  " << std::left << std::setw(28) << "metric" << std::right
            << std::setw(12) << "base A" << std::setw(12) << "base B"
            << std::setw(12) << "|A-B|" << "\n";
  row("tts_s", a.tts, b.tts);
  row("success_rate", a.success, b.success);
  row("energy_gap_pct", a.gap, b.gap);
  row("core.batches_to_target_p50", a.batches_to_target, b.batches_to_target);
}

void run_solve_workload(const SolveWorkload& w, const Options& opt,
                        Sheet& sheet) {
  std::filesystem::create_directories(opt.out_dir);
  const std::size_t per_base = std::max<std::size_t>(
      1, static_cast<std::size_t>(opt.seconds / (2.0 * w.nominal_solve_s)));
  std::size_t ref_beaten = 0;

  if (!opt.trace) {
    Tracer off(false);
    std::vector<double> setups;
    Instance inst;
    for (int r = 0; r < w.setup_reps; ++r) {
      double s = 0.0;
      inst = set_up(w, off, &s, nullptr);
      setups.push_back(s);
    }
    const Reference ref = load_reference(opt, *inst.problem, inst.model);
    std::cout << "reference: " << ref.cache_key << " e_ref " << ref.e_ref
              << ", tts target " << ref.target << " (certified)\n";
    const Pass pass =
        run_pass(w, inst, ref, opt, per_base, off, sheet, &ref_beaten);
    const std::vector<Outcome> all = all_of(pass);
    const Quality q = quality_of(all);
    std::vector<double> walls;
    for (const Outcome& o : all) walls.push_back(o.wall);
    sheet.set("setup_s", median(setups));
    sheet.set("peak_rss_mb", peak_rss_mb());
    sheet.set("batches_per_s", pass.batches / pass.wall);
    sheet.set("tts_s", q.tts);
    sheet.set("success_rate", q.success);
    sheet.set("energy_gap_pct", q.gap);
    sheet.set("jobs_per_s", static_cast<double>(all.size()) / pass.wall);
    sheet.set("job_latency_p50_s", median(walls));
    std::cout << "solves: " << all.size() << " (" << per_base
              << " per seed base), samples behind tts_s: " << all.size()
              << ", ref_beaten: " << ref_beaten << "\n";
    print_reseed_spread(pass);
    return;
  }

  // Traced run: the same seeds untraced then traced (the difference is the
  // tracing overhead), then the layer probes.
  Tracer tracer(true);
  double setup_s = 0.0, encode_s = 0.0;
  Instance inst = set_up(w, tracer, &setup_s, &encode_s);
  const Reference ref = load_reference(opt, *inst.problem, inst.model);
  const std::size_t traced_per_base = std::max<std::size_t>(1, per_base / 2);
  Tracer off(false);
  const Pass plain =
      run_pass(w, inst, ref, opt, traced_per_base, off, sheet, &ref_beaten);
  const Pass traced =
      run_pass(w, inst, ref, opt, traced_per_base, tracer, sheet, &ref_beaten);
  const double probe_s = std::clamp(0.15 * opt.seconds, 1.0, 4.0);
  const ProbeResult pr =
      run_probes(inst.model, opt.seed, probe_s, tracer, 1000000);

  const std::vector<Outcome> all = all_of(traced);
  const Quality q = quality_of(all);
  std::vector<double> walls, decode_verify;
  for (const Outcome& o : all) {
    walls.push_back(o.wall);
    decode_verify.push_back(o.decode_verify_s);
  }
  const double achieved_bps = traced.batches / traced.wall;
  // One worker's isolated capacity on this workload's lane shape.
  const double capacity_bps =
      w.bulk ? pr.bulk_capacity_bps() : 1e3 / pr.batch_ms;
  const double lane_eff = achieved_bps / (w.workers * capacity_bps);

  sheet.set("qubo.flip_and_scan_ns", pr.flip_and_scan_ns);
  sheet.set("qubo.bytes_per_flip", pr.bytes_per_flip);
  sheet.set("qubo.bulk_flip_ns_per_lane", pr.bulk_flip_ns_per_lane);
  sheet.set("search.batch_ms", pr.batch_ms);
  sheet.set("search.flips_per_batch", pr.flips_per_batch);
  sheet.set("search.kernel_share", pr.kernel_share());
  sheet.set("search.bulk_pass_ms", pr.bulk_pass_ms);
  sheet.set("search.bulk_capacity_bps", pr.bulk_capacity_bps());
  sheet.set("evolve.next_packet_us", pr.next_packet_us);
  sheet.set("evolve.accept_result_us", pr.accept_result_us);
  sheet.set("evolve.accept_ratio", extra_mean(all, "packets_accepted") /
                                       extra_mean(all, "packets_generated"));
  sheet.set("evolve.pool_entropy", extra_mean(all, "pool_entropy"));
  sheet.set("evolve.pool_min_hamming", extra_mean(all, "pool_min_hamming"));
  sheet.set("evolve.restarts", extra_mean(all, "pool_restarts"));
  sheet.set("evolve.migrations", extra_mean(all, "migrations"));
  sheet.set("device.lane_efficiency", lane_eff);
  sheet.set("device.host_share", 1.0 - lane_eff);
  sheet.set("core.solve_s_p50", median(walls));
  sheet.set("core.batches_to_target_p50", q.batches_to_target);
  sheet.set("problems.encode_s", encode_s);
  sheet.set("problems.decode_verify_ms", median(decode_verify) * 1e3);
  measure_server_layers(opt, sheet, tracer);
  const double plain_bps = plain.batches / plain.wall;
  sheet.set("trace.overhead_pct", 100.0 * (plain_bps / achieved_bps - 1.0));

  print_self_times(tracer);
  std::cout << "tracing overhead: untraced " << plain_bps
            << " batches/s, traced " << achieved_bps << " batches/s\n";
  std::cout << "split: search.kernel_share " << pr.kernel_share()
            << " of a batch in flip_and_scan (probe-derived), "
               "device.host_share "
            << 1.0 - lane_eff
            << " of solve time outside batch searches\n";
  if (w.problem == "k2000") {
    std::cout << "ROADMAP gprof split (synchronous K2000, 400 batches): "
                 "flip_and_scan 30% self, dense_update_block 23%, "
                 "straight_walk 24%, main-search policies 19%, GA ops + "
                 "pools + host <1% (see perfbench/README.md for the gap)\n";
  }
  const std::string trace_path = opt.out_dir + "/" + opt.workload + "-trace.json";
  if (tracer.write(trace_path)) {
    std::cout << "chrome trace: " << trace_path << "\n";
  }
}

/// dense k2000, registry-default dabs (synchronous, one thread), a fixed
/// batch budget per solve: the trajectory is bit-reproducible per seed.
SolveWorkload k2000_sync() {
  SolveWorkload w;
  w.problem = "k2000";
  w.max_batches = 40;
  w.nominal_solve_s = 0.65;
  w.workers = 1.0;
  return w;
}

/// sparse g22, 64-lane bulk dabs on 2 devices x 1 block: 2 bulk workers
/// and 2 host threads, so the solve leaves headroom on a 4-core host
/// (4 workers made its speed follow the host's load), and a fixed wall
/// budget per solve.
SolveWorkload g22_bulk() {
  SolveWorkload w;
  w.problem = "g22";
  w.solver_options = {{"replicas", "64"}, {"devices", "2"}, {"blocks", "1"}};
  w.time_limit = 1.0;
  w.nominal_solve_s = 1.0;
  w.workers = 2.0;
  w.bulk = true;
  w.setup_reps = 21;  // set-up is ~5 ms here; more repetitions, same cost
  return w;
}

}  // namespace

void run_k2000_sync(const Options& opt, Sheet& sheet) {
  run_solve_workload(k2000_sync(), opt, sheet);
}

void run_g22_bulk(const Options& opt, Sheet& sheet) {
  run_solve_workload(g22_bulk(), opt, sheet);
}

int make_reference(const Options& opt) {
  SolveWorkload w;
  if (opt.workload == "k2000-sync") {
    w = k2000_sync();
  } else if (opt.workload == "g22-bulk") {
    w = g22_bulk();
  } else {
    std::cerr << "--make-ref takes k2000-sync or g22-bulk\n";
    return 2;
  }
  const std::string name = w.problem;
  const auto problem = dabs::ProblemRegistry::global().create(name);
  const dabs::QuboModel model = problem->encode();
  const auto solver =
      dabs::SolverRegistry::global().create("dabs", w.solver_options);
  // Successive solves of the workload's own solver configuration.  Scalar
  // solves keep improving with time, so they run in four long rounds, each
  // warm-started from the best so far; bulk solves stall after a few
  // seconds, so they run as many independent 2 s restarts.
  const int rounds =
      w.bulk ? std::max(1, static_cast<int>(opt.seconds / 2.0)) : 4;
  dabs::BitVector best;
  dabs::Energy best_e = dabs::kInfiniteEnergy;
  for (int round = 0; round < rounds; ++round) {
    dabs::SolveRequest req;
    req.model = &model;
    req.stop.time_limit_seconds = opt.seconds / rounds;
    req.seed = mix_seed(opt.seed, 5000 + static_cast<std::uint64_t>(round));
    if (!w.bulk && best_e != dabs::kInfiniteEnergy) req.warm_start = {best};
    const dabs::SolveReport rep = solver->solve(req);
    if (rep.best_energy < best_e) {
      best_e = rep.best_energy;
      best = rep.best_solution;
    }
    std::cout << "round " << round << ": " << rep.best_energy << std::endl;
  }
  if (model.energy(best) != best_e || !problem->verify(best, best_e).ok) {
    std::cerr << "reference search produced an unverifiable result\n";
    return 1;
  }
  std::filesystem::create_directories(opt.out_dir);
  const std::string path = opt.out_dir + "/" + opt.workload + ".json";
  std::ofstream out(path);
  out << "{\n  \"problem\": \"" << name << "\",\n  \"cache_key\": \""
      << problem->cache_key() << "\",\n  \"e_ref\": " << best_e
      << ",\n  \"target\": " << best_e << ",\n  \"solution\": \""
      << to_hex(best) << "\"\n}\n";
  std::cout << "wrote " << path << " (set \"target\" before use)\n";
  return 0;
}

}  // namespace perfbench
