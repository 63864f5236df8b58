#include "core/dabs_solver.hpp"

#include <atomic>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "device/packet.hpp"
#include "evolve/diversity_engine.hpp"
#include "rng/seeder.hpp"
#include "search/batch_search.hpp"
#include "search/bulk_batch_search.hpp"
#include "util/assert.hpp"

namespace dabs {

namespace {

EngineConfig engine_config(const SolverConfig& cfg) {
  EngineConfig e;
  e.islands = cfg.devices;
  e.pool_capacity = cfg.pool_capacity;
  e.algorithms = cfg.algorithms;
  e.operations = cfg.operations;
  e.explore_prob = cfg.explore_prob;
  e.op_params = cfg.op_params;
  e.restart_on_merge = cfg.restart_on_merge;
  e.migration_interval = cfg.migration_interval;
  e.migration_count = cfg.migration_count;
  return e;
}

/// State shared by the workers of one solve() call.  The StopContext's
/// driving-thread surface (should_stop / add_work / note_best) is
/// serialized under `mu` so every worker can act as the driver;
/// worker-safe polls go through expired() / the `stop` latch.
struct RunContext {
  DiversityEngine& engine;
  StopContext& ctx;
  std::mutex mu;  // guards ctx, the best (solution, energy) pair, error

  std::atomic<bool> stop{false};

  BitVector best;
  Energy best_energy = kInfiniteEnergy;
  std::exception_ptr error;  // first exception a threaded worker raised
  std::uint64_t merge_check_interval = 64;

  RunContext(DiversityEngine& e, StopContext& c, std::size_t bits,
             std::uint64_t merge_interval)
      : engine(e), ctx(c), best(bits), merge_check_interval(merge_interval) {}

  /// Worker-safe stop poll for inner loops (migration entries): the latch
  /// plus the thread-safe StopContext subset, no callbacks.  It does not
  /// set the latch itself, so the next check_stop() still runs
  /// should_stop() and records why the run ended (e.g. cancelled).
  bool stopping() const {
    return stop.load(std::memory_order_acquire) || ctx.expired();
  }

  /// Full driving-thread check: budget, wall clock, token, target, ticks.
  bool check_stop() {
    if (stop.load(std::memory_order_acquire)) return true;
    std::lock_guard lock(mu);
    if (ctx.should_stop()) stop.store(true, std::memory_order_release);
    return stop.load(std::memory_order_relaxed);
  }

  /// Records a worker's exception (the first one wins) and stops the run;
  /// the caller rethrows it once every worker has joined.
  void fail(std::exception_ptr e) {
    std::lock_guard lock(mu);
    if (!error) error = std::move(e);
    stop.store(true, std::memory_order_release);
  }

  /// Charges `batches` generated targets against the batch budget.
  void add_work(std::uint64_t batches) {
    std::lock_guard lock(mu);
    ctx.add_work(batches);
  }

  /// Hands a batch result to the engine and updates the global best.
  /// note_best() latches the target / TTS and fires on_new_best — the
  /// observer contract (fast, thread-safe) keeps the lock hold short.
  void on_result(const Packet& p) {
    engine.accept_result(p);
    std::lock_guard lock(mu);
    if (p.energy < best_energy) {
      best_energy = p.energy;
      best = p.solution;
      engine.note_improvement(ctx.elapsed_seconds(), p.energy, p.algo, p.op);
      ctx.note_best(p.energy);
      if (ctx.reached_target()) stop.store(true, std::memory_order_release);
    }
  }
};

/// One island of the ring as its searchers see it.  The engine lets only
/// one thread at a time drive an island, so next_packet, maybe_migrate and
/// the island's generation RNG are used under `mu`.
struct Island {
  std::mutex mu;
  Rng rng;
  std::uint64_t generated = 0;  // targets drawn from this island
};

/// One CUDA-block equivalent: a persistent batch searcher — scalar, or R
/// bulk lanes — bound to the island it draws its targets from.
class Searcher {
 public:
  Searcher(const QuboModel& model, const DeviceConfig& device,
           std::uint32_t island, std::uint64_t seed)
      : island_(island), lanes_(device.replicas) {
    if (device.replicas > 1) {
      bulk_ = std::make_unique<BulkBatchSearch>(model, device.batch,
                                                device.replicas, seed);
      targets_.resize(device.replicas);
    } else {
      scalar_ = std::make_unique<BatchSearch>(model, device.batch, seed);
    }
  }

  std::uint32_t island() const noexcept { return island_; }

  /// One batch per lane: draws every lane's target from the island, runs
  /// them, and hands each result back to the engine.  Returns the island's
  /// generated-target count right after this step's draws.
  std::uint64_t step(RunContext& rc, Island& isl) {
    std::uint64_t generated = 0;
    {
      std::lock_guard lock(isl.mu);
      for (Packet& p : lanes_) p = rc.engine.next_packet(island_, isl.rng);
      generated = isl.generated += lanes_.size();
    }
    rc.add_work(lanes_.size());
    if (bulk_) {
      for (std::size_t k = 0; k < lanes_.size(); ++k) {
        targets_[k] = std::move(lanes_[k].solution);
      }
      std::vector<BatchResult> results = bulk_->run(targets_);
      for (std::size_t k = 0; k < lanes_.size(); ++k) {
        lanes_[k].solution = std::move(results[k].best);
        lanes_[k].energy = results[k].best_energy;
      }
    } else {
      BatchResult r = scalar_->run(lanes_[0].solution, lanes_[0].algo);
      lanes_[0].solution = std::move(r.best);
      lanes_[0].energy = r.best_energy;
    }
    for (const Packet& p : lanes_) rc.on_result(p);
    std::lock_guard lock(isl.mu);
    rc.engine.maybe_migrate(island_, [&rc] { return rc.stopping(); });
    return generated;
  }

 private:
  std::uint32_t island_;
  // Exactly one of the two searchers exists (replicas == 1 vs > 1).
  std::unique_ptr<BatchSearch> scalar_;
  std::unique_ptr<BulkBatchSearch> bulk_;
  std::vector<Packet> lanes_;       // one packet per lane, reused per step
  std::vector<BitVector> targets_;  // bulk lane targets, reused per step
};

/// A threaded worker: steps its searcher until the run stops.  The worker
/// with `checks_restart` (island 0's first searcher) also checks for a
/// merged ring every merge_check_interval targets drawn from island 0.
/// An exception (e.g. from an observer callback) stops the run and is
/// handed to the caller through rc.fail().
void worker_loop(RunContext& rc, Searcher& s, Island& isl,
                 bool checks_restart) noexcept {
  try {
    std::uint64_t last_check = 0;
    while (!rc.check_stop()) {
      const std::uint64_t generated = s.step(rc, isl);
      if (checks_restart &&
          generated - last_check >= rc.merge_check_interval) {
        last_check = generated;
        rc.engine.check_restart();
      }
    }
  } catch (...) {
    rc.fail(std::current_exception());
  }
}

/// One thread per searcher; the caller runs searcher 0 itself.
void run_threaded(RunContext& rc, std::vector<Searcher>& searchers,
                  std::vector<Island>& islands) {
  std::vector<std::thread> threads;
  threads.reserve(searchers.size() - 1);
  try {
    for (std::size_t w = 1; w < searchers.size(); ++w) {
      Searcher& s = searchers[w];
      threads.emplace_back(worker_loop, std::ref(rc), std::ref(s),
                           std::ref(islands[s.island()]), false);
    }
  } catch (...) {
    rc.fail(std::current_exception());  // stops the workers already started
  }
  worker_loop(rc, searchers[0], islands[0], true);
  for (std::thread& t : threads) t.join();
  if (rc.error) std::rethrow_exception(rc.error);
}

/// The same step on the caller, round-robin over islands and over each
/// island's blocks — bit-reproducible for a fixed seed.
void run_synchronous(RunContext& rc, std::vector<Searcher>& searchers,
                     std::vector<Island>& islands) {
  const std::size_t devices = islands.size();
  const std::size_t blocks = searchers.size() / devices;
  std::uint64_t round = 0;
  while (!rc.check_stop()) {
    const std::size_t i = round % devices;
    const std::size_t block = (round / devices) % blocks;
    searchers[i * blocks + block].step(rc, islands[i]);
    ++round;
    if (round % (rc.merge_check_interval * devices) == 0) {
      rc.engine.check_restart();
    }
  }
}

/// One full framework run driven through the unified stop/progress
/// protocol; both execution modes share the RunContext surface, so
/// synchronous runs stay bit-identical with or without token/observer.
SolveResult run_dabs(const SolverConfig& cfg, const QuboModel& model,
                     StopContext& ctx) {
  DABS_CHECK(model.size() > 0, "cannot solve an empty model");
  DABS_CHECK(!cfg.stop.unbounded(),
             "refusing an unbounded run: set a target energy, time limit, "
             "work budget, or cancel via a bounded request");
  MersenneSeeder seeder(cfg.seed);
  DiversityEngine engine(engine_config(cfg), model.size(), seeder);
  // Searcher seeds are drawn device-major, then one RNG per island.
  std::vector<Searcher> searchers;
  searchers.reserve(cfg.devices * cfg.device.blocks);
  for (std::uint32_t i = 0; i < cfg.devices; ++i) {
    for (std::uint32_t b = 0; b < cfg.device.blocks; ++b) {
      searchers.emplace_back(model, cfg.device, i, seeder.next_seed());
    }
  }
  std::vector<Island> islands(cfg.devices);
  for (Island& isl : islands) isl.rng = seeder.next_rng();
  RunContext rc(engine, ctx, model.size(), cfg.merge_check_interval);

  // Seed the pools (and the global best) with any warm-start solutions.
  for (std::size_t i = 0; i < cfg.warm_start.size(); ++i) {
    const BitVector& x = cfg.warm_start[i];
    DABS_CHECK(x.size() == model.size(),
               "warm-start solution length mismatch");
    Packet p;
    p.solution = x;
    p.energy = model.energy(x);
    p.algo = cfg.algorithms[i % cfg.algorithms.size()];
    p.op = cfg.operations[i % cfg.operations.size()];
    p.pool_index = static_cast<std::uint32_t>(i % cfg.devices);
    rc.on_result(p);
  }

  // A run cancelled before the first batch result must still report a
  // real (solution, energy) pair, so fold one evaluated initial pool
  // entry into the global best exactly like a warm start.
  if (rc.best_energy == kInfiniteEnergy) {
    const PoolEntry first = engine.ring().pool(0).entry(0);
    Packet p;
    p.solution = first.solution;
    p.energy = model.energy(p.solution);
    p.algo = first.algo;
    p.op = first.op;
    p.pool_index = 0;
    rc.on_result(p);
  }

  if (cfg.mode == ExecutionMode::kThreaded) {
    run_threaded(rc, searchers, islands);
  } else {
    run_synchronous(rc, searchers, islands);
  }

  SolveResult r;
  r.best_solution = rc.best;
  r.best_energy = rc.best_energy;
  r.reached_target = ctx.reached_target();
  r.tts_seconds = ctx.tts_seconds();
  r.elapsed_seconds = ctx.elapsed_seconds();
  r.batches = ctx.work();
  r.restarts = static_cast<std::uint32_t>(engine.restarts());
  r.migrations = engine.migrations();
  r.cancelled = ctx.cancelled();
  r.stats = engine.stats();
  engine.fill_extras(r.extras);
  return r;
}

}  // namespace

DabsSolver::DabsSolver(SolverConfig config) : config_(std::move(config)) {
  config_.validate();
}

SolveResult DabsSolver::solve(const QuboModel& model) {
  StopContext ctx(config_.stop);
  return run_dabs(config_, model, ctx);
}

SolveReport DabsSolver::solve(const SolveRequest& request) {
  const QuboModel& model = request_model(request);
  SolverConfig cfg = config_;
  if (!request.stop.unbounded()) cfg.stop = request.stop;
  if (request.seed) cfg.seed = *request.seed;
  if (!request.warm_start.empty()) cfg.warm_start = request.warm_start;
  StopContext ctx(cfg.stop, request.stop_token, request.observer,
                  request.tick_seconds);
  const SolveResult r = run_dabs(cfg, model, ctx);
  return make_report(name(), r);
}

}  // namespace dabs
