// The http-jobs workload: the solve server (net::SolveServer over a JobApi
// with 2 solver workers, as `dabs_cli serve --jobs 2` builds it) fed a
// stream of tiny verified jobs over HTTP from one client thread.
//
// Jobs are dabs/sa/tabu on small maxcut and qasp instances: mostly a hot
// set of repeated problem specs (model-cache hits) beside distinct specs
// (misses, which encode and insert).  Every instance has at most 16
// variables, so the benchmark certifies each result against the exact
// optimum from the registry's exhaustive solver.
//
// Two phases share one server:
//   open loop    Poisson arrivals at a fixed offered rate below the
//                server's capacity; each job is timed from when it was due,
//                so a stall also charges the jobs queued behind it;
//   closed loop  a window of jobs kept in flight on one connection, for
//                saturation throughput.
//
// The measured server runs without the job journal: on a shared disk the
// fsync'd journal made run-to-run throughput spread beyond any bound the
// benchmark may set (see perfbench/README.md).  The traced run measures
// the journal on its own: JobJournal::append latency and a short pass
// against a journaled server for the records written per job.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "core/solve_report.hpp"
#include "core/solver_registry.hpp"
#include "io/json_reader.hpp"
#include "net/http_client.hpp"
#include "net/job_api.hpp"
#include "net/solve_server.hpp"
#include "obs/metrics.hpp"
#include "problems/problem_registry.hpp"
#include "probes.hpp"
#include "rng/xorshift.hpp"
#include "service/job_journal.hpp"

namespace perfbench {

namespace {

using dabs::io::JsonValue;

/// Offered rate of the open loop, jobs/s: about a tenth of the server's
/// saturation throughput on the reference host (see README).
constexpr double kOfferedRate = 400.0;
/// Jobs kept in flight by the closed loop (2 per solver worker).
constexpr std::size_t kWindow = 4;
constexpr std::size_t kWorkers = 2;
constexpr double kHotShare = 0.8;
constexpr std::uint64_t kHotSeeds = 8;
/// Report extras the traced run averages over dabs jobs.
const char* const kEvolveExtras[] = {"packets_accepted", "packets_generated",
                                     "pool_entropy",     "pool_min_hamming",
                                     "pool_restarts",    "migrations"};
/// Client pause after a poll round that found nothing finished.
constexpr std::chrono::microseconds kPollInterval{100};

struct SolverMix {
  const char* solver;
  std::uint64_t budget;  // batches for dabs, flips for the baselines
};

/// Both families are unconstrained, so every result decodes to a feasible
/// solution and verify() checks the energy<->objective identity.  QAP is
/// deliberately absent: at budgets that keep a job this small, dabs and tabu
/// end on an infeasible assignment about once in 20k-60k jobs, which
/// verify() rightly rejects, and a workload whose operations fail by chance
/// cannot be a benchmark.
struct Family {
  const char* problem;
  /// Integer problem params besides the instance seed.
  std::vector<std::pair<const char*, int>> params;
  const char* seed_key;
  std::vector<SolverMix> solvers;
};
const Family kFamilies[] = {
    {"maxcut", {{"n", 16}, {"m", 40}}, "seed",
     {{"dabs", 4}, {"sa", 200}, {"tabu", 24}}},
    {"qasp", {{"m", 2}, {"r", 4}, {"nodes", 16}}, "value-seed",
     {{"dabs", 4}, {"sa", 200}, {"tabu", 24}}},
};

/// The registry instance a job names, as the server will build it.
std::unique_ptr<dabs::Problem> make_problem(std::size_t family,
                                            std::uint64_t problem_seed) {
  const Family& f = kFamilies[family];
  dabs::SolverOptions params;
  for (const auto& [k, v] : f.params) params.set(k, std::to_string(v));
  params.set(f.seed_key, std::to_string(problem_seed));
  return dabs::ProblemRegistry::global().create(f.problem, params);
}

/// True when a status reply's report carries the decode/verify verdict.
bool has_verdict(const JsonValue& status) {
  const JsonValue* report = status.find("report");
  const JsonValue* extras = report ? report->find("extras") : nullptr;
  return extras != nullptr && extras->find("verified") != nullptr;
}

/// One generated job.
struct JobDraw {
  std::size_t family = 0;
  std::uint64_t problem_seed = 0;
  std::string body;
};

/// "<problem>#<seed>": names an instance in messages.
std::string instance_name(std::size_t family, std::uint64_t problem_seed) {
  return std::string(kFamilies[family].problem) + "#" +
         std::to_string(problem_seed);
}

class JobGenerator {
 public:
  explicit JobGenerator(std::uint64_t seed) : rng_(seed) {}
  JobDraw next() {
    JobDraw d;
    d.family = rng_.next_index(std::size(kFamilies));
    const bool hot = rng_.next_unit() < kHotShare;
    d.problem_seed = hot ? 1 + rng_.next_index(kHotSeeds)
                         : 1000 + (rng_() >> 24);  // distinct spec
    const Family& f = kFamilies[d.family];
    const SolverMix& s = f.solvers[rng_.next_index(f.solvers.size())];
    std::ostringstream body;
    body << "{\"problem\": \"" << f.problem << "\", \"params\": {";
    for (const auto& [k, v] : f.params) body << '"' << k << "\": " << v << ", ";
    body << '"' << f.seed_key << "\": " << d.problem_seed
         << "}, \"solver\": \"" << s.solver
         << "\", \"max_batches\": " << s.budget
         << ", \"seed\": " << (rng_() >> 16) << "}";
    d.body = body.str();
    return d;
  }

 private:
  dabs::Rng rng_;
};

/// Exact optimum of every instance a job used, from the exhaustive solver
/// (all instances have at most 16 variables).
class Optima {
 public:
  dabs::Energy of(std::size_t family, std::uint64_t problem_seed) {
    const auto key = std::make_pair(family, problem_seed);
    const auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;
    const auto problem = make_problem(family, problem_seed);
    const dabs::QuboModel model = problem->encode();
    const auto exact = dabs::SolverRegistry::global().create("exhaustive");
    dabs::SolveRequest req;
    req.model = &model;
    req.stop.time_limit_seconds = 60.0;
    const dabs::SolveReport rep = exact->solve(req);
    if (model.energy(rep.best_solution) != rep.best_energy ||
        !problem->verify(rep.best_solution, rep.best_energy).ok) {
      throw std::runtime_error("exhaustive optimum of " +
                               instance_name(family, problem_seed) +
                               " does not verify");
    }
    cache_[key] = rep.best_energy;
    return rep.best_energy;
  }
  std::size_t size() const { return cache_.size(); }

 private:
  std::map<std::pair<std::size_t, std::uint64_t>, dabs::Energy> cache_;
};

/// The server under test, as `dabs_cli serve --jobs 2 [--journal <path>]`
/// builds it (no journal when `journal_path` is empty), serving on an
/// ephemeral port from its own thread.
class Server {
 public:
  explicit Server(const std::string& journal_path) {
    dabs::net::JobApi::Config api;
    api.threads = kWorkers;
    api.journal_path = journal_path;
    api_ = std::make_unique<dabs::net::JobApi>(api);
    dabs::net::SolveServer::Config config;
    config.http.host = "127.0.0.1";
    config.http.port = 0;
    server_ = std::make_unique<dabs::net::SolveServer>(config, *api_);
  }
  ~Server() {
    if (thread_.joinable()) {
      server_->stop();
      thread_.join();
    }
  }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;
  void start() {
    thread_ = std::thread([this] { server_->run(); });
  }
  std::uint16_t port() const { return server_->port(); }

 private:
  std::unique_ptr<dabs::net::JobApi> api_;
  std::unique_ptr<dabs::net::SolveServer> server_;
  std::thread thread_;  // declared last: runs against the members above
};

/// One job in flight.
struct Flight {
  JobDraw draw;
  std::uint64_t id = 0;
  double due = 0.0;  // seconds on the phase clock
  std::uint64_t trace_id = 0;
  double trace_start = 0.0;  // tracer clock at submission
};

/// A terminal job as observed by the client.  Quality and the optimum
/// check are filled in by certify() after the pass, outside the timings.
struct Finished {
  std::size_t family = 0;
  std::uint64_t problem_seed = 0;
  std::uint64_t id = 0;
  double latency = kInf;  // due -> terminal observed; inf when failed
  bool done = false;      // state "done" with a report
  bool verified = false;  // the report's own decode/verify verdict
  dabs::Energy energy = 0;
  double run_s = 0.0;
  double batches = 0.0;
  /// The evolve-layer report extras of dabs jobs, in kEvolveExtras order.
  bool has_evolve = false;
  std::array<double, std::size(kEvolveExtras)> evolve{};
  // Set by certify():
  bool ok = false;
  bool optimal = false;
  double energy_gap_pct = 0.0;
};

/// The client: one keep-alive connection, request timings, checks.
class Client {
 public:
  Client(std::uint16_t port, Sheet& sheet, Tracer& tracer)
      : http_("127.0.0.1", port), sheet_(sheet), tracer_(tracer) {}

  /// POST /v1/jobs; false (and a failed operation) unless 202.
  bool submit(Flight& f) {
    const double s = tracer_.now();
    f.trace_start = s;
    const auto t0 = Clock::now();
    dabs::net::HttpClient::Response r;
    try {
      r = http_.request("POST", "/v1/jobs", f.draw.body);
    } catch (const std::exception& e) {
      ++errors;
      sheet_.record(false, std::string("submit: ") + e.what());
      return false;
    }
    submit_ms.push_back(seconds_since(t0) * 1e3);
    tracer_.span("net.submit", f.trace_id, s, tracer_.now());
    if (r.status != 202) {
      ++errors;
      sheet_.record(false, "submit answered " + std::to_string(r.status) +
                               ": " + r.body);
      return false;
    }
    f.id = static_cast<std::uint64_t>(
        member(dabs::io::parse_json(r.body), "job_id").as_int());
    return true;
  }

  /// GET /v1/jobs/<id>; returns true when the job is terminal and fills
  /// `out`.  A job that did not end "done" is a failed operation here.
  bool poll(const Flight& f, double now, Finished& out) {
    const double s = tracer_.now();
    const auto t0 = Clock::now();
    dabs::net::HttpClient::Response r;
    try {
      r = http_.request("GET", "/v1/jobs/" + std::to_string(f.id));
    } catch (const std::exception& e) {
      ++errors;
      sheet_.record(false, std::string("status: ") + e.what());
      out = Finished{};
      return true;
    }
    status_ms.push_back(seconds_since(t0) * 1e3);
    tracer_.span("net.status", f.trace_id, s, tracer_.now());
    ++polls;
    if (r.status != 200) {
      ++errors;
      sheet_.record(false, "status answered " + std::to_string(r.status));
      out = Finished{};
      return true;
    }
    const JsonValue doc = dabs::io::parse_json(r.body);
    const std::string& state = member(doc, "state").as_string();
    if (state == "queued" || state == "running") return false;
    // The service marks a job done before the server's reaper has decoded,
    // verified and journaled it; the job is final (and durable) once the
    // report carries the "verified" verdict.
    if (state == "done" && !has_verdict(doc)) return false;
    out = check(f, state, doc, now);
    return true;
  }

  std::vector<double> submit_ms, status_ms;
  std::uint64_t polls = 0;
  std::uint64_t errors = 0;

 private:
  Finished check(const Flight& f, const std::string& state,
                 const JsonValue& doc, double now) {
    Finished fin;
    fin.family = f.draw.family;
    fin.problem_seed = f.draw.problem_seed;
    fin.id = f.id;
    const JsonValue* report = doc.find("report");
    if (state != "done" || report == nullptr) {
      sheet_.record(false, "job " + std::to_string(f.id) + " ended " + state);
      return fin;
    }
    const JsonValue& extras = member(*report, "extras");
    if (extras.find(kEvolveExtras[0]) != nullptr) {
      fin.has_evolve = true;
      for (std::size_t i = 0; i < fin.evolve.size(); ++i) {
        fin.evolve[i] = std::stod(member(extras, kEvolveExtras[i]).as_string());
      }
    }
    fin.done = true;
    fin.verified = member(extras, "verified").as_string() == "true";
    fin.energy = member(*report, "best_energy").as_int();
    fin.latency = now - f.due;
    fin.run_s = member(*report, "elapsed_seconds").as_double();
    fin.batches = static_cast<double>(member(*report, "batches").as_int());
    tracer_.span("job", f.trace_id, f.trace_start, tracer_.now());
    return fin;
  }

  dabs::net::HttpClient http_;
  Sheet& sheet_;
  Tracer& tracer_;
};

struct PhaseResult {
  std::vector<Finished> done;  // every job of the phase, in finish order
  std::vector<double> lag;     // open loop: submit time - due time
  double seconds = 0.0;        // phase length (closed loop: until cut-off)
  std::size_t in_window = 0;   // closed loop: jobs finished before cut-off
  double window_batches = 0.0;
};

/// Polls the in-flight jobs round-robin once; finished ones move to `out`.
/// Returns early when `due_now` says the next open-loop job is due.  A
/// round that finds nothing finished sleeps kPollInterval, so the client
/// does not spin the server's event loop.
void poll_round(Client& c, std::vector<Flight>& flying,
                const Clock::time_point t0, std::vector<Finished>& out,
                const std::function<bool()>& due_now) {
  const std::size_t before = out.size();
  for (std::size_t i = 0; i < flying.size();) {
    if (due_now && due_now()) return;
    Finished fin;
    if (c.poll(flying[i], seconds_since(t0), fin)) {
      out.push_back(std::move(fin));
      flying.erase(flying.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
  if (out.size() == before) std::this_thread::sleep_for(kPollInterval);
}

PhaseResult open_loop(Client& c, JobGenerator& gen, dabs::Rng& arrivals,
                      double seconds, std::uint64_t* next_trace_id) {
  PhaseResult res;
  std::vector<Flight> flying;
  const auto t0 = Clock::now();
  double next_due = 0.0;
  const auto due_now = [&] { return seconds_since(t0) >= next_due; };
  while (next_due < seconds || !flying.empty()) {
    if (next_due < seconds && due_now()) {
      Flight f;
      f.draw = gen.next();
      f.due = next_due;
      f.trace_id = (*next_trace_id)++;
      res.lag.push_back(seconds_since(t0) - f.due);
      if (c.submit(f)) {
        flying.push_back(std::move(f));
      } else {
        res.done.push_back(Finished{});
      }
      next_due += -std::log(1.0 - arrivals.next_unit()) / kOfferedRate;
      continue;
    }
    if (flying.empty()) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      continue;
    }
    poll_round(c, flying, t0, res.done,
               next_due < seconds ? std::function<bool()>(due_now)
                                  : std::function<bool()>());
  }
  res.seconds = seconds_since(t0);
  return res;
}

PhaseResult closed_loop(Client& c, JobGenerator& gen, double seconds,
                        std::uint64_t* next_trace_id) {
  PhaseResult res;
  std::vector<Flight> flying;
  const auto t0 = Clock::now();
  while (seconds_since(t0) < seconds || !flying.empty()) {
    const bool open = seconds_since(t0) < seconds;
    while (open && flying.size() < kWindow) {
      Flight f;
      f.draw = gen.next();
      f.due = seconds_since(t0);
      f.trace_id = (*next_trace_id)++;
      if (c.submit(f)) {
        flying.push_back(std::move(f));
      } else {
        res.done.push_back(Finished{});
      }
    }
    const std::size_t before = res.done.size();
    poll_round(c, flying, t0, res.done, {});
    if (open) {
      for (std::size_t i = before; i < res.done.size(); ++i) {
        if (!res.done[i].done) continue;
        ++res.in_window;
        res.window_batches += res.done[i].batches;
      }
      res.seconds = std::min(seconds, seconds_since(t0));
    }
  }
  return res;
}

/// Quantile of a histogram's observations between two snapshots, with the
/// in-bucket linear interpolation PromQL uses.
double histogram_quantile(const dabs::obs::MetricsSnapshot& before,
                          const dabs::obs::MetricsSnapshot& after,
                          const std::string& family, double q) {
  const auto find = [&](const dabs::obs::MetricsSnapshot& s)
      -> const dabs::obs::SampleSnapshot* {
    for (const auto& f : s) {
      if (f.name == family && !f.samples.empty()) return &f.samples[0];
    }
    return nullptr;
  };
  const auto* a = find(after);
  if (a == nullptr) return 0.0;
  const auto* b = find(before);
  std::vector<double> counts(a->buckets.size());
  double total = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    counts[i] = static_cast<double>(a->buckets[i]) -
                (b != nullptr ? static_cast<double>(b->buckets[i]) : 0.0);
    total += counts[i];
  }
  if (total <= 0.0) return 0.0;
  const double rank = q * total;
  double seen = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (seen + counts[i] >= rank && counts[i] > 0.0) {
      if (i >= a->bounds.size()) return a->bounds.back();
      const double lo = i == 0 ? 0.0 : a->bounds[i - 1];
      return lo + (a->bounds[i] - lo) * (rank - seen) / counts[i];
    }
    seen += counts[i];
  }
  return a->bounds.back();
}

double get_cache_hit_ratio(std::uint16_t port) {
  dabs::net::HttpClient http("127.0.0.1", port);
  const auto r = http.request("GET", "/v1/stats");
  const JsonValue doc = dabs::io::parse_json(r.body);
  const JsonValue& cache = member(member(doc, "service"), "model_cache");
  const double hits = static_cast<double>(member(cache, "hits").as_int());
  const double misses = static_cast<double>(member(cache, "misses").as_int());
  return hits / std::max(1.0, hits + misses);
}

std::size_t count_lines(const std::string& path) {
  std::ifstream in(path);
  std::size_t n = 0;
  std::string line;
  while (std::getline(in, line)) n += line.empty() ? 0 : 1;
  return n;
}

/// Checks every terminal job against the exact optimum of its instance:
/// the server must have verified the result, and no energy may lie below
/// the optimum.  Anything else is a failed operation.
void certify(std::vector<Finished>& jobs, Optima& optima, Sheet& sheet) {
  for (Finished& f : jobs) {
    if (!f.done) continue;  // already counted as failed by the client
    const dabs::Energy opt = optima.of(f.family, f.problem_seed);
    if (!f.verified || f.energy < opt) {
      f.latency = kInf;
      sheet.record(false, "job " + std::to_string(f.id) + " (" +
                              instance_name(f.family, f.problem_seed) +
                              "): verified=" +
                              (f.verified ? "true" : "false") + " energy " +
                              std::to_string(f.energy) +
                              " optimum " + std::to_string(opt));
      continue;
    }
    sheet.record(true);
    f.ok = true;
    f.optimal = f.energy == opt;
    f.energy_gap_pct = 100.0 * static_cast<double>(f.energy - opt) /
                       std::max(1.0, std::abs(static_cast<double>(opt)));
  }
}

/// One open + closed pass against a fresh server.
struct Pass {
  PhaseResult open, closed;
  double queue_p50 = 0.0, queue_p99 = 0.0;
  double cache_hit_ratio = 0.0;
  double records_per_job = 0.0;
  std::vector<double> submit_ms, status_ms;
  std::uint64_t polls = 0, errors = 0;
};

Pass run_pass(const Options& opt, double phase_seconds, std::uint64_t stream,
              bool journaled, Sheet& sheet, Optima& optima, Tracer& tracer) {
  const std::string journal =
      journaled ? opt.out_dir + "/http-journal-" + std::to_string(getpid()) +
                      ".jsonl"
                : "";
  if (journaled) std::filesystem::remove(journal);
  Pass p;
  {
    Server server(journal);
    server.start();
    Client client(server.port(), sheet, tracer);
    JobGenerator gen(mix_seed(opt.seed, 2000 + stream));
    dabs::Rng arrivals(mix_seed(opt.seed, 3000 + stream));
    std::uint64_t trace_id = 1;
    const auto before = dabs::obs::MetricsRegistry::global().snapshot();
    p.open = open_loop(client, gen, arrivals, phase_seconds, &trace_id);
    p.closed = closed_loop(client, gen, phase_seconds, &trace_id);
    const auto after = dabs::obs::MetricsRegistry::global().snapshot();
    p.queue_p50 = histogram_quantile(before, after,
                                     "dabs_service_queue_wait_seconds", 0.5);
    p.queue_p99 = histogram_quantile(before, after,
                                     "dabs_service_queue_wait_seconds", 0.99);
    p.cache_hit_ratio = get_cache_hit_ratio(server.port());
    p.submit_ms = client.submit_ms;
    p.status_ms = client.status_ms;
    p.polls = client.polls;
    p.errors = client.errors;
  }  // server drained: the reaper has journaled every terminal record
  certify(p.open.done, optima, sheet);
  certify(p.closed.done, optima, sheet);
  if (journaled) {
    const double jobs =
        static_cast<double>(p.open.done.size() + p.closed.done.size());
    p.records_per_job = static_cast<double>(count_lines(journal)) / jobs;
    std::filesystem::remove(journal);
  }
  return p;
}

/// Every job's due -> terminal latency; failed jobs are +inf, so they miss
/// any latency limit.
std::vector<double> latencies(const PhaseResult& r) {
  std::vector<double> v;
  for (const Finished& f : r.done) v.push_back(f.latency);
  return v;
}

std::vector<Finished> all_jobs(const Pass& p) {
  std::vector<Finished> v = p.open.done;
  v.insert(v.end(), p.closed.done.begin(), p.closed.done.end());
  return v;
}

/// Milliseconds of 200 fsync'd JobJournal::append calls on a journal beside
/// the server's.
std::vector<double> journal_append_probe(const Options& opt, Tracer& tracer) {
  std::vector<double> ms;
  const std::string path = opt.out_dir + "/probe-journal-" +
                           std::to_string(getpid()) + ".jsonl";
  std::filesystem::remove(path);
  {
    dabs::service::JobJournal journal(path);
    dabs::service::JournalRecord rec;
    rec.fingerprint = "0123456789abcdef#1";
    rec.detail = JobGenerator(1).next().body;  // a job body, as submit stores
    for (int i = 0; i < 200; ++i) {
      rec.line = static_cast<std::uint64_t>(i);
      const double s = tracer.now();
      const auto t0 = Clock::now();
      journal.append(rec);
      ms.push_back(seconds_since(t0) * 1e3);
      tracer.span("probe.service.journal_append", 2000000, s, tracer.now());
    }
  }
  std::filesystem::remove(path);
  return ms;
}

/// Solve seconds of every job that passed its checks, as its report says.
std::vector<double> run_seconds(const Pass& p) {
  std::vector<double> v;
  for (const Finished& f : all_jobs(p)) {
    if (f.ok) v.push_back(f.run_s);
  }
  return v;
}

/// The service, net and load layer metrics: a pass of tiny jobs through the
/// server (`phase_seconds` per loop) recorded into `tracer`, the journal
/// append probe, and a 1 s pass against a journaled server for the records
/// it writes per job.  Returns the recorded pass.
Pass set_server_layer_metrics(const Options& opt, double phase_seconds,
                              Sheet& sheet, Optima& optima, Tracer& tracer) {
  Tracer off(false);
  const Pass p = run_pass(opt, phase_seconds, 1, false, sheet, optima, tracer);
  const std::vector<double> append_ms = journal_append_probe(opt, tracer);
  const Pass journaled = run_pass(opt, 1.0, 2, true, sheet, optima, off);
  const std::vector<double> run_s = run_seconds(p);
  const double jobs =
      static_cast<double>(p.open.done.size() + p.closed.done.size());
  sheet.set("service.queue_s_p50", p.queue_p50);
  sheet.set("service.queue_s_p99", p.queue_p99);
  sheet.set("service.run_s_p50", quantile(run_s, 0.5));
  sheet.set("service.run_s_p99", quantile(run_s, 0.99));
  sheet.set("service.cache_hit_ratio", p.cache_hit_ratio);
  sheet.set("service.journal_append_ms_p50", quantile(append_ms, 0.5));
  sheet.set("service.journal_append_ms_p99", quantile(append_ms, 0.99));
  sheet.set("service.journal_records_per_job", journaled.records_per_job);
  sheet.set("net.submit_ms_p50", quantile(p.submit_ms, 0.5));
  sheet.set("net.submit_ms_p99", quantile(p.submit_ms, 0.99));
  sheet.set("net.status_ms_p50", quantile(p.status_ms, 0.5));
  sheet.set("net.status_ms_p99", quantile(p.status_ms, 0.99));
  sheet.set("net.polls_per_job", static_cast<double>(p.polls) / jobs);
  sheet.set("net.errors", static_cast<double>(p.errors));
  sheet.set("load.lag_p99_s", quantile(p.open.lag, 0.99));
  sheet.set("load.job_latency_p99_s", quantile(latencies(p.open), 0.99));
  std::cout << "journal probe: a journaled server completed "
            << static_cast<double>(journaled.closed.in_window) /
                   journaled.closed.seconds
            << " jobs/s in a 1 s closed loop, " << journaled.records_per_job
            << " fsync'd records per job\n";
  return p;
}

}  // namespace

void measure_server_layers(const Options& opt, Sheet& sheet, Tracer& tracer) {
  Optima optima;
  set_server_layer_metrics(opt, 1.5, sheet, optima, tracer);
}

void run_http_jobs(const Options& opt, Sheet& sheet) {
  std::filesystem::create_directories(opt.out_dir);
  Optima optima;

  if (!opt.trace) {
    // Set-up: JobApi (service pool, reaper) + server bind, before any work.
    std::vector<double> setups;
    for (int r = 0; r < 101; ++r) {
      const auto t0 = Clock::now();
      { Server s(""); setups.push_back(seconds_since(t0)); }
    }
    Tracer off(false);
    const Pass p =
        run_pass(opt, 0.45 * opt.seconds, 0, false, sheet, optima, off);
    const std::vector<double> lat = latencies(p.open);
    std::vector<double> tts;
    for (const Finished& f : p.open.done) {
      tts.push_back(f.optimal ? f.latency : kInf);
    }
    const std::vector<Finished> all = all_jobs(p);
    double optimal = 0.0;
    std::vector<double> gaps;
    for (const Finished& f : all) {
      optimal += f.optimal ? 1.0 : 0.0;
      if (f.ok) gaps.push_back(f.energy_gap_pct);
    }
    sheet.set("setup_s", median(setups));
    sheet.set("peak_rss_mb", peak_rss_mb());
    sheet.set("batches_per_s", p.closed.window_batches / p.closed.seconds);
    sheet.set("tts_s", median(tts));
    sheet.set("success_rate", optimal / static_cast<double>(all.size()));
    sheet.set("energy_gap_pct", mean(gaps));
    sheet.set("jobs_per_s",
              static_cast<double>(p.closed.in_window) / p.closed.seconds);
    sheet.set("job_latency_p50_s", quantile(lat, 0.5));
    std::cout << "jobs: open loop " << p.open.done.size() << " at "
              << kOfferedRate << "/s offered (latency samples; p99 "
              << quantile(lat, 0.99) << " s, printed only), closed loop "
              << p.closed.done.size() << " with a window of " << kWindow
              << "; optima certified by exhaustive search for "
              << optima.size() << " instances\n";
    return;
  }

  // Traced run: an untraced and a traced pass of the same jobs (their
  // jobs_per_s difference is the tracing overhead), then the journal and
  // layer probes.
  Tracer tracer(true);
  Tracer off(false);
  const double phase = 0.2 * opt.seconds;
  const Pass plain = run_pass(opt, phase, 1, false, sheet, optima, off);
  const Pass p = set_server_layer_metrics(opt, phase, sheet, optima, tracer);

  // Problem layer and solver-layer probes on one hot-set instance.
  double encode_s = 0.0, decode_verify_ms = 0.0;
  dabs::QuboModel model;
  {
    const auto problem = make_problem(0, 1);
    const int reps = 200;
    auto t0 = Clock::now();
    for (int i = 0; i < reps; ++i) model = problem->encode();
    encode_s = seconds_since(t0) / reps;
    const dabs::BitVector x(model.size());
    t0 = Clock::now();
    for (int i = 0; i < reps; ++i) {
      const dabs::DomainSolution d = problem->decode(x);
      const dabs::VerifyResult v = problem->verify(x, model.energy(x));
      if (!d.feasible || !v.ok) throw std::runtime_error("probe verify failed");
    }
    decode_verify_ms = seconds_since(t0) / reps * 1e3;
  }
  const ProbeResult pr = run_probes(model, opt.seed, 1.0, tracer, 1000000);

  std::vector<std::vector<double>> evolve(std::size(kEvolveExtras));
  for (const Finished& f : all_jobs(p)) {
    if (!f.ok || !f.has_evolve) continue;
    for (std::size_t i = 0; i < evolve.size(); ++i) {
      evolve[i].push_back(f.evolve[i]);
    }
  }
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
  sheet.set("evolve.accept_ratio",
            mean(evolve[0]) / std::max(1e-9, mean(evolve[1])));
  sheet.set("evolve.pool_entropy", mean(evolve[2]));
  sheet.set("evolve.pool_min_hamming", mean(evolve[3]));
  sheet.set("evolve.restarts", mean(evolve[4]));
  sheet.set("evolve.migrations", mean(evolve[5]));
  sheet.set_not_on_path({"device.lane_efficiency", "device.host_share",
                         "core.batches_to_target_p50"});
  sheet.set("core.solve_s_p50", median(run_seconds(p)));
  sheet.set("problems.encode_s", encode_s);
  sheet.set("problems.decode_verify_ms", decode_verify_ms);
  const double plain_jps =
      static_cast<double>(plain.closed.in_window) / plain.closed.seconds;
  const double traced_jps =
      static_cast<double>(p.closed.in_window) / p.closed.seconds;
  sheet.set("trace.overhead_pct", 100.0 * (plain_jps / traced_jps - 1.0));

  print_self_times(tracer);
  std::cout << "tracing overhead: untraced " << plain_jps
            << " jobs/s, traced " << traced_jps << " jobs/s\n";
  const std::string trace_path = opt.out_dir + "/" + opt.workload + "-trace.json";
  if (tracer.write(trace_path)) {
    std::cout << "chrome trace: " << trace_path << "\n";
  }
}

}  // namespace perfbench
