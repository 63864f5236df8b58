// Shared plumbing of the DABS benchmark: run options, the metric sheet that
// becomes the final JSON line, sample statistics, the in-memory span
// recorder for traced runs, provenance, and the pinned references.
//
// Everything here sits outside the library: the benchmark times calls into
// the public functions of src/ and reads the program's own outputs.
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "io/json_reader.hpp"
#include "obs/trace.hpp"
#include "problems/problem.hpp"
#include "qubo/qubo_model.hpp"
#include "util/bit_vector.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Command-line options of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for traces, journals, result files (inside the checkout).
  std::string out_dir = ".bench_build/perfbench-out";
  /// Directory holding the pinned reference files.
  std::string ref_dir = "perfbench/refs";
  /// Self-test hooks: corrupt one reported energy / fail one verify so the
  /// self-test can prove such results are counted as failed operations.
  bool inject_bad_energy = false;
  bool inject_bad_verify = false;
};

/// splitmix64: derives independent, reproducible seeds from the run seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// One named metric and its unit, as BENCHMARK.json declares it.
struct MetricDef {
  const char* name;
  const char* unit;
};
/// Printed by every run with the trace off / on, in this order.
const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();

/// Metrics of one run plus the attempted/failed ledger.
class Sheet {
 public:
  /// Sets a declared metric (its unit comes from the tables above); throws
  /// std::logic_error for an undeclared name.
  void set(const std::string& name, double value);
  /// Sets every listed metric to 0: layers that are not on this
  /// workload's path (documented in perfbench/README.md).
  void set_not_on_path(const std::vector<std::string>& names);
  /// Throws std::logic_error unless every metric of the table in force
  /// (per-layer when `trace`) was set.
  void require_complete(bool trace) const;
  /// Counts one operation; `ok` false makes it a failed one.  `what`
  /// explains a failure on stderr.
  void record(bool ok, const std::string& what = "");
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  /// The final stdout line: {"correct", "attempted", "failed", "metrics"}.
  std::string json_line() const;
  /// Human-readable table of every metric.
  std::string table() const;

 private:
  struct Value {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Value> values_;
  std::vector<std::string> order_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Nearest-rank quantile (q in [0,1]) of `v`; +inf entries sort last.
double quantile(std::vector<double> v, double q);
double median(const std::vector<double>& v);
double mean(const std::vector<double>& v);

/// Spans and instants kept in memory; written as Chrome trace JSON through
/// dabs::obs::TraceCollector at the end.  Spans of one solve or job share `id`
/// (the Chrome row); a span's parent is the innermost span of the same id
/// that encloses it.  A disabled recorder costs one branch per call.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}
  bool enabled() const { return enabled_; }

  struct Span {
    std::string layer;  // "core.solve", "net.submit", ...
    std::uint64_t id = 0;
    double start = 0.0;
    double end = 0.0;
  };
  double now() const { return seconds_since(t0_); }
  void span(const std::string& layer, std::uint64_t id, double start,
            double end);
  void instant(const std::string& name, std::uint64_t id, double at,
               const std::string& detail);
  /// Per-layer totals: span count, total and self seconds (self = a span's
  /// time minus the part covered by spans nested in it on the same id).
  struct LayerTime {
    std::size_t spans = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::map<std::string, LayerTime> self_times() const;
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point t0_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  dabs::obs::TraceCollector chrome_;
};

/// Prints the tracer's per-layer self-time table.
void print_self_times(const Tracer& tracer);

/// RAII span: records [construction, destruction) when the tracer is on.
class Scope {
 public:
  Scope(Tracer& t, std::string layer, std::uint64_t id)
      : t_(t), layer_(std::move(layer)), id_(id),
        start_(t.enabled() ? t.now() : 0.0) {}
  ~Scope() {
    if (t_.enabled()) t_.span(layer_, id_, start_, t_.now());
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  std::string layer_;
  std::uint64_t id_;
  double start_;
};

/// Host, nproc, build type, compiler, flags, git sha; a warning line when
/// the library was not built as Release.
std::string provenance_json();
void print_provenance();

/// Object member `key` of `v`; throws std::runtime_error when it is
/// missing (replies and reference files are outside input).
const dabs::io::JsonValue& member(const dabs::io::JsonValue& v,
                                  const std::string& key);

/// Peak resident set size of this process in MiB.
double peak_rss_mb();

/// Hex encoding of a solution (bit i is bit (i % 4) of hex digit i / 4).
std::string to_hex(const dabs::BitVector& x);
dabs::BitVector from_hex(const std::string& hex, std::size_t bits);

/// A pinned, certified reference for one solve workload.
struct Reference {
  std::string cache_key;  // the instance it certifies
  dabs::Energy e_ref = 0;
  dabs::Energy target = 0;  // the tts_s target
  dabs::BitVector solution;
};

/// Loads `<ref_dir>/<workload>.json` and certifies it: the solution is
/// re-evaluated against `model` and must give e_ref exactly, and
/// `problem.verify()` must pass.  Throws std::runtime_error otherwise.
Reference load_reference(const Options& opt, const dabs::Problem& problem,
                         const dabs::QuboModel& model);

/// A solution beating the pinned reference: saved under out_dir for a
/// deliberate update of the reference file.  Returns the saved path.
std::string save_beaten_reference(const Options& opt,
                                  const std::string& cache_key,
                                  dabs::Energy energy,
                                  const dabs::BitVector& x);

/// Workload entry points.  Each fills `sheet` with the end-to-end metrics
/// (trace off) or the per-layer metrics (trace on).
void run_k2000_sync(const Options& opt, Sheet& sheet);
void run_g22_bulk(const Options& opt, Sheet& sheet);
void run_http_jobs(const Options& opt, Sheet& sheet);

/// Sets the service, net and load per-layer metrics from a short pass of
/// tiny jobs through the HTTP solve server (the http-jobs machinery), the
/// journal append probe and a pass against a journaled server.  Every
/// traced run calls it, so those layers are measured on every workload.
void measure_server_layers(const Options& opt, Sheet& sheet, Tracer& tracer);

/// Reference search for a solve workload: long threaded solves whose best
/// result is written as a new reference file (never over the tracked one).
int make_reference(const Options& opt);

}  // namespace perfbench
