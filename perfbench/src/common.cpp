#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "obs/build_info.hpp"

namespace perfbench {

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------- Sheet --

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> kDefs = {
      {"setup_s", "s"},          {"peak_rss_mb", "MiB"},
      {"batches_per_s", "1/s"},  {"tts_s", "s"},
      {"success_rate", "ratio"}, {"energy_gap_pct", "%"},
      {"jobs_per_s", "1/s"},     {"job_latency_p50_s", "s"},
  };
  return kDefs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> kDefs = {
      {"qubo.flip_and_scan_ns", "ns"},
      {"qubo.bytes_per_flip", "B"},
      {"qubo.bulk_flip_ns_per_lane", "ns"},
      {"search.batch_ms", "ms"},
      {"search.flips_per_batch", "count"},
      {"search.kernel_share", "ratio"},
      {"search.bulk_pass_ms", "ms"},
      {"search.bulk_capacity_bps", "1/s"},
      {"evolve.next_packet_us", "us"},
      {"evolve.accept_result_us", "us"},
      {"evolve.accept_ratio", "ratio"},
      {"evolve.pool_entropy", "bits"},
      {"evolve.pool_min_hamming", "bits"},
      {"evolve.restarts", "count"},
      {"evolve.migrations", "count"},
      {"device.lane_efficiency", "ratio"},
      {"device.host_share", "ratio"},
      {"core.solve_s_p50", "s"},
      {"core.batches_to_target_p50", "count"},
      {"problems.encode_s", "s"},
      {"problems.decode_verify_ms", "ms"},
      {"service.queue_s_p50", "s"},
      {"service.queue_s_p99", "s"},
      {"service.run_s_p50", "s"},
      {"service.run_s_p99", "s"},
      {"service.cache_hit_ratio", "ratio"},
      {"service.journal_append_ms_p50", "ms"},
      {"service.journal_append_ms_p99", "ms"},
      {"service.journal_records_per_job", "count"},
      {"net.submit_ms_p50", "ms"},
      {"net.submit_ms_p99", "ms"},
      {"net.status_ms_p50", "ms"},
      {"net.status_ms_p99", "ms"},
      {"net.polls_per_job", "count"},
      {"net.errors", "count"},
      {"load.lag_p99_s", "s"},
      {"load.job_latency_p99_s", "s"},
      {"trace.overhead_pct", "%"},
  };
  return kDefs;
}

void Sheet::set(const std::string& name, double value) {
  for (const auto* table : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricDef& d : *table) {
      if (name != d.name) continue;
      if (values_.count(name) == 0) order_.push_back(name);
      values_[name] = Value{value, d.unit};
      return;
    }
  }
  throw std::logic_error("undeclared metric " + name);
}

void Sheet::set_not_on_path(const std::vector<std::string>& names) {
  for (const std::string& n : names) set(n, 0.0);
}

void Sheet::require_complete(bool trace) const {
  const auto& table = trace ? per_layer_metrics() : end_to_end_metrics();
  for (const MetricDef& d : table) {
    if (values_.count(d.name) == 0) {
      throw std::logic_error(std::string("metric not emitted: ") + d.name);
    }
  }
  if (values_.size() != table.size()) {
    throw std::logic_error("metrics of both tables emitted in one run");
  }
}

void Sheet::record(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cerr << "perfbench: failed operation: " << what << "\n";
  }
}

std::string Sheet::json_line() const {
  std::ostringstream out;
  out << std::setprecision(17);
  bool finite = true;
  for (const auto& [name, v] : values_) finite = finite && std::isfinite(v.value);
  out << "{\"correct\": " << (failed_ == 0 && finite ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : order_) {
    const Value& v = values_.at(name);
    out << (first ? "" : ", ") << '"' << name << "\": {\"value\": ";
    // JSON has no infinity: an unreachable metric is reported as a huge
    // finite number and marks the run incorrect above.
    if (std::isfinite(v.value)) {
      out << v.value;
    } else {
      out << 1e300;
    }
    out << ", \"unit\": \"" << v.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

std::string Sheet::table() const {
  std::ostringstream out;
  for (const std::string& name : order_) {
    const Value& v = values_.at(name);
    out << "  " << std::left << std::setw(34) << name << std::right
        << std::setw(16) << std::setprecision(6) << v.value << " " << v.unit
        << "\n";
  }
  return out.str();
}

// ---------------------------------------------------------------- stats --

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

double median(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const std::size_t m = s.size() / 2;
  return s.size() % 2 == 1 ? s[m] : 0.5 * (s[m - 1] + s[m]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

// --------------------------------------------------------------- Tracer --

void Tracer::span(const std::string& layer, std::uint64_t id, double start,
                  double end) {
  if (!enabled_) return;
  dabs::obs::TraceSpan s;
  s.name = layer;
  s.category = layer.substr(0, layer.find('.'));
  s.pid = 1;
  s.tid = id;
  s.start_seconds = start;
  s.duration_seconds = end - start;
  chrome_.add_span(std::move(s));
  std::lock_guard lock(mu_);
  spans_.push_back(Span{layer, id, start, end});
}

void Tracer::instant(const std::string& name, std::uint64_t id, double at,
                     const std::string& detail) {
  if (!enabled_) return;
  dabs::obs::TraceInstant i;
  i.name = name;
  i.category = name.substr(0, name.find('.'));
  i.pid = 1;
  i.tid = id;
  i.at_seconds = at;
  i.args.emplace_back("detail", detail);
  chrome_.add_instant(std::move(i));
}

std::map<std::string, Tracer::LayerTime> Tracer::self_times() const {
  std::vector<Span> spans;
  {
    std::lock_guard lock(mu_);
    spans = spans_;
  }
  // Per id, sort by (start asc, end desc) so parents precede children, then
  // walk with a stack: each span's time is subtracted from its innermost
  // enclosing span's self time.
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.id != b.id) return a.id < b.id;
    if (a.start != b.start) return a.start < b.start;
    return a.end > b.end;
  });
  std::map<std::string, LayerTime> out;
  std::vector<const Span*> stack;
  std::uint64_t current_id = ~std::uint64_t{0};
  for (const Span& s : spans) {
    if (s.id != current_id) {
      stack.clear();
      current_id = s.id;
    }
    while (!stack.empty() && stack.back()->end <= s.start) stack.pop_back();
    const double d = s.end - s.start;
    LayerTime& lt = out[s.layer];
    ++lt.spans;
    lt.total += d;
    lt.self += d;
    if (!stack.empty()) out[stack.back()->layer].self -= d;
    stack.push_back(&s);
  }
  return out;
}

void print_self_times(const Tracer& tracer) {
  std::cout << "per-layer self time (traced run; probe.* rows are "
               "probe-derived):\n";
  std::cout << "  " << std::left << std::setw(34) << "span" << std::right
            << std::setw(8) << "count" << std::setw(14) << "total_s"
            << std::setw(14) << "self_s" << "\n";
  for (const auto& [layer, t] : tracer.self_times()) {
    std::cout << "  " << std::left << std::setw(34) << layer << std::right
              << std::setw(8) << t.spans << std::setw(14) << t.total
              << std::setw(14) << t.self << "\n";
  }
}

bool Tracer::write(const std::string& path) const {
  return chrome_.write_file(path);
}

// ----------------------------------------------------------- provenance --

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string host_name() {
  char buf[256] = {};
  if (gethostname(buf, sizeof(buf) - 1) != 0) return "unknown";
  return buf;
}

}  // namespace

std::string provenance_json() {
  const dabs::obs::BuildInfo& b = dabs::obs::build_info();
  std::ostringstream out;
  out << "{\"host\": \"" << json_escape(host_name()) << "\", \"nproc\": "
      << std::thread::hardware_concurrency() << ", \"build_type\": \""
      << json_escape(b.build_type) << "\", \"release\": "
      << (b.build_type == "Release" ? "true" : "false")
      << ", \"compiler\": \"" << json_escape(b.compiler)
      << "\", \"flags\": \"" << json_escape(b.flags) << "\", \"git\": \""
      << json_escape(b.git) << "\", \"version\": \"" << json_escape(b.version)
      << "\"}";
  return out.str();
}

void print_provenance() {
  const dabs::obs::BuildInfo& b = dabs::obs::build_info();
  std::cout << "provenance: " << provenance_json() << "\n";
  if (b.build_type != "Release") {
    std::cout << "WARNING: library built as '" << b.build_type
              << "', not Release; figures are not comparable with Release "
                 "runs\n";
  }
}

const dabs::io::JsonValue& member(const dabs::io::JsonValue& v,
                                  const std::string& key) {
  const dabs::io::JsonValue* m = v.find(key);
  if (m == nullptr) throw std::runtime_error("JSON has no '" + key + "'");
  return *m;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ------------------------------------------------------------ references --

std::string to_hex(const dabs::BitVector& x) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  for (std::size_t i = 0; i < x.size(); i += 4) {
    unsigned nib = 0;
    for (std::size_t b = 0; b < 4 && i + b < x.size(); ++b) {
      if (x.get(i + b)) nib |= 1u << b;
    }
    out += kDigits[nib];
  }
  return out;
}

dabs::BitVector from_hex(const std::string& hex, std::size_t bits) {
  if (hex.size() != (bits + 3) / 4) {
    throw std::runtime_error("reference solution has " +
                             std::to_string(hex.size()) +
                             " hex digits, expected " +
                             std::to_string((bits + 3) / 4));
  }
  dabs::BitVector x(bits);
  for (std::size_t d = 0; d < hex.size(); ++d) {
    const char c = hex[d];
    unsigned nib = 0;
    if (c >= '0' && c <= '9') {
      nib = static_cast<unsigned>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      nib = static_cast<unsigned>(c - 'a' + 10);
    } else {
      throw std::runtime_error("reference solution is not lowercase hex");
    }
    for (std::size_t b = 0; b < 4 && d * 4 + b < bits; ++b) {
      x.set(d * 4 + b, (nib >> b) & 1u);
    }
  }
  return x;
}

Reference load_reference(const Options& opt, const dabs::Problem& problem,
                         const dabs::QuboModel& model) {
  const std::string path = opt.ref_dir + "/" + opt.workload + ".json";
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read reference file " + path);
  std::stringstream text;
  text << in.rdbuf();
  const dabs::io::JsonValue doc = dabs::io::parse_json(text.str());
  Reference ref;
  ref.cache_key = member(doc, "cache_key").as_string();
  ref.e_ref = member(doc, "e_ref").as_int();
  ref.target = member(doc, "target").as_int();
  ref.solution = from_hex(member(doc, "solution").as_string(), model.size());
  if (ref.cache_key != problem.cache_key()) {
    throw std::runtime_error("reference " + path + " certifies " +
                             ref.cache_key + ", the workload solves " +
                             problem.cache_key());
  }
  const dabs::Energy e = model.energy(ref.solution);
  if (e != ref.e_ref) {
    throw std::runtime_error("reference " + path + ": solution evaluates to " +
                             std::to_string(e) + ", file says " +
                             std::to_string(ref.e_ref));
  }
  const dabs::VerifyResult v = problem.verify(ref.solution, e);
  if (!v.ok) {
    throw std::runtime_error("reference " + path +
                             " fails verify(): " + v.message);
  }
  if (ref.target < ref.e_ref) {
    throw std::runtime_error("reference " + path +
                             ": target is below the reference energy");
  }
  return ref;
}

std::string save_beaten_reference(const Options& opt,
                                  const std::string& cache_key,
                                  dabs::Energy energy,
                                  const dabs::BitVector& x) {
  std::filesystem::create_directories(opt.out_dir);
  const std::string path = opt.out_dir + "/ref-beaten-" + opt.workload + "-" +
                           std::to_string(energy) + ".json";
  std::ofstream out(path);
  out << "{\"cache_key\": \"" << cache_key << "\", \"energy\": " << energy
      << ", \"solution\": \"" << to_hex(x) << "\"}\n";
  return path;
}

}  // namespace perfbench
