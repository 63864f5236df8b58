#include "service/batch_runner.hpp"

#include <chrono>
#include <cstdio>
#include <functional>
#include <istream>
#include <limits>
#include <memory>
#include <new>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "io/json_reader.hpp"
#include "io/json_writer.hpp"
#include "service/job_journal.hpp"
#include "service/job_ledger.hpp"
#include "util/failpoint.hpp"

namespace dabs::service {

namespace {

/// Converts one "options" member to the string form SolverOptions parses.
std::string option_to_string(const std::string& key,
                             const io::JsonValue& value) {
  switch (value.kind()) {
    case io::JsonValue::Kind::kString:
      return value.as_string();
    case io::JsonValue::Kind::kBool:
      return value.as_bool() ? "true" : "false";
    case io::JsonValue::Kind::kNumber: {
      try {
        return std::to_string(value.as_int());
      } catch (const std::invalid_argument&) {
        // Non-integral: shortest round-trippable decimal.
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", value.as_double());
        return buf;
      }
    }
    default:
      throw std::invalid_argument("option '" + key +
                                  "' must be a string, number, or boolean");
  }
}

std::int64_t require_nonnegative(const char* key, std::int64_t v) {
  if (v < 0) {
    throw std::invalid_argument(std::string("'") + key +
                                "' must be non-negative");
  }
  return v;
}

}  // namespace

BatchJob parse_batch_job(const std::string& json_line) {
  const io::JsonValue root = io::parse_json(json_line);
  if (!root.is_object()) {
    throw std::invalid_argument("job line must be a JSON object");
  }

  BatchJob job;
  bool have_model = false;
  bool have_format = false;
  bool have_problem = false;
  bool have_params = false;
  for (const auto& [key, value] : root.as_object()) {
    if (key == "model") {
      job.model_path = value.as_string();
      have_model = true;
    } else if (key == "format") {
      job.format = value.as_string();
      have_format = true;
    } else if (key == "problem") {
      job.problem = value.as_string();
      have_problem = true;
    } else if (key == "params") {
      for (const auto& [param_key, param_value] : value.as_object()) {
        job.params.set(param_key,
                       option_to_string(param_key, param_value));
      }
      have_params = true;
    } else if (key == "solver") {
      job.spec.solver = value.as_string();
    } else if (key == "options") {
      for (const auto& [opt_key, opt_value] : value.as_object()) {
        job.spec.options.set(opt_key, option_to_string(opt_key, opt_value));
      }
    } else if (key == "time_limit") {
      job.spec.stop.time_limit_seconds = value.as_double();
      if (job.spec.stop.time_limit_seconds < 0) {
        throw std::invalid_argument("'time_limit' must be non-negative");
      }
    } else if (key == "max_batches") {
      job.spec.stop.max_batches = static_cast<std::uint64_t>(
          require_nonnegative("max_batches", value.as_int()));
    } else if (key == "target") {
      job.spec.stop.target_energy = value.as_int();
    } else if (key == "deadline") {
      job.spec.deadline_seconds = value.as_double();
      if (job.spec.deadline_seconds <= 0) {
        throw std::invalid_argument("'deadline' must be positive");
      }
    } else if (key == "attempts") {
      const std::int64_t a = value.as_int();
      if (a < 1 || a > 100) {
        throw std::invalid_argument("'attempts' must be in [1, 100]");
      }
      job.spec.max_attempts = static_cast<std::uint32_t>(a);
      job.explicit_attempts = true;
    } else if (key == "seed") {
      job.spec.seed = static_cast<std::uint64_t>(
          require_nonnegative("seed", value.as_int()));
    } else if (key == "priority") {
      const std::int64_t p = value.as_int();
      if (p < std::numeric_limits<int>::min() ||
          p > std::numeric_limits<int>::max()) {
        throw std::invalid_argument("'priority' is out of range");
      }
      job.spec.priority = static_cast<int>(p);
    } else if (key == "tag") {
      job.spec.tag = value.as_string();
    } else if (key == "tick") {
      job.spec.tick_seconds = value.as_double();
    } else {
      throw std::invalid_argument("unknown job key '" + key + "'");
    }
  }
  if (have_model == have_problem) {
    throw std::invalid_argument(
        "job line requires exactly one of 'model' and 'problem'");
  }
  if (have_model && job.model_path.empty()) {
    throw std::invalid_argument("job line requires a non-empty 'model'");
  }
  if (have_problem && job.problem.empty()) {
    throw std::invalid_argument("job line requires a non-empty 'problem'");
  }
  if (have_format && have_problem) {
    throw std::invalid_argument(
        "'format' applies to 'model' jobs only (fold the loader into the "
        "problem spec, e.g. \"gset:G22.txt\")");
  }
  if (have_params && !have_problem) {
    throw std::invalid_argument("'params' requires a 'problem' job");
  }
  if (have_model && !ProblemRegistry::global().is_loader(job.format)) {
    throw std::invalid_argument("unknown model format '" + job.format +
                                "' (expected qubo, gset, or qaplib)");
  }
  return job;
}

std::string job_fingerprint(const BatchJob& job) {
  // FNV-1a over every identity field, a 0x1f unit separator after each so
  // field boundaries cannot alias ("ab"+"c" vs "a"+"bc").  Map-backed
  // fields iterate in key order, so the digest is independent of input
  // key order.  Computed on the *parsed* job, before batch-wide defaults
  // (time limit, attempts) are folded in — the same line fingerprints the
  // same across runs with different --attempts/--jobs settings, which is
  // what makes --resume match.
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const std::string& field) {
    for (const unsigned char c : field) {
      h ^= c;
      h *= 1099511628211ull;
    }
    h ^= 0x1f;
    h *= 1099511628211ull;
  };
  if (job.problem.empty()) {
    mix("model:" + job.format + ":" + job.model_path);
  } else {
    mix("problem:" + job.problem);
  }
  for (const auto& [key, value] : job.params.values()) mix(key + "=" + value);
  mix(job.spec.solver);
  for (const auto& [key, value] : job.spec.options.values()) {
    mix(key + "=" + value);
  }
  mix(std::to_string(job.spec.stop.time_limit_seconds));
  mix(std::to_string(job.spec.stop.max_batches));
  mix(job.spec.stop.target_energy
          ? std::to_string(*job.spec.stop.target_energy)
          : std::string("-"));
  mix(job.spec.seed ? std::to_string(*job.spec.seed) : std::string("-"));
  mix(std::to_string(job.spec.priority));
  mix(job.spec.tag);
  mix(std::to_string(job.spec.deadline_seconds));
  mix(job.explicit_attempts ? std::to_string(job.spec.max_attempts)
                            : std::string("-"));
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

void apply_time_governed_budgets(const std::string& solver,
                                 const StopCondition& stop,
                                 SolverOptions& options) {
  // Only a wall-clock or work budget justifies lifting the baselines'
  // own iteration budgets: a target alone may never be reached, and
  // lifting on it would turn a terminating run into an unbounded one.
  if (stop.time_limit_seconds <= 0 && stop.max_batches == 0) return;
  const auto fill = [&](const char* name, const char* key, const char* v) {
    if (solver == name && !options.has(key)) options.set(key, v);
  };
  fill("sa", "restarts", "1000000000");
  fill("greedy-restart", "restarts", "1000000000");
  fill("tabu", "iterations", "1000000000000");
  fill("path-relinking", "relinks", "1000000000");
  fill("subqubo", "iterations", "1000000000");
}

int run_batch(std::istream& jobs_in, std::ostream& out, std::ostream& err,
              const BatchOptions& options) {
  const auto interrupted = [&options] {
    return options.interrupt != nullptr &&
           options.interrupt->load(std::memory_order_relaxed);
  };

  std::unique_ptr<JobJournal> journal;
  JobJournal::Replay replay;
  std::size_t journal_open_errors = 0;
  if (!options.journal_path.empty()) {
    if (options.resume) {
      replay = JobJournal::replay(options.journal_path);
      for (const std::string& warning : replay.warnings) {
        err << "batch: " << warning << "\n";
      }
      if (replay.skipped > replay.warnings.size()) {
        err << "batch: ... and " << replay.skipped - replay.warnings.size()
            << " more unreadable journal lines\n";
      }
    }
    try {
      journal = std::make_unique<JobJournal>(options.journal_path);
    } catch (const std::exception& e) {
      // No journal, no durability — but the batch itself can still run;
      // the operator sees the warning and the summary's error count.
      err << "batch: " << e.what() << " (continuing without journal)\n";
      ++journal_open_errors;
    }
  } else if (options.resume) {
    err << "batch: --resume requires a journal path\n";
    return 1;
  }

  JobLedger::Config config;
  config.service.threads = options.threads;
  config.service.max_events_per_job = options.max_events_per_job;
  config.service.cache_bytes = options.cache_bytes;
  config.service.max_queue_depth = options.max_queue_depth;
  config.default_time_limit = options.default_time_limit;
  config.max_attempts = options.max_attempts;
  config.retry_backoff_seconds = options.retry_backoff_seconds;
  config.retry_backoff_max_seconds = options.retry_backoff_max_seconds;
  config.trace = !options.trace_path.empty();
  config.on_first_journal_error = [&err](const std::string& error) {
    err << "batch: journal append failed: " << error
        << " (continuing without durability)\n";
  };
  JobLedger ledger(std::move(config), std::move(journal));
  SolverService& service = ledger.service();

  // With SIGPIPE ignored process-wide, a consumer that hung up (head,
  // a dead pipe) surfaces as stream failure after a flush.  The batch
  // then stops intake and cancels — but keeps journaling terminal
  // records, so a later --resume still sees the truth.
  bool output_broken = false;
  const auto check_output = [&out, &output_broken] {
    if (!output_broken && !out) output_broken = true;
  };
  std::size_t line_no = 0;
  std::size_t submitted = 0;
  std::size_t invalid = 0;
  std::size_t load_failed = 0;
  std::size_t resumed_skipped = 0;
  std::uint64_t retries_attempted = 0;
  std::uint64_t retries_recovered = 0;
  // Every problem line still yields an output line so callers can join
  // inputs to outcomes; the batch keeps going either way.  "invalid"
  // means fix the input (schema violation, unknown solver/option);
  // "failed" means the environment broke (model unreadable) — retryable.
  const auto emit_problem = [&out, &line_no](const char* status,
                                             const std::string& tag,
                                             const std::string& what,
                                             const std::string& fingerprint =
                                                 {},
                                             std::uint32_t attempts = 0) {
    io::JsonWriter json(out);
    json.begin_object()
        .value("line", static_cast<std::uint64_t>(line_no))
        .value("status", status);
    if (!tag.empty()) json.value("tag", tag);
    if (!fingerprint.empty()) json.value("fingerprint", fingerprint);
    if (attempts != 0) json.value("attempts", attempts);
    json.value("error", what).end_object();
    out << "\n";
    out.flush();
  };

  // Writes one report line before the ledger journals the terminal event.
  const auto emit_report = [&](JobId id) {
    ledger.finish(id, id, [&](const JobLedger::Finished& done) {
      const JobSnapshot& snap = done.snap;
      if (done.attempts > 1) {
        retries_attempted += done.attempts - 1;
        if (snap.state == JobState::kDone) ++retries_recovered;
      }
      io::JsonWriter json(out);
      json.begin_object()
          .value("job_id", id)
          .value("line", done.line)
          .value("status", to_string(snap.state));
      if (!snap.tag.empty()) json.value("tag", snap.tag);
      if (!done.fingerprint.empty()) {
        json.value("fingerprint", done.fingerprint);
      }
      if (snap.state == JobState::kFailed ||
          snap.state == JobState::kRejected) {
        json.value("error", snap.error);
        if (done.attempts != 0) json.value("attempts", done.attempts);
      } else {
        snap.report.write_json(json, "report");
      }
      json.end_object();
      out << "\n";
      out.flush();
      check_output();
    });
  };

  bool was_interrupted = false;
  std::string line;
  while (std::getline(jobs_in, line)) {
    ++line_no;
    if (interrupted()) {
      was_interrupted = true;
      break;
    }
    check_output();
    if (output_broken) break;  // nobody is reading; stop taking work
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    BatchJob job;
    try {
      job = parse_batch_job(line);
    } catch (const std::exception& e) {
      ++invalid;
      emit_problem("invalid", "", e.what());
      continue;
    }
    const std::string fingerprint = ledger.fingerprint(job);
    if (options.resume && replay.terminal(fingerprint)) {
      ++resumed_skipped;
      continue;
    }
    const std::string tag = job.spec.tag;
    JobLedger::Admission admission;
    try {
      admission = ledger.admit(std::move(job), fingerprint, line_no, "");
    } catch (const std::exception& e) {
      ++invalid;
      emit_problem("invalid", tag, e.what(), fingerprint);
      continue;
    }
    // Model load with retry: unreadable files (and injected load faults)
    // are the transient-environment failure mode the retry policy exists
    // for.  Schema problems (unknown format) stay invalid — no retry.
    const std::uint32_t attempts_allowed =
        admission.job.explicit_attempts ? admission.job.spec.max_attempts
                                        : options.max_attempts;
    std::uint32_t load_attempt = 0;
    std::string load_error;
    while (!admission.model) {
      ++load_attempt;
      bool retryable = false;
      try {
        ledger.load(admission);
        break;
      } catch (const std::bad_alloc&) {
        load_error = "std::bad_alloc";
        retryable = true;
      } catch (const std::invalid_argument& e) {
        load_error = e.what();
      } catch (const std::exception& e) {
        load_error = e.what();
        // File IO can blip (NFS, transient unlink/replace); generator
        // (encode) failures only retry when explicitly marked.
        retryable = fail::is_retryable_message(load_error) ||
                    !admission.job.model_path.empty();
      }
      if (!retryable || load_attempt >= attempts_allowed || interrupted()) {
        break;
      }
      ++retries_attempted;
      const double backoff_seconds = retry_backoff(
          options.retry_backoff_seconds, options.retry_backoff_max_seconds,
          load_attempt, std::hash<std::string>{}(fingerprint));
      // Sleep in small slices so an interrupt cuts the wait short.
      const auto wake = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(backoff_seconds));
      while (std::chrono::steady_clock::now() < wake && !interrupted()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    if (!admission.model) {
      ++load_failed;
      ledger.fail(admission, load_error, load_attempt);
      emit_problem("failed", tag, load_error, fingerprint, load_attempt);
      continue;
    }
    if (load_attempt > 1) ++retries_recovered;
    try {
      ledger.submit(std::move(admission));
      ++submitted;
    } catch (const std::exception& e) {
      ++invalid;  // unknown solver / bad option values
      emit_problem("invalid", tag, e.what(), fingerprint);
    }
    // Keep streaming while reading: with a slow producer (stdin pipes)
    // reports must not wait for EOF.
    while (const std::optional<JobId> id = service.try_any_finished()) {
      emit_report(*id);
    }
  }
  if (interrupted()) was_interrupted = true;
  if (was_interrupted || output_broken) {
    // Stop intake, cancel everything outstanding; the drain below still
    // emits (and journals) one line per submitted job, so nothing earned
    // is lost and the journal re-enqueues the cancellations on --resume.
    // (With a broken output stream the emits go nowhere, but the journal
    // records are the part that must survive.)
    service.cancel_all();
  }

  // Drain the rest as they complete, out of order.  With an interrupt
  // flag armed, poll so a signal arriving mid-drain cancels the stragglers
  // instead of waiting out their full time limits.
  while (ledger.in_flight() != 0) {
    std::optional<JobId> id;
    if (options.interrupt != nullptr) {
      id = service.wait_any_finished_for(0.05);
      if (!id) {
        if (interrupted() && !was_interrupted) {
          was_interrupted = true;
          service.cancel_all();
        }
        continue;
      }
    } else {
      id = service.wait_any_finished();
      if (!id) break;
    }
    emit_report(*id);
  }

  if (!options.trace_path.empty()) {
    if (ledger.trace().write_file(options.trace_path)) {
      err << "batch: wrote trace to " << options.trace_path << "\n";
    } else {
      err << "batch: failed to write trace to " << options.trace_path
          << "\n";
    }
  }

  const ServiceStats stats = service.stats();
  err << "batch: " << submitted << " jobs on " << options.threads
      << " threads (" << invalid << " invalid, " << stats.failed + load_failed
      << " failed, " << stats.cancelled << " cancelled, " << stats.rejected
      << " rejected); retries: " << retries_attempted << " attempted, "
      << retries_recovered << " recovered; model cache: " << stats.cache.hits
      << " hits, " << stats.cache.misses << " misses, "
      << stats.cache.entries << " resident";
  const std::uint64_t journal_errors =
      journal_open_errors + ledger.journal_errors();
  if (ledger.journal() != nullptr || journal_errors != 0) {
    err << "; journal: "
        << (ledger.journal() ? ledger.journal()->appended() : 0)
        << " records, " << journal_errors << " append errors";
  }
  if (options.resume) {
    err << "; resumed: " << resumed_skipped << " already terminal";
  }
  if (was_interrupted) err << "; interrupted";
  if (output_broken) err << "; report stream broke (consumer hung up)";
  err << "\n";
  if (was_interrupted) return 130;
  return (invalid == 0 && load_failed == 0 && stats.failed == 0 &&
          stats.cancelled == 0 && stats.rejected == 0 && !output_broken)
             ? 0
             : 1;
}

}  // namespace dabs::service
