#include "service/job_ledger.hpp"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <utility>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "problems/problem.hpp"
#include "util/failpoint.hpp"

namespace dabs::service {

namespace {

obs::Counter& journal_error_counter() {
  static obs::Counter& counter = obs::MetricsRegistry::global().counter(
      "dabs_journal_append_errors_total",
      "Journal appends that failed (jobs keep running without "
      "durability).");
  return counter;
}

}  // namespace

std::string routing_key(const BatchJob& job) {
  if (job.problem.empty()) {
    return job.format + "#" + job.model_path;
  }
  std::string key = job.problem;
  for (const auto& [k, v] : job.params.values()) {
    key.append(1, '\x1f').append(k).append(1, '=').append(v);
  }
  return key;
}

JobLedger::JobLedger(Config config, std::unique_ptr<JobJournal> journal)
    : config_(std::move(config)),
      journal_(std::move(journal)),
      service_([this] {
        SolverService::Config sc = config_.service;
        sc.on_started = [this](JobId, const JobSpec& spec) {
          const auto it = spec.extras.find("fingerprint");
          if (it == spec.extras.end()) return;
          append({.event = JournalEvent::kStarted, .fingerprint = it->second,
                  .tag = spec.tag, .detail = {}});
        };
        return sc;
      }()) {}

void JobLedger::append(const JournalRecord& record) {
  if (!journal_) return;
  try {
    journal_->append(record);
  } catch (const std::exception& e) {
    // Appends must never kill a job: count, tell, keep running.
    journal_error_counter().inc();
    if (journal_errors_.fetch_add(1, std::memory_order_relaxed) == 0 &&
        config_.on_first_journal_error) {
      config_.on_first_journal_error(e.what());
    }
    static obs::LogRateLimit gate(5.0);
    std::uint64_t suppressed = 0;
    if (gate.allow(&suppressed)) {
      obs::log(obs::LogLevel::kWarn, "journal", "append failed",
               {{"error", e.what()}, {"suppressed", suppressed}});
    }
  }
}

std::string JobLedger::fingerprint(const BatchJob& job) {
  // The N-th identical definition gets "<base>#N", counted in arrival
  // order — stable across runs of the same jobs file, which resume
  // relies on.
  std::string fp = job_fingerprint(job);
  std::lock_guard lock(mu_);
  const std::uint64_t occurrence = ++occurrences_[fp];
  if (occurrence > 1) fp.append("#").append(std::to_string(occurrence));
  return fp;
}

void JobLedger::reserve_fingerprint(const std::string& fingerprint) {
  const std::size_t hash = fingerprint.find('#');
  std::uint64_t occurrence = 1;
  if (hash != std::string::npos) {
    occurrence = std::max<std::uint64_t>(
        1, std::strtoull(fingerprint.c_str() + hash + 1, nullptr, 10));
  }
  std::lock_guard lock(mu_);
  std::uint64_t& seen = occurrences_[fingerprint.substr(0, hash)];
  seen = std::max(seen, occurrence);
}

JobLedger::Admission JobLedger::admit(BatchJob job, std::string fingerprint,
                                      std::uint64_t line,
                                      const std::string& detail) {
  Admission admission;
  admission.job = std::move(job);
  admission.fingerprint = std::move(fingerprint);
  admission.line = line;
  // Write-ahead: a crash anywhere after this leaves a journal that names
  // the job (no terminal record re-enqueues it on resume).
  append({.event = JournalEvent::kSubmitted,
          .fingerprint = admission.fingerprint, .line = line,
          .tag = admission.job.spec.tag, .detail = detail});
  const BatchJob& spec = admission.job;
  if (spec.problem.empty()) return admission;
  // A bad spec (unknown name, typo'd param) is the caller's input to fix.
  try {
    std::lock_guard lock(mu_);
    std::weak_ptr<const Problem>& shared =
        problems_by_spec_[routing_key(spec)];
    admission.problem = shared.lock();
    if (!admission.problem) {
      admission.problem =
          ProblemRegistry::global().create(spec.problem, spec.params);
      shared = admission.problem;
    }
  } catch (const std::exception& e) {
    fail(admission, std::string("invalid: ") + e.what(), 0);
    throw;
  }
  return admission;
}

void JobLedger::load(Admission& admission) {
  const Admission& a = admission;
  admission.model = service_.cache().get_or_load(
      a.problem ? "problem#" + a.problem->cache_key()
                : a.job.format + "#" + a.job.model_path,
      [&a] {
        fail::point("batch.model_load");
        return a.problem ? a.problem->encode()
                         : ProblemRegistry::global()
                               .create(a.job.format + ":" + a.job.model_path)
                               ->encode();
      },
      &admission.cache_hit);
}

void JobLedger::fail(const Admission& admission, const std::string& detail,
                     std::uint32_t attempt) {
  append({.event = JournalEvent::kFailed,
          .fingerprint = admission.fingerprint, .line = admission.line,
          .tag = admission.job.spec.tag, .attempt = attempt, .detail = detail});
}

JobId JobLedger::submit(Admission&& admission) {
  JobSpec& spec = admission.job.spec;
  spec.model = admission.model;
  if (spec.stop.time_limit_seconds <= 0 && spec.stop.max_batches == 0) {
    // A target alone may never be reached; keep every job bounded.
    spec.stop.time_limit_seconds = config_.default_time_limit;
  }
  apply_time_governed_budgets(spec.solver, spec.stop, spec.options);
  if (!admission.job.explicit_attempts) {
    spec.max_attempts = config_.max_attempts;
  }
  spec.retry_backoff_seconds = config_.retry_backoff_seconds;
  spec.retry_backoff_max_seconds = config_.retry_backoff_max_seconds;
  spec.extras["model"] = admission.model->describe();
  spec.extras["model_cache"] = admission.cache_hit ? "hit" : "miss";
  spec.extras["model_cache_hits"] =
      std::to_string(service_.cache().stats().hits);
  spec.extras["fingerprint"] = admission.fingerprint;
  const std::string tag = spec.tag;  // survives the move below
  try {
    std::lock_guard lock(mu_);  // a finish() racing the insert waits
    const JobId id = service_.submit(std::move(spec));
    in_flight_.emplace(
        id, InFlight{admission.problem, admission.model,
                     admission.fingerprint, admission.line,
                     admission.problem ? routing_key(admission.job) : ""});
    return id;
  } catch (const std::exception& e) {
    admission.job.spec.tag = tag;
    fail(admission, std::string("invalid: ") + e.what(), 0);
    throw;
  }
}

void JobLedger::finish(JobId id, std::uint64_t transport_id,
                       const std::function<void(Finished&)>& publish) {
  Finished done;
  done.snap = service_.snapshot(id);
  InFlight job;
  {
    std::lock_guard lock(mu_);
    if (auto node = in_flight_.extract(id)) job = std::move(node.mapped());
  }
  JobSnapshot& snap = done.snap;
  snap.report.extras["job_id"] = std::to_string(transport_id);
  // Problem jobs: decode the solved bits into domain terms and verify them
  // against the cached model (a cancelled-while-queued job carries an
  // empty solution — nothing to decode).  A deferred loader may read its
  // file here for the first time; if it vanished the job still solved —
  // flag the verification, never drop the report.
  if (job.problem && snap.report.best_solution.size() == job.model->size()) {
    try {
      const DomainSolution solution =
          job.problem->decode(snap.report.best_solution);
      const VerifyResult verdict = job.problem->verify(
          snap.report.best_solution,
          job.model->energy(snap.report.best_solution));
      annotate_extras(*job.problem, solution, verdict, snap.report.extras);
    } catch (const std::exception& e) {
      snap.report.extras["problem"] = job.problem->cache_key();
      snap.report.extras["verified"] = "false";
      snap.report.extras["verify_message"] = e.what();
    }
  }
  if (const auto it = snap.report.extras.find("attempts");
      it != snap.report.extras.end()) {
    done.attempts = static_cast<std::uint32_t>(
        std::strtoul(it->second.c_str(), nullptr, 10));
  }
  done.fingerprint = job.fingerprint;
  done.line = job.line;

  // Built before publish, which may move from `done`.
  JournalRecord record{.event = JournalEvent::kCancelled,
                       .fingerprint = job.fingerprint, .line = job.line,
                       .tag = snap.tag, .attempt = done.attempts,
                       .detail = {}};
  switch (snap.state) {
    case JobState::kDone:
      record.event = JournalEvent::kDone;
      break;
    case JobState::kFailed:
      record.event = JournalEvent::kFailed;
      record.detail = snap.error;
      break;
    case JobState::kRejected:
      record.event = JournalEvent::kRejected;
      record.detail = snap.error;
      break;
    default:
      record.detail = snap.report.extras.count("deadline_exceeded") != 0
                          ? "deadline"
                          : "cancelled";
      break;
  }
  obs::JobTrace trace;
  if (config_.trace) {
    trace = job_trace(snap);
    trace.job_id = transport_id;
  }

  publish(done);
  if (!record.fingerprint.empty()) append(record);
  if (config_.trace) obs::append_job_trace(trace_, trace);
  service_.release(id);

  // Drop the spec entry once no job holds its problem, so a long run of
  // distinct specs does not accumulate stale weak_ptrs.
  if (job.problem) {
    job.problem.reset();
    std::lock_guard lock(mu_);
    const auto it = problems_by_spec_.find(job.spec_key);
    if (it != problems_by_spec_.end() && it->second.expired()) {
      problems_by_spec_.erase(it);
    }
  }
}

std::size_t JobLedger::in_flight() const {
  std::lock_guard lock(mu_);
  return in_flight_.size();
}

std::string JobLedger::fingerprint_of(JobId id) const {
  std::lock_guard lock(mu_);
  const auto it = in_flight_.find(id);
  return it == in_flight_.end() ? std::string() : it->second.fingerprint;
}

}  // namespace dabs::service
