// The one job lifecycle behind both transports.  The JSONL batch runner
// (batch_runner.hpp) and the HTTP backend (net/job_api.hpp) hand every
// parsed job line to a JobLedger, which owns the SolverService and its
// ModelCache, the optional write-ahead JobJournal, fingerprint numbering,
// spec-level Problem dedupe and the in-flight map:
//
//   std::string fp = ledger.fingerprint(job);   // "<16 hex>[#N]"
//   auto admission = ledger.admit(std::move(job), fp, line, detail);
//   ledger.load(admission);                     // one attempt; may throw
//   JobId id = ledger.submit(std::move(admission));
//   ...                                         // the service finishes id
//   ledger.finish(id, transport_id, publish);
//
// admit() makes the `submitted` record durable before any work happens.
// admit() and submit() journal a terminal `failed` record when they throw;
// a transport that gives up on load() calls fail().  finish() decodes and
// verifies problem jobs against the cached model (the energy is
// re-evaluated, not trusted from the solver), hands the result to the
// transport's `publish`, then journals the terminal record, records trace
// spans and releases the job.  A failed journal append is counted
// (dabs_journal_append_errors_total), logged at a limited rate, and the
// job keeps running without durability.
//
// Thread-safe: the ledger's maps sit behind one mutex.  It is held while a
// Problem is created and while a job enters the service (so finish() never
// sees a submitted job missing from the map), never across a model load, a
// journal append or a callback.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "obs/trace.hpp"
#include "service/batch_runner.hpp"
#include "service/job_journal.hpp"
#include "service/solver_service.hpp"

namespace dabs::service {

/// The spec key of a parsed job: the problem spec + params joined with
/// 0x1f separators, or "<format>#<path>" for file jobs.  The spec, not the
/// resolved model key — computing it must not run a generator — so it is
/// stable across processes.  Keys Problem dedupe and `--shard-of` routing
/// alike.
std::string routing_key(const BatchJob& job);

class JobLedger {
 public:
  struct Config {
    /// The service the jobs run on; its on_started hook is the ledger's.
    SolverService::Config service;
    /// Applied when a job sets neither time_limit nor max_batches.
    double default_time_limit = 5.0;
    /// solve() attempts for jobs whose line did not set "attempts".
    std::uint32_t max_attempts = 3;
    double retry_backoff_seconds = 0.05;
    double retry_backoff_max_seconds = 2.0;
    /// Record every finished job as trace spans (see trace()).
    bool trace = false;
    /// Called once, on the thread whose append failed first.
    std::function<void(const std::string& error)> on_first_journal_error;
  };

  /// A job between admit() and submit().
  struct Admission {
    BatchJob job;
    std::string fingerprint;
    std::uint64_t line = 0;
    /// Problem jobs only, shared per spec: what decode/verify runs on.
    std::shared_ptr<const Problem> problem;
    std::shared_ptr<const QuboModel> model;  // set by load()
    bool cache_hit = false;
  };

  /// What finish() publishes.
  struct Finished {
    JobSnapshot snap;         // with the decode/verify extras
    std::string fingerprint;  // empty for a job the ledger did not submit
    std::uint64_t line = 0;
    std::uint32_t attempts = 0;  // the "attempts" extra (0 when absent)
  };

  /// `journal` may be null (no durability).
  JobLedger(Config config, std::unique_ptr<JobJournal> journal);

  // The service's on_started hook holds `this`.
  JobLedger(const JobLedger&) = delete;
  JobLedger& operator=(const JobLedger&) = delete;

  /// job_fingerprint(job) with "#N" for the N-th identical definition.
  std::string fingerprint(const BatchJob& job);
  /// Continues "#N" numbering past a fingerprint an earlier run issued.
  void reserve_fingerprint(const std::string& fingerprint);

  /// Journals `submitted` (with `detail`), then resolves a problem job's
  /// shared Problem; a bad problem spec journals `failed` and rethrows.
  Admission admit(BatchJob job, std::string fingerprint, std::uint64_t line,
                  const std::string& detail);
  /// One model-load attempt through the "batch.model_load" failpoint and
  /// the cache, keyed "problem#<canonical key>" or "<format>#<path>";
  /// throws what the loader threw.
  void load(Admission& admission);
  /// Journals `failed` for a job that never reached submit().
  void fail(const Admission& admission, const std::string& detail,
            std::uint32_t attempt);
  /// Applies the bounded-run defaults and the model / model_cache /
  /// model_cache_hits / fingerprint extras, then submits; an invalid spec
  /// (unknown solver, bad option) journals `failed` and rethrows.
  JobId submit(Admission&& admission);
  /// Finishes a terminal job (see the header comment); `publish` may move
  /// from what it is handed.  The report's `job_id` extra and the trace
  /// spans carry `transport_id`, the id the transport hands its clients.
  /// Throws std::out_of_range for an id the service lacks.
  void finish(JobId id, std::uint64_t transport_id,
              const std::function<void(Finished&)>& publish);

  SolverService& service() noexcept { return service_; }
  const JobJournal* journal() const noexcept { return journal_.get(); }
  std::uint64_t journal_errors() const noexcept {
    return journal_errors_.load(std::memory_order_relaxed);
  }
  std::size_t in_flight() const;
  /// "" unless `id` is in flight.
  std::string fingerprint_of(JobId id) const;
  const obs::TraceCollector& trace() const noexcept { return trace_; }

 private:
  struct InFlight {
    std::shared_ptr<const Problem> problem;
    std::shared_ptr<const QuboModel> model;
    std::string fingerprint;
    std::uint64_t line = 0;
    std::string spec_key;  // problems_by_spec_ entry to prune on finish
  };

  /// Appends unless journal-less; a failure is counted, not thrown.
  void append(const JournalRecord& record);

  const Config config_;
  // Declared before service_: the on_started hook appends from worker
  // threads, which the service destructor joins before the journal dies.
  std::unique_ptr<JobJournal> journal_;
  std::atomic<std::uint64_t> journal_errors_{0};
  obs::TraceCollector trace_;
  SolverService service_;

  mutable std::mutex mu_;
  std::map<std::string, std::uint64_t> occurrences_;
  std::map<std::string, std::weak_ptr<const Problem>> problems_by_spec_;
  std::map<JobId, InFlight> in_flight_;
};

}  // namespace dabs::service
