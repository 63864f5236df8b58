// The solve API behind SolveServer's HTTP routes: JobApi runs jobs on an
// in-process SolverService through the JobLedger and answers each route
// with a status code and a JSON body, so the HTTP layer only routes.
//
// Request/report JSON is the JSONL batch schema (batch_runner.hpp): a
// POST /v1/jobs body is exactly one batch job line, and a finished job's
// report carries the decode/verify extras the JobLedger adds for both
// transports.
//
// Job ids are global across a `--shard-of` group: the server owning shard
// k of N publishes `local_id * N + k`, so any id maps back to its shard
// with a modulo — a load balancer never rewrites response bodies.
//
// Durability is the JobLedger's (service/job_ledger.hpp), the lifecycle
// both transports share: with a journal armed, every accept writes a
// `submitted` record whose detail field holds the raw request body, and
// each job is finished through the ledger exactly once — by the reaper,
// or by the first status/events read that finds it terminal — which
// journals the terminal record before any client sees the terminal
// state.  `resume()`-style recovery happens in the constructor:
// fingerprints whose last journal record is non-terminal are re-submitted
// from that stored body under their original fingerprint.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "service/job_ledger.hpp"
#include "service/solver_service.hpp"

namespace dabs::net {

/// HTTP-ish outcome of one operation: a status code plus a JSON object
/// body.  Operations never throw for request-level problems — bad input is
/// a 4xx reply, broken environment a 5xx.
struct ApiReply {
  int status = 200;
  std::string body;
};

/// The shard-routing key of a parsed job; the same key dedupes Problems in
/// the JobLedger, so every `--shard-of` server agrees on ownership.
using service::routing_key;

/// A JobLedger (service + cache + optional journal) plus a reaper thread
/// that finishes each job through the ledger once and bounds retention.
/// `id` parameters are global job ids (see the header comment).
///
/// Thread-safety: all operations and the reaper serialize on one internal
/// mutex (operations are queue-sized, not solve-sized — the solving itself
/// happens on the service's worker pool).
class JobApi {
 public:
  struct Config {
    std::size_t threads = 2;
    std::size_t cache_bytes = service::ModelCache::kDefaultMaxBytes;
    /// Admission bound forwarded to SolverService (0 = unbounded);
    /// over-capacity submits come back 429.
    std::size_t max_queue_depth = 0;
    /// Applied when a job sets neither time_limit nor max_batches.
    double default_time_limit = 5.0;
    std::size_t max_events_per_job = 256;
    /// Default solve() attempts for retryable failures.
    std::uint32_t max_attempts = 3;
    /// Journal path (empty = no journal, no resume).
    std::string journal_path;
    /// Replay the journal and re-submit non-terminal jobs from their
    /// stored request bodies.  Requires journal_path.
    bool resume = false;
    /// Finished jobs kept queryable after the reaper releases them from
    /// the service (oldest evicted beyond this many).
    std::size_t retention_jobs = 1024;
    /// `--shard-of shard_idx/shards`: the global-id encoding, and (when
    /// shards > 1) the slice of the ring SolveServer admits.  Defaults:
    /// one unsharded server.
    std::size_t shard_idx = 0;
    std::size_t shards = 1;
    /// When non-empty, every job the reaper collects is recorded as trace
    /// spans and dumped as Chrome trace-event JSON here at shutdown
    /// (`dabs_cli serve --trace`).
    std::string trace_path;
  };

  explicit JobApi(Config config);
  ~JobApi();

  JobApi(const JobApi&) = delete;
  JobApi& operator=(const JobApi&) = delete;

  /// POST /v1/jobs: body is one batch-schema job object.
  /// 202 accepted / 400 schema / 429 shed / 5xx environment.
  ApiReply submit(const std::string& body);
  /// GET /v1/jobs/{id}: state + report; a terminal job is reported only
  /// after the ledger finished it (decode/verify extras, terminal journal
  /// record).  404 unknown.
  ApiReply status(std::uint64_t id);
  /// One page of the job's event log from *cursor, advancing it.  Sets
  /// *count to the number of events in the page and *done when the job is
  /// terminal and the log is drained (the stream may end).
  ApiReply events(std::uint64_t id, std::uint64_t* cursor, bool* done,
                  std::size_t* count);
  /// DELETE /v1/jobs/{id}: 202 cancelling, 409 already terminal, 404.
  ApiReply cancel(std::uint64_t id);
  /// GET /v1/stats: service gauges/counters + cache stats as JSON.
  ApiReply stats();
  /// GET /v1/metrics: Prometheus text exposition of the process-wide
  /// metrics registry.
  ApiReply metrics();

  std::size_t shard_idx() const noexcept { return config_.shard_idx; }
  std::size_t shards() const noexcept { return config_.shards; }

  /// Jobs re-submitted from the journal by the constructor (--resume).
  std::size_t resumed() const noexcept { return resumed_; }

 private:
  ApiReply submit_internal(const std::string& body,
                           const std::string& forced_fingerprint);
  void reaper_loop();
  /// Runs the ledger's finish step for a terminal job and retains the
  /// result.  Called with mu_ held, by the reaper and by any operation
  /// that reads a job terminal before the reaper collected it — a client
  /// never sees "done" ahead of the verify extras and journal record.
  /// Throws std::out_of_range when the job was already released.
  void finish_locked(service::JobId local);
  /// Renders one job's status JSON from a snapshot (global id).
  std::string render_status(std::uint64_t global_id,
                            const service::JobSnapshot& snap,
                            const std::string& fingerprint) const;

  std::uint64_t to_global(service::JobId local) const {
    return local * config_.shards + config_.shard_idx;
  }

  const Config config_;
  service::JobLedger ledger_;

  mutable std::mutex mu_;
  /// Terminal jobs after release: the annotated final snapshot, retained
  /// for status/events until evicted (finish order).
  std::map<service::JobId, service::JobLedger::Finished> finished_;
  std::deque<service::JobId> finish_order_;
  std::size_t resumed_ = 0;

  std::atomic<bool> stop_reaper_{false};
  std::thread reaper_;
};

}  // namespace dabs::net
