// JSONL batch front end over SolverService: read one job object per line,
// run them concurrently, stream one report object per line as jobs finish
// (out of order — each output line carries its job id and input line).
//
// Input line schema (exactly one of "model" / "problem" is required):
//
//   {"model": "k2000.txt",        // problem file, parsed once per path
//    "format": "qubo",            // qubo | gset | qaplib (with "model")
//    "problem": "tsp",            // OR: any ProblemRegistry spec, e.g.
//                                 //     "qap", "g39", "gset:G22.txt"
//    "params": {"n": 8},          // problem params (with "problem")
//    "solver": "tabu",            // any registry name (default dabs)
//    "options": {"tenure": 8},    // solver options (string/number/bool)
//    "time_limit": 2.5,           // StopCondition seconds
//    "max_batches": 1000,         // StopCondition work budget
//    "target": -33337,            // StopCondition target energy
//    "deadline": 10,              // wall-clock deadline from submit (sec);
//                                 // the watchdog cancels overruns
//    "attempts": 3,               // solve() attempts for retryable errors
//                                 // (default: BatchOptions::max_attempts)
//    "seed": 7, "priority": 2, "tag": "hot", "tick": 0.5}
//
// Blank lines and lines starting with '#' are skipped.  Each job runs
// through a JobLedger (job_ledger.hpp), the lifecycle the HTTP solve
// server shares; this front end adds line numbering, load retries, JSONL
// output, interrupts and the summary.  Every model flows through the
// service's ModelCache — legacy file jobs keyed by
// "<format>#<path>", problem jobs by "problem#<canonical key>" — so
// repeated specs skip the encode and equal-content instances share
// storage; each report's extras record the outcome ("model_cache":
// hit|miss, "model_cache_hits": running total).  Problem-keyed jobs are
// additionally decoded and verified when they finish: their report extras
// carry "objective", "objective_name", "feasible", and "verified" (the
// energy is independently re-evaluated against the cached model, not
// trusted from the solver).
//
// Fault tolerance (see job_journal.hpp for the journal wire format):
//
//   - BatchOptions::journal_path arms the write-ahead journal: every job
//     gets a fsync'd `submitted` record before it is enqueued and a
//     terminal record when its report is emitted, keyed by the stable
//     job_fingerprint() below (also echoed into each report's extras as
//     "fingerprint").  With `resume`, the journal is replayed first and
//     jobs whose fingerprint already reached done/failed are skipped —
//     kill -9 mid-batch, re-run with --resume, and the union of streamed
//     reports is exactly the job set.
//   - Retryable failures (unreadable model files at load; std::bad_alloc
//     or fail::kRetryablePrefix errors inside solve) retry up to
//     max_attempts times with bounded exponential backoff + jitter.
//   - max_queue_depth sheds over-capacity submits as status "rejected"
//     (journaled, and re-enqueued by a later --resume run).
//   - `interrupt` (wired to SIGINT/SIGTERM by the CLI) stops intake,
//     cancels outstanding jobs, flushes the journal and the reports
//     already earned, prints the summary, and returns 130.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "problems/problem_registry.hpp"
#include "service/model_cache.hpp"
#include "service/solver_service.hpp"

namespace dabs::service {

struct BatchOptions {
  /// Worker threads (the CLI's --jobs knob).
  std::size_t threads = 4;
  std::size_t cache_bytes = ModelCache::kDefaultMaxBytes;
  /// Applied when a job line sets neither time_limit nor max_batches, so
  /// every job is bounded (a target alone is not a bound — it may never
  /// be reached; mirrors the single-run CLI default).
  double default_time_limit = 5.0;
  /// Per-job event-log bound.
  std::size_t max_events_per_job = 64;

  /// Write-ahead journal path (empty = no journal).
  std::string journal_path;
  /// Replay the journal before reading jobs and skip fingerprints whose
  /// last record is terminal (done/failed).  Requires journal_path.
  bool resume = false;
  /// Default solve()/load attempts for retryable failures (>= 1); a job
  /// line's "attempts" overrides it for that job.
  std::uint32_t max_attempts = 3;
  /// Retry backoff shape (see retry_backoff() in solver_service.hpp).
  double retry_backoff_seconds = 0.05;
  double retry_backoff_max_seconds = 2.0;
  /// Admission bound forwarded to SolverService (0 = unbounded).
  std::size_t max_queue_depth = 0;
  /// Optional cooperative-interrupt flag: when it flips true (e.g. from a
  /// SIGINT handler), the runner stops intake, cancels outstanding jobs,
  /// flushes journal + earned reports, and returns 130.
  const std::atomic<bool>* interrupt = nullptr;
  /// When non-empty, every finished job's lifecycle (queued / run spans,
  /// progress instants) is dumped as Chrome trace-event JSON here when the
  /// batch drains — load it at chrome://tracing (`dabs_cli batch --trace`).
  std::string trace_path;
};

/// One parsed job line, model not yet loaded.  Exactly one of
/// `model_path` (+ `format`) and `problem` (+ `params`) is set.
struct BatchJob {
  std::string model_path;
  std::string format = "qubo";
  /// ProblemRegistry spec ("qap", "gset:G22.txt", ...); empty for legacy
  /// file jobs.
  std::string problem;
  /// Problem params (the "params" object), forwarded to the registry.
  SolverOptions params;
  /// True when the line set "attempts" itself (otherwise the batch-wide
  /// BatchOptions::max_attempts applies).
  bool explicit_attempts = false;
  JobSpec spec;  // spec.model stays null until the runner loads it
};

/// Parses one JSONL job line; throws std::invalid_argument with a readable
/// message on schema violations.
BatchJob parse_batch_job(const std::string& json_line);

/// Stable fingerprint of a job definition: 16 hex chars of FNV-1a over
/// every field that identifies the job (model/problem spec + params +
/// solver + options + stop condition + seed + priority + tag + deadline +
/// attempts).  Identical job lines collide by construction — the ledger
/// disambiguates them with a "#<occurrence>" suffix in input order, which
/// is what the journal stores and the report extras echo.
std::string job_fingerprint(const BatchJob& job);

/// The bounded-run policy the single-run CLI applies, shared with batch
/// jobs: when a wall-clock or work budget governs the run, lift the
/// baselines' small default iteration budgets so the StopCondition decides
/// when to stop.  A target alone does not lift (it may never be reached).
/// Explicitly set options always win.
void apply_time_governed_budgets(const std::string& solver,
                                 const StopCondition& stop,
                                 SolverOptions& options);

/// Runs every job in `jobs_in` on a fresh SolverService and streams one
/// JSON object per line into `out` as jobs complete; diagnostics go to
/// `err`.  Returns 0 when every line parsed and every job finished
/// normally, 130 when options.interrupt fired, 1 otherwise (malformed
/// lines and failed/rejected jobs still produce an output line each, so
/// callers can join inputs to outcomes).
int run_batch(std::istream& jobs_in, std::ostream& out, std::ostream& err,
              const BatchOptions& options = {});

}  // namespace dabs::service
