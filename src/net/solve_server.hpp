// SolveServer: the HTTP/1.1 solve API, mounted over one JobApi.  Endpoints:
//
//   POST   /v1/jobs             submit one batch-schema job object
//   GET    /v1/jobs/{id}        state + SolveReport (decode/verify extras)
//   GET    /v1/jobs/{id}/events chunked stream of event-log pages
//   DELETE /v1/jobs/{id}        cancel
//   GET    /v1/solvers          solver registry listing
//   GET    /v1/problems         problem registry listing
//   GET    /v1/healthz          liveness + uptime, pid, shard topology,
//                               build info
//   GET    /v1/stats            service stats + HTTP counters
//   GET    /v1/metrics          Prometheus text exposition
//
// Status mapping: 400 schema/parse (the batch runner's validation
// messages), 404 unknown id, 409 cancel of a terminal job, 413/431 size
// limits, 421 a key/id this --shard-of server does not own (its JobApi's
// shard_idx/shards), 429 admission shed, 500 handler error.
//
// The events endpoint streams chunked transfer encoding: one JSON object
// per chunk (an event page with a cursor), polled from the JobApi at the
// server's stream cadence until the job is terminal and drained.  A
// cursor query parameter (?cursor=N) resumes a dropped stream.
#pragma once

#include <atomic>
#include <cstdint>

#include "net/http_server.hpp"
#include "net/job_api.hpp"
#include "net/shard_router.hpp"
#include "util/timer.hpp"

namespace dabs::net {

class SolveServer {
 public:
  struct Config {
    HttpServer::Config http;
  };

  /// Binds immediately (see HttpServer); `api` must outlive this.  When
  /// the api serves shard k of N > 1 (`--shard-of k/N`), requests for
  /// keys or ids another shard owns come back 421 with the owner.
  SolveServer(Config config, JobApi& api);

  std::uint16_t port() const noexcept { return http_.port(); }
  void run(const std::atomic<bool>* stop = nullptr) { http_.run(stop); }
  void stop() { http_.stop(); }
  const HttpServer::Counters& http_counters() const noexcept {
    return http_.counters();
  }

 private:
  HttpResult route(const HttpRequest& request);
  HttpResult handle_jobs_path(const HttpRequest& request);
  HttpResult stats_result();
  HttpResult healthz_result();

  Config config_;
  JobApi& api_;
  /// Server lifetime, for /v1/healthz uptime_seconds.
  Stopwatch uptime_;
  /// Submit-key ownership checks in --shard-of mode.
  HashRing ring_;
  HttpServer http_;  // declared last: its handler captures `this`
};

}  // namespace dabs::net
