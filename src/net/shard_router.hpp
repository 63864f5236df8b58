// Consistent-hash placement for `dabs_cli serve --shard-of k/N`: N solve
// servers behind an external load balancer, each owning one slice of the
// ring.  Every model spec key lands on the same server every time, so that
// server's model cache stays hot and no state is shared across servers.
//
// Topology notes:
//   - Job ids are globally unique by construction (the server owning shard
//     k of N issues local*N+k), so a balancer routes id-keyed requests with
//     a modulo and never rewrites a response body.
//   - Submissions route on routing_key() — the job's *spec*, not the
//     resolved model, the same key the JobLedger dedupes Problems on —
//     hashed onto a 64-vnode-per-shard ring.  The ring is deterministic
//     for a fixed N across processes, so every server and balancer that
//     builds HashRing(N) agrees on placement.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace dabs::net {

/// Consistent-hash ring over `shards` shards: deterministic (FNV-1a plus a
/// fixed 64-bit finalizer over printable vnode labels, no process-local
/// salt), so every process that builds HashRing(N) agrees on placement.
class HashRing {
 public:
  explicit HashRing(std::size_t shards, std::size_t vnodes_per_shard = 64);

  /// The shard owning `key`: first ring point clockwise of hash(key).
  std::size_t owner(const std::string& key) const;

  std::size_t shards() const noexcept { return shards_; }

 private:
  std::size_t shards_;
  /// (point hash, shard) sorted by hash.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> ring_;
};

}  // namespace dabs::net
