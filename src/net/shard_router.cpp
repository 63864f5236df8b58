#include "net/shard_router.hpp"

#include <algorithm>

namespace dabs::net {

namespace {

// FNV-1a alone places short, similar strings unevenly around the ring (its
// high bits barely avalanche, and ring ordering is dominated by high bits),
// so the hash is pushed through a 64-bit finalizer before use.
std::uint64_t ring_hash(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

}  // namespace

HashRing::HashRing(std::size_t shards, std::size_t vnodes_per_shard)
    : shards_(shards == 0 ? 1 : shards) {
  ring_.reserve(shards_ * vnodes_per_shard);
  for (std::size_t s = 0; s < shards_; ++s) {
    for (std::size_t v = 0; v < vnodes_per_shard; ++v) {
      ring_.emplace_back(ring_hash("shard:" + std::to_string(s) +
                                   ":vnode:" + std::to_string(v)),
                         static_cast<std::uint32_t>(s));
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

std::size_t HashRing::owner(const std::string& key) const {
  const std::uint64_t h = ring_hash(key);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), h,
      [](const std::pair<std::uint64_t, std::uint32_t>& point,
         std::uint64_t hash) { return point.first < hash; });
  if (it == ring_.end()) it = ring_.begin();  // wrap around the circle
  return it->second;
}

}  // namespace dabs::net
