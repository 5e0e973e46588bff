// Stable per-event keys and hash partitioning. shard_key_of names an
// event's identity — the client when the event carries one, the stream
// target or onion address otherwise — so all events of one client (or one
// circuit's streams) map to the same partition. Relay routing
// (src/relay/relay_plane.cpp, shard_of over the fleet) is the only
// partitioner; relay sampling (src/relay/stats_agent.h) hashes the same
// keys. No data collector partitions by shard: PrivCount splits spans
// contiguously and PSC dedupes them by bin.
#pragma once

#include <cstddef>
#include <cstdint>

#include "src/tor/events.h"

namespace tormet::tor {

/// splitmix64 finalizer: a cheap, well-mixed 64->64 bijection. Client IPs
/// and variant indices are tiny integers; without mixing, `% shards` would
/// put every event in shard 0.
[[nodiscard]] constexpr std::uint64_t shard_mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Stable shard key of one event: client_ip for entry events, an FNV-1a
/// hash of the target/onion address for exit-stream and HSDir events, and
/// the (variant index, observer) pair for events with no finer identity.
[[nodiscard]] std::uint64_t shard_key_of(const event& ev) noexcept;

/// Maps a key onto [0, shards) via multiply-shift on the mixed key (no
/// modulo bias, no division). shards must be >= 1.
[[nodiscard]] inline std::size_t shard_of(std::uint64_t key,
                                          std::size_t shards) noexcept {
  return static_cast<std::size_t>(
      (static_cast<unsigned __int128>(shard_mix(key)) * shards) >> 64);
}

}  // namespace tormet::tor
