// RSS-style flow hashing: maps a frame to a worker shard.
//
// Contract (documented in docs/datapath.md §6): all frames of one
// transport flow — and, for ESP, all frames of one outer IP pair — hash
// to the same worker, so per-flow state (microflow cache entries, NAT
// sessions, SA replay windows) has a single writer. IPv4 frames hash
// {src_ip, dst_ip, protocol, l4 ports}; ESP carries no ports, so the SPI
// would be the natural discriminator, but hashing only addresses +
// protocol keeps both directions' outer tuples of a tunnel pinned
// together, which is what single-writer replay windows need. Non-IP
// frames fall back to an L2 hash of src/dst MAC + ethertype.
#pragma once

#include <cstdint>
#include <span>

#include "packet/flow_key.hpp"

namespace nnfv::exec {

/// 64-bit avalanche mix (splitmix64 finalizer).
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e9b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// RSS hash of a raw frame, over its decoded flow key; undecodable frames
/// all map to shard 0's hash. Symmetric inputs are NOT folded: the two
/// directions of a flow may land on different workers, which is fine —
/// each direction's state is keyed per direction (a NAT session is found
/// by its inside tuple outbound and by its external port inbound, and
/// both share only its atomic last_seen; inbound vs outbound SA).
inline std::uint64_t rss_hash_frame(std::span<const std::uint8_t> frame) {
  packet::FlowKey key;
  if (!packet::decode_flow_key(frame, key)) return 0;
  if (key.has_ipv4) {
    const std::uint64_t addrs =
        (static_cast<std::uint64_t>(key.ip_src) << 32) | key.ip_dst;
    std::uint64_t ports = key.ip_proto;
    if (key.has_l4_src) ports = (ports << 16) | key.l4_src;
    if (key.has_l4_dst) ports = (ports << 16) | key.l4_dst;
    return mix64(addrs ^ mix64(ports));
  }
  std::uint64_t l2 = key.eth_type;
  for (std::uint8_t b : key.eth_src) l2 = (l2 << 8) | b;
  std::uint64_t l2b = 0;
  for (std::uint8_t b : key.eth_dst) l2b = (l2b << 8) | b;
  return mix64(l2 ^ mix64(l2b));
}

/// Maps a hash to one of `workers` shards (1-based worker slots are the
/// caller's concern; this returns [0, workers)).
inline std::size_t shard_for(std::uint64_t hash, std::size_t workers) {
  return workers == 0 ? 0 : static_cast<std::size_t>(hash % workers);
}

}  // namespace nnfv::exec
