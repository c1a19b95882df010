// Convenience frame builders for tests, examples and traffic generators.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "packet/buffer.hpp"
#include "packet/headers.hpp"

namespace nnfv::packet {

struct UdpFrameSpec {
  MacAddress eth_src;
  MacAddress eth_dst;
  std::optional<std::uint16_t> vlan;
  Ipv4Address ip_src;
  Ipv4Address ip_dst;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t ttl = 64;
  std::span<const std::uint8_t> payload;
};

/// Builds a complete Ethernet/IPv4/UDP frame with correct lengths and
/// checksums, in place in a pooled buffer. Passing `reuse` (e.g. one
/// buffer of a PacketBuffer::alloc_burst) rebuilds into its segment
/// without touching the pool — the traffic sources' burst path.
PacketBuffer build_udp_frame(const UdpFrameSpec& spec,
                             PacketBuffer&& reuse = PacketBuffer());

struct TcpFrameSpec {
  MacAddress eth_src;
  MacAddress eth_dst;
  std::optional<std::uint16_t> vlan;
  Ipv4Address ip_src;
  Ipv4Address ip_dst;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint8_t flags = TcpHeader::kAck;
  std::span<const std::uint8_t> payload;
};

PacketBuffer build_tcp_frame(const TcpFrameSpec& spec);

struct IcmpEchoSpec {
  MacAddress eth_src;
  MacAddress eth_dst;
  Ipv4Address ip_src;
  Ipv4Address ip_dst;
  bool is_reply = false;
  std::uint16_t identifier = 0;
  std::uint16_t sequence = 0;
  std::span<const std::uint8_t> payload;
};

PacketBuffer build_icmp_echo(const IcmpEchoSpec& spec);

/// Rewrites the VLAN tag of a frame in place (push, set or pop).
/// vlan == nullopt pops any existing tag.
void set_vlan(PacketBuffer& frame, std::optional<std::uint16_t> vlan);

/// Recomputes IPv4 header checksum and the UDP/TCP checksum of a frame after
/// header fields were rewritten (used by NAT). No-op for non-IP frames.
void fix_checksums(PacketBuffer& frame);

/// Recomputes only the UDP/TCP/ICMP checksum of the packet whose IPv4
/// header `ip` (as written) sits at `l3_off` of `frame`; the caller has
/// unshared the bytes. No-op when the L4 segment is truncated.
void fix_l4_checksum(std::span<std::uint8_t> frame, std::size_t l3_off,
                     const Ipv4Header& ip);

}  // namespace nnfv::packet
