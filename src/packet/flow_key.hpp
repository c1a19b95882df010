// Flow-key extraction: the decoded header fields an LSI matches on and a
// canonical 5-tuple used by NAT conntrack and firewall state.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>

#include "packet/headers.hpp"

namespace nnfv::packet {

/// Transport 5-tuple (host byte order). For ICMP the identifier is stored in
/// src_port and 0 in dst_port so echo sessions can be tracked uniformly.
struct FiveTuple {
  Ipv4Address src_ip;
  Ipv4Address dst_ip;
  std::uint8_t protocol = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;

  bool operator==(const FiveTuple&) const = default;
  auto operator<=>(const FiveTuple&) const = default;

  /// The same flow seen from the opposite direction.
  [[nodiscard]] FiveTuple reversed() const {
    return {dst_ip, src_ip, protocol, dst_port, src_port};
  }

  [[nodiscard]] std::string to_string() const;
};

struct FiveTupleHash {
  std::size_t operator()(const FiveTuple& t) const noexcept;
};

/// All fields an LSI flow table can match on, as parsed headers: the form
/// control-plane code and tests use. The datapath decodes into the flat
/// FlowKey below instead.
struct FlowFields {
  EthernetHeader eth;
  std::optional<Ipv4Header> ipv4;
  std::optional<std::uint16_t> l4_src;
  std::optional<std::uint16_t> l4_dst;
};

/// Decodes Ethernet (+VLAN), IPv4 and L4 ports from a frame. Non-IP or
/// truncated L4 payloads simply leave the optional fields empty.
util::Result<FlowFields> extract_flow_fields(
    std::span<const std::uint8_t> frame);

/// VLAN value of FlowKey for a frame without an 802.1Q tag (no 12-bit VID
/// can take it).
inline constexpr std::uint16_t kVlanUntagged = 0xFFFF;

/// The flat per-packet lookup key: every field a flow match can examine,
/// normalised so two frames with equal keys are indistinguishable to any
/// rule. Absent L3/L4 fields are zero with their has_* flag clear, so the
/// key compares (and hashes) field by field.
struct FlowKey {
  std::uint32_t in_port = 0;  ///< set by the caller; decode leaves it alone
  std::array<std::uint8_t, 6> eth_src{};
  std::array<std::uint8_t, 6> eth_dst{};
  std::uint16_t eth_type = 0;
  std::uint16_t vlan = kVlanUntagged;
  bool has_ipv4 = false;
  std::uint32_t ip_src = 0;
  std::uint32_t ip_dst = 0;
  std::uint8_t ip_proto = 0;
  // Tracked separately, mirroring a flow match, which checks the two L4
  // ports independently (a hand-built context may set only one).
  bool has_l4_src = false;
  bool has_l4_dst = false;
  std::uint16_t l4_src = 0;
  std::uint16_t l4_dst = 0;

  bool operator==(const FlowKey&) const = default;
};

/// Decodes Ethernet (+VLAN), IPv4 and L4 ports of `frame` into `key` in
/// one pass, overwriting every field but in_port. Returns false, leaving
/// `key` unspecified, for a frame extract_flow_fields rejects (runt or
/// truncated tag); otherwise the key equals the one built from
/// extract_flow_fields, including which L3/L4 fields stay unset.
bool decode_flow_key(std::span<const std::uint8_t> frame, FlowKey& key);

/// Extracts the 5-tuple from an IPv4 packet (no Ethernet header).
util::Result<FiveTuple> extract_five_tuple(
    std::span<const std::uint8_t> ip_packet);

/// Verdict of decode_ipv4 / decode_ipv4_tuple, in the order the checks
/// run.
enum class Ipv4Decode : std::uint8_t {
  kRunt,       ///< parse_ethernet rejects it (short frame or 802.1Q tag)
  kNotIpv4,    ///< the ethertype after any tag is not IPv4
  kMalformed,  ///< parse_ipv4 (or, for the tuple, the L4 header) rejects it
  kOk,
};

/// The IPv4 header of a frame, flat: where it sits and the 5-tuple an NF
/// looks up. Valid only when the decode returned kOk.
struct Ipv4Tuple {
  std::uint16_t l3_off = 0;        ///< 14, or 18 behind an 802.1Q tag
  std::uint16_t header_size = 0;   ///< IHL in bytes, 20..60
  std::uint16_t total_length = 0;  ///< at least header_size
  FiveTuple tuple;
};

/// Decodes a frame's Ethernet (+VLAN) and IPv4 headers in one pass, with
/// parse_ethernet + parse_ipv4's checks; the ports in `out.tuple` are 0.
Ipv4Decode decode_ipv4(std::span<const std::uint8_t> frame, Ipv4Tuple& out);

/// decode_ipv4 plus extract_five_tuple's transport checks and ports (the
/// ICMP identifier in src_port), so the verdict is kOk exactly when
/// parse_ethernet, parse_ipv4 and extract_five_tuple all succeed. L4 is
/// everything after the IPv4 header, as extract_five_tuple sees it.
Ipv4Decode decode_ipv4_tuple(std::span<const std::uint8_t> frame,
                             Ipv4Tuple& out);

}  // namespace nnfv::packet
