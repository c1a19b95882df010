// OpenFlow-style match: the subset of fields the NF-FG translation needs
// (port, L2, 802.1Q, L3 with prefixes, L4 ports).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "packet/flow_key.hpp"
#include "packet/headers.hpp"

namespace nnfv::nfswitch {

using PortId = std::uint32_t;
inline constexpr PortId kInvalidPort = 0xFFFFFFFF;

/// Everything a lookup sees about one packet: ingress port + decoded fields.
struct FlowContext {
  PortId in_port = kInvalidPort;
  packet::FlowFields fields;
};

/// Host-order mask for an IPv4 prefix length (0 = match-all, >=32 = exact).
/// Shared by FlowMatch::matches and the tuple-space classifier so the two
/// can never disagree on prefix semantics.
inline std::uint32_t ipv4_prefix_mask(std::uint8_t prefix) {
  if (prefix == 0) return 0;
  if (prefix >= 32) return 0xFFFFFFFFu;
  return ~((1u << (32 - prefix)) - 1u);
}

/// VLAN match semantics mirror OpenFlow 1.3: unset = wildcard;
/// kMatchUntagged = packet must carry no tag; a VID matches tagged packets.
struct FlowMatch {
  static constexpr std::uint16_t kMatchUntagged = packet::kVlanUntagged;

  std::optional<PortId> in_port;
  std::optional<packet::MacAddress> eth_src;
  std::optional<packet::MacAddress> eth_dst;
  std::optional<std::uint16_t> eth_type;
  std::optional<std::uint16_t> vlan;  ///< VID, or kMatchUntagged
  std::optional<packet::Ipv4Address> ip_src;
  std::uint8_t ip_src_prefix = 32;
  std::optional<packet::Ipv4Address> ip_dst;
  std::uint8_t ip_dst_prefix = 32;
  std::optional<std::uint8_t> ip_proto;
  std::optional<std::uint16_t> tp_src;  ///< transport source port
  std::optional<std::uint16_t> tp_dst;

  [[nodiscard]] bool matches(const FlowContext& ctx) const;

  /// Number of specified fields — a crude specificity measure used by tests.
  [[nodiscard]] int specified_fields() const;

  [[nodiscard]] std::string to_string() const;

  bool operator==(const FlowMatch&) const = default;
};

/// Convenience factory: match everything arriving on `port`.
FlowMatch match_in_port(PortId port);

/// Convenience factory: match `port` + 802.1Q VID.
FlowMatch match_port_vlan(PortId port, std::uint16_t vid);

}  // namespace nnfv::nfswitch
