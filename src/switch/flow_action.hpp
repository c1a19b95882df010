// Flow actions: the rewrite/forward operations the traffic-steering manager
// installs (output, VLAN push/pop/set for graph marking, MAC rewrite, drop,
// punt to controller).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "packet/buffer.hpp"
#include "packet/headers.hpp"
#include "switch/flow_match.hpp"

namespace nnfv::nfswitch {

struct FlowAction {
  enum class Type {
    kOutput,      ///< forward out of `port`
    kPushVlan,    ///< add an 802.1Q tag with `vlan`
    kPopVlan,     ///< remove the 802.1Q tag
    kSetVlan,     ///< rewrite the VID of an existing tag (adds if missing)
    kSetEthSrc,   ///< rewrite source MAC
    kSetEthDst,   ///< rewrite destination MAC
    kDrop,        ///< discard (terminates the action list)
    kController,  ///< punt a copy to the LSI's controller
  };

  Type type = Type::kDrop;
  PortId port = kInvalidPort;  ///< for kOutput
  std::uint16_t vlan = 0;      ///< for kPushVlan / kSetVlan
  packet::MacAddress mac;      ///< for kSetEthSrc / kSetEthDst

  static FlowAction output(PortId port) {
    return {Type::kOutput, port, 0, {}};
  }
  static FlowAction push_vlan(std::uint16_t vid) {
    return {Type::kPushVlan, kInvalidPort, vid, {}};
  }
  static FlowAction pop_vlan() { return {Type::kPopVlan, kInvalidPort, 0, {}}; }
  static FlowAction set_vlan(std::uint16_t vid) {
    return {Type::kSetVlan, kInvalidPort, vid, {}};
  }
  static FlowAction set_eth_src(packet::MacAddress mac) {
    return {Type::kSetEthSrc, kInvalidPort, 0, mac};
  }
  static FlowAction set_eth_dst(packet::MacAddress mac) {
    return {Type::kSetEthDst, kInvalidPort, 0, mac};
  }
  static FlowAction drop() { return {Type::kDrop, kInvalidPort, 0, {}}; }
  static FlowAction to_controller() {
    return {Type::kController, kInvalidPort, 0, {}};
  }

  [[nodiscard]] std::string to_string() const;

  bool operator==(const FlowAction&) const = default;
};

/// Result of running an action list over one packet.
struct ActionOutcome {
  bool to_controller = false;
  bool dropped = false;
};

/// Applies `actions` to `frame` in order, mutating it (VLAN/MAC rewrites).
/// Output actions append their egress port to `outputs` (cleared first),
/// in action order — a packet may be replicated. The caller owns the
/// list, so a burst loop that reuses one list allocates at most once.
/// Output actions record the egress port with the packet state *at that
/// point*; since there is one mutated frame, rewrites that follow an
/// output also affect earlier outputs — the steering manager never
/// generates such lists (rewrites always precede outputs), and
/// apply_actions documents the limitation rather than cloning per output.
ActionOutcome apply_actions(const std::vector<FlowAction>& actions,
                            packet::PacketBuffer& frame,
                            std::vector<PortId>& outputs);

}  // namespace nnfv::nfswitch
