// LearningController: a reactive per-LSI OpenFlow-style controller.
//
// Figure 1 gives every LSI its own controller ("each LSI is managed by
// its own OpenFlow controller that dynamically inserts the proper rules in
// flow table(s)"). The steering manager covers the proactive case; this
// controller covers the reactive one: on table miss it learns source
// MAC -> port, floods unknown destinations (packet-out on every other
// port) and installs an exact-match rule once the destination is known,
// so subsequent packets forward in the fast path without the controller.
// It keeps the id of the rule it installed per destination, so a punt
// that arrives while that rule is installed adds nothing, and a station
// that moved gets its old rule replaced.
#pragma once

#include <cstdint>
#include <map>

#include "packet/headers.hpp"
#include "switch/lsi.hpp"

namespace nnfv::nfswitch {

class LearningController : public FlowController {
 public:
  /// Installed rules carry this cookie (removable per controller).
  explicit LearningController(Cookie cookie = 0xC0DE,
                              std::uint16_t rule_priority = 10)
      : cookie_(cookie), priority_(rule_priority) {}

  void on_packet_in(Lsi& lsi, PortId in_port,
                    const packet::PacketBuffer& frame) override;

  [[nodiscard]] std::size_t known_stations() const { return stations_.size(); }
  [[nodiscard]] std::uint64_t packet_ins() const { return packet_ins_; }
  [[nodiscard]] std::uint64_t rules_installed() const {
    return rules_installed_;
  }
  [[nodiscard]] std::uint64_t floods() const { return floods_; }

  /// Drops learned state and removes this controller's rules from `lsi`.
  void reset(Lsi& lsi);

 private:
  struct Installed {
    FlowEntryId id = 0;
    PortId port = 0;
  };

  /// Adds the eth_dst -> output(port) rule unless it is installed already.
  void install(Lsi& lsi, const packet::MacAddress& dst, PortId port);

  Cookie cookie_;
  std::uint16_t priority_;
  std::map<packet::MacAddress, PortId> stations_;
  std::map<packet::MacAddress, Installed> rules_;  ///< by eth_dst
  std::uint64_t packet_ins_ = 0;
  std::uint64_t rules_installed_ = 0;
  std::uint64_t floods_ = 0;
};

}  // namespace nnfv::nfswitch
