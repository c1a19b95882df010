#include "switch/learning_controller.hpp"

#include "packet/flow_key.hpp"

namespace nnfv::nfswitch {

void LearningController::on_packet_in(Lsi& lsi, PortId in_port,
                                      const packet::PacketBuffer& frame) {
  ++packet_ins_;
  packet::FlowKey key;
  if (!packet::decode_flow_key(frame.data(), key)) return;
  const packet::MacAddress src{key.eth_src};
  const packet::MacAddress dst{key.eth_dst};

  // Learn the talker; re-learn on movement.
  if (!src.is_multicast()) stations_[src] = in_port;

  auto destination = stations_.find(dst);
  if (destination != stations_.end() && !dst.is_multicast()) {
    // Install the fast-path rule, then packet-out the trigger frame.
    install(lsi, dst, destination->second);
    lsi.transmit(destination->second, frame.copy());
    return;
  }

  // Unknown/broadcast destination: flood (packet-out on all other ports).
  ++floods_;
  for (PortId port : lsi.ports()) {
    if (port == in_port) continue;
    lsi.transmit(port, frame.clone());
  }
}

void LearningController::install(Lsi& lsi, const packet::MacAddress& dst,
                                 PortId port) {
  FlowTable& table = lsi.flow_table();
  auto [rule, inserted] = rules_.try_emplace(dst);
  if (!inserted) {
    // A punt from an explicit controller action arrives even while the
    // rule is installed: adding it again would duplicate it.
    if (rule->second.port == port && table.find(rule->second.id) != nullptr) {
      return;
    }
    (void)table.remove(rule->second.id);  // the station moved
  }
  FlowMatch match;
  match.eth_dst = dst;
  rule->second = {table.add(priority_, match, {FlowAction::output(port)},
                            cookie_),
                  port};
  ++rules_installed_;
}

void LearningController::reset(Lsi& lsi) {
  stations_.clear();
  rules_.clear();
  lsi.flow_table().remove_by_cookie(cookie_);
}

}  // namespace nnfv::nfswitch
