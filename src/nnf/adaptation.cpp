#include "nnf/adaptation.hpp"

#include "packet/builder.hpp"
#include "packet/headers.hpp"

namespace nnfv::nnf {

util::Status AdaptationLayer::bind(ContextId ctx, NfPortIndex port,
                                   Mark mark) {
  if (by_mark_.contains(mark)) {
    return util::already_exists("mark " + std::to_string(mark));
  }
  const std::pair<ContextId, NfPortIndex> path{ctx, port};
  if (by_path_.contains(path)) {
    return util::already_exists("binding for context " + std::to_string(ctx) +
                                " port " + std::to_string(port));
  }
  by_mark_[mark] = path;
  by_path_[path] = mark;
  return util::Status::ok();
}

std::size_t AdaptationLayer::unbind_context(ContextId ctx) {
  std::size_t removed = 0;
  for (auto it = by_path_.begin(); it != by_path_.end();) {
    if (it->first.first == ctx) {
      by_mark_.erase(it->second);
      it = by_path_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  return removed;
}

void AdaptationLayer::set_burst_transmit(BurstTransmit tx) {
  tx_ = [tx = std::move(tx)](Mark mark, packet::PacketBurst&& burst) {
    for (packet::PacketBuffer& frame : burst) packet::set_vlan(frame, mark);
    tx(std::move(burst));
  };
}

void AdaptationLayer::receive(sim::SimTime now, Mark mark,
                              packet::PacketBurst&& burst) {
  stats_.in_frames += burst.size();
  auto binding = by_mark_.find(mark);
  if (binding == by_mark_.end()) {
    stats_.unmapped_in += burst.size();
    burst.clear();
    return;
  }
  const auto [ctx, port] = binding->second;
  std::vector<NfOutput> outputs =
      nf_.process_burst(ctx, port, now, std::move(burst));

  // Outputs leave per output port, each group with its path's mark.
  packet::BurstGroups<NfPortIndex> groups(outputs.size());
  for (NfOutput& output : outputs) {
    groups.add(output.port, std::move(output.frame));
  }
  for (auto& [out_port, group] : groups) {
    auto out_mark = by_path_.find({ctx, out_port});
    if (out_mark == by_path_.end()) {
      stats_.unmapped_out += group.size();
      continue;
    }
    stats_.out_frames += group.size();
    if (tx_) tx_(out_mark->second, std::move(group));
  }
}

void AdaptationLayer::receive_burst(sim::SimTime now,
                                    packet::PacketBurst&& tagged) {
  packet::BurstGroups<Mark> groups(tagged.size());
  for (packet::PacketBuffer& frame : tagged) {
    auto eth = packet::parse_ethernet(frame.data());
    if (!eth || !eth->vlan.has_value()) {
      ++stats_.in_frames;
      ++stats_.untagged;
      continue;
    }
    const Mark mark = *eth->vlan;
    packet::set_vlan(frame, std::nullopt);  // present the NF untagged traffic
    groups.add(mark, std::move(frame));
  }
  tagged.clear();
  for (auto& [mark, group] : groups) receive(now, mark, std::move(group));
}

void AdaptationLayer::receive(sim::SimTime now,
                              packet::PacketBuffer&& frame) {
  receive_burst(now, packet::burst_of(std::move(frame)));
}

}  // namespace nnfv::nnf
