#include "switch/lsi.hpp"

#include "exec/priority.hpp"
#include "util/logging.hpp"

namespace nnfv::nfswitch {

Lsi::Lsi(LsiId id, std::string name) : id_(id), name_(std::move(name)) {}

util::Result<PortId> Lsi::add_port(const std::string& name) {
  for (const auto& [pid, port] : ports_) {
    if (port.name == name) {
      return util::already_exists("port '" + name + "' on LSI " + name_);
    }
  }
  const PortId pid = next_port_++;
  ports_[pid] = Port{name, nullptr, nullptr, {}};
  return pid;
}

util::Status Lsi::remove_port(PortId port) {
  if (ports_.erase(port) == 0) {
    return util::not_found("port " + std::to_string(port) + " on LSI " +
                           name_);
  }
  return util::Status::ok();
}

util::Status Lsi::set_port_peer(PortId port, PortPeer peer) {
  auto it = ports_.find(port);
  if (it == ports_.end()) {
    return util::not_found("port " + std::to_string(port) + " on LSI " +
                           name_);
  }
  it->second.peer = std::move(peer);
  return util::Status::ok();
}

util::Status Lsi::set_port_burst_peer(PortId port, BurstPeer peer) {
  auto it = ports_.find(port);
  if (it == ports_.end()) {
    return util::not_found("port " + std::to_string(port) + " on LSI " +
                           name_);
  }
  it->second.burst_peer = std::move(peer);
  return util::Status::ok();
}

bool Lsi::has_port(PortId port) const { return ports_.contains(port); }

util::Result<PortId> Lsi::port_by_name(const std::string& name) const {
  for (const auto& [pid, port] : ports_) {
    if (port.name == name) return pid;
  }
  return util::not_found("port '" + name + "' on LSI " + name_);
}

std::vector<PortId> Lsi::ports() const {
  std::vector<PortId> out;
  out.reserve(ports_.size());
  for (const auto& [pid, port] : ports_) out.push_back(pid);
  return out;
}

const PortStats* Lsi::port_stats(PortId port) const {
  auto it = ports_.find(port);
  return it == ports_.end() ? nullptr : &it->second.stats;
}

void Lsi::receive(PortId port, packet::PacketBuffer&& frame) {
  // Burst-of-1 over the one packet-ingress contract: classification,
  // replication and egress grouping live in receive_burst only.
  packet::PacketBurst single;
  single.push_back(std::move(frame));
  receive_burst(port, std::move(single));
}

void Lsi::receive_burst(PortId port, packet::PacketBurst&& burst) {
  auto it = ports_.find(port);
  if (it == ports_.end()) return;  // burst on a deleted port: drop
  PortStats& stats = it->second.stats;

  // Counters are summed per burst and published once: one atomic add per
  // counter and burst instead of one per counter and packet.
  std::uint64_t rx_bytes = 0;
  std::uint64_t control = 0;
  std::uint64_t bulk = 0;
  LookupTally tally;
  // Publishes everything counted so far; runs before the controller sees
  // a packet (it may read counters or mutate the table) and at the end.
  auto publish = [&] {
    stats.rx_bytes += rx_bytes;
    stats.rx_control += control;
    stats.rx_bulk += bulk;
    rx_bytes = control = bulk = 0;
    table_.publish(tally);
  };
  stats.rx_packets += burst.size();
  processed_ += burst.size();

  // Survivors grouped per egress port, same-port order preserved.
  packet::BurstGroups<PortId> out(burst.size());
  std::vector<PortId> outputs;

  for (packet::PacketBuffer& frame : burst) {
    rx_bytes += frame.size();
    auto fields = packet::extract_flow_fields(frame.data());
    if (!fields) {
      NNFV_LOG(kDebug, "lsi") << name_ << ": unparseable frame dropped";
      continue;
    }
    // Priority split from the fields already decoded for classification;
    // only a rekey-ESP frame costs an extra peek (the SPI).
    if (exec::classify_priority(fields.value(), frame.data()) ==
        exec::FramePriority::kControl) {
      ++control;
    } else {
      ++bulk;
    }
    FlowContext ctx{port, fields.value()};
    FlowEntry* entry = table_.lookup_key(FlowKeyView::from_context(ctx),
                                         frame.size(), tally);
    if (entry == nullptr) {
      if (controller_ != nullptr) {
        publish();
        controller_->on_packet_in(*this, port, frame);
      }
      continue;
    }
    const ActionOutcome outcome =
        apply_actions(entry->actions, frame, outputs);
    if (outcome.to_controller && controller_ != nullptr) {
      publish();
      controller_->on_packet_in(*this, port, frame);
    }
    if (outcome.dropped || outputs.empty()) continue;
    for (std::size_t i = 0; i + 1 < outputs.size(); ++i) {
      out.add(outputs[i], frame.clone());
    }
    out.add(outputs.back(), std::move(frame));
  }
  publish();
  burst.clear();

  for (auto& [p, group] : out) transmit_burst(p, std::move(group));
}

void Lsi::transmit(PortId port, packet::PacketBuffer&& frame) {
  auto it = ports_.find(port);
  if (it == ports_.end()) return;
  it->second.stats.tx_packets += 1;
  it->second.stats.tx_bytes += frame.size();
  if (it->second.peer) {
    it->second.peer(std::move(frame));
    return;
  }
  // Symmetric fallback: a port wired only for bursts still delivers
  // single frames (controller packet-out, non-burst pipeline).
  if (it->second.burst_peer) {
    packet::PacketBurst single;
    single.push_back(std::move(frame));
    it->second.burst_peer(std::move(single));
    return;
  }
  it->second.stats.tx_no_peer += 1;
}

void Lsi::transmit_burst(PortId port, packet::PacketBurst&& burst) {
  if (burst.empty()) return;
  auto it = ports_.find(port);
  if (it == ports_.end()) return;
  Port& p = it->second;
  std::uint64_t bytes = 0;
  for (const packet::PacketBuffer& frame : burst) bytes += frame.size();
  p.stats.tx_packets += burst.size();
  p.stats.tx_bytes += bytes;
  if (p.burst_peer) {
    p.burst_peer(std::move(burst));
    return;
  }
  if (!p.peer) {
    p.stats.tx_no_peer += burst.size();
    return;
  }
  for (packet::PacketBuffer& frame : burst) p.peer(std::move(frame));
}

}  // namespace nnfv::nfswitch
