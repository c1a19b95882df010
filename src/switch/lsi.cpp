#include "switch/lsi.hpp"

#include <iterator>

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
  ports_[pid] = Port{name, nullptr, {}};
  return pid;
}

util::Status Lsi::remove_port(PortId port) {
  if (ports_.erase(port) == 0) {
    return util::not_found("port " + std::to_string(port) + " on LSI " +
                           name_);
  }
  return util::Status::ok();
}

util::Status Lsi::set_port_peer(PortId port, Peer peer) {
  auto it = ports_.find(port);
  if (it == ports_.end()) {
    return util::not_found("port " + std::to_string(port) + " on LSI " +
                           name_);
  }
  it->second.peer = std::move(peer);
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
  receive_burst(port, packet::burst_of(std::move(frame)));
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

  // Egress staging. While every survivor so far has exactly one output
  // and it is the same port, survivors are compacted into the front of
  // `burst` itself (`kept` frames bound for `kept_port`) and that vector
  // is what leaves. The first frame that breaks this moves the prefix
  // into per-port groups once; same-port order is kept either way.
  std::size_t kept = 0;
  PortId kept_port = kInvalidPort;
  bool grouped = false;
  packet::BurstGroups<PortId> groups(burst.size());
  // Sends everything staged so far, so a controller's packet-out cannot
  // overtake earlier frames of the burst bound for the same port.
  auto flush = [&] {
    if (grouped) {
      for (auto& [p, group] : groups) transmit_burst(p, std::move(group));
      groups.clear();
      grouped = false;
    } else if (kept != 0) {
      transmit_burst(kept_port,
                     packet::PacketBurst(
                         std::make_move_iterator(burst.begin()),
                         std::make_move_iterator(burst.begin() + kept)));
    }
    kept = 0;
  };
  auto punt = [&](const packet::PacketBuffer& frame) {
    publish();
    flush();
    controller_->on_packet_in(*this, port, frame);
  };

  std::vector<PortId> outputs;
  FlowKeyView key;
  key.in_port = port;
  for (std::size_t i = 0; i < burst.size(); ++i) {
    packet::PacketBuffer& frame = burst[i];
    rx_bytes += frame.size();
    if (!packet::decode_flow_key(frame.data(), key)) {
      NNFV_LOG(kDebug, "lsi") << name_ << ": unparseable frame dropped";
      continue;
    }
    // Priority split from the key already decoded for classification;
    // only a rekey-ESP frame costs an extra peek (the SPI).
    if (exec::classify_priority(key, frame.data()) ==
        exec::FramePriority::kControl) {
      ++control;
    } else {
      ++bulk;
    }
    FlowEntry* entry = table_.lookup_key(key, frame.size(), tally);
    if (entry == nullptr) {
      if (controller_ != nullptr) punt(frame);
      continue;
    }
    const ActionOutcome outcome =
        apply_actions(entry->actions, frame, outputs);
    if (outcome.to_controller && controller_ != nullptr) punt(frame);
    if (outcome.dropped || outputs.empty()) continue;
    if (!grouped && outputs.size() == 1 &&
        (kept == 0 || outputs[0] == kept_port)) {
      kept_port = outputs[0];
      if (kept != i) burst[kept] = std::move(frame);
      ++kept;
      continue;
    }
    if (!grouped) {
      for (std::size_t k = 0; k < kept; ++k) {
        groups.add(kept_port, std::move(burst[k]));
      }
      kept = 0;
      grouped = true;
    }
    for (std::size_t o = 0; o + 1 < outputs.size(); ++o) {
      groups.add(outputs[o], frame.clone());
    }
    groups.add(outputs.back(), std::move(frame));
  }
  publish();

  if (grouped) {
    flush();
    return;
  }
  burst.erase(burst.begin() + static_cast<std::ptrdiff_t>(kept), burst.end());
  if (kept != 0) transmit_burst(kept_port, std::move(burst));
}

void Lsi::transmit(PortId port, packet::PacketBuffer&& frame) {
  transmit_burst(port, packet::burst_of(std::move(frame)));
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
  if (p.peer) {
    p.peer(std::move(burst));
  } else {
    p.stats.tx_no_peer += burst.size();
  }
}

}  // namespace nnfv::nfswitch
