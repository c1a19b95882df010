#include "switch/lsi.hpp"

#include <algorithm>
#include <array>
#include <iterator>

#include "exec/priority.hpp"
#include "util/logging.hpp"

namespace nnfv::nfswitch {

namespace {

/// Where staged frames leave: a port of the LSI that received them or,
/// for frames that crossed a virtual link composed, a port of the peer.
struct Exit {
  Lsi* lsi = nullptr;
  PortId port = kInvalidPort;
  bool operator==(const Exit&) const = default;
};

bool has_controller_action(const FlowEntry& entry) {
  for (const FlowAction& action : entry.actions) {
    if (action.type == FlowAction::Type::kController) return true;
  }
  return false;
}

}  // namespace

/// What one burst owes the two hops of a composed crossing: the counters
/// the link port's transmit_burst and the peer's receive_burst would
/// publish, and the peer table's lookups.
struct Lsi::Crossing {
  PortId port = kInvalidPort;  ///< the linked port of the receiving LSI
  Port* local = nullptr;
  LinkEnd end;
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::uint64_t control = 0;
  std::uint64_t bulk = 0;
  LookupTally tally;  ///< of end.lsi's table
};

/// The crossings of one burst, per linked port. A burst that crosses more
/// links than there are records publishes the ones it has and starts over.
struct Lsi::Crossings {
  std::array<Crossing, 4> records;
  std::size_t used = 0;
  Crossing* last = nullptr;

  /// The record of `port` on `lsi`, or nullptr if `port` is not linked.
  Crossing* at(Lsi& lsi, PortId port) {
    if (last != nullptr && last->port == port) return last;
    for (std::size_t r = 0; r < used; ++r) {
      if (records[r].port == port) return last = &records[r];
    }
    auto it = lsi.ports_.find(port);
    if (it == lsi.ports_.end() || it->second.link.lsi == nullptr) {
      return nullptr;
    }
    if (used == records.size()) publish();
    last = &records[used++];
    *last = Crossing{};
    last->port = port;
    last->local = &it->second;
    last->end = it->second.link;
    return last;
  }

  void publish() {
    for (std::size_t r = 0; r < used; ++r) {
      Crossing& c = records[r];
      c.local->stats.tx_packets += c.packets;
      c.local->stats.tx_bytes += c.bytes;
      PortStats& rx = c.end.state->stats;
      rx.rx_packets += c.packets;
      rx.rx_bytes += c.bytes;
      rx.rx_control += c.control;
      rx.rx_bulk += c.bulk;
      c.end.lsi->processed_ += c.packets;
      c.end.lsi->table_.publish(c.tally);
    }
    used = 0;
    last = nullptr;
  }
};

Lsi::Lsi(LsiId id, std::string name) : id_(id), name_(std::move(name)) {}

Lsi::~Lsi() {
  for (auto& [pid, port] : ports_) unlink(port);
}

util::Result<PortId> Lsi::add_port(const std::string& name) {
  for (const auto& [pid, port] : ports_) {
    if (port.name == name) {
      return util::already_exists("port '" + name + "' on LSI " + name_);
    }
  }
  const PortId pid = next_port_++;
  ports_[pid] = Port{name, nullptr, {}, {}};
  return pid;
}

util::Status Lsi::remove_port(PortId port) {
  auto it = ports_.find(port);
  if (it == ports_.end()) {
    return util::not_found("port " + std::to_string(port) + " on LSI " +
                           name_);
  }
  unlink(it->second);
  ports_.erase(it);
  return util::Status::ok();
}

util::Status Lsi::set_port_peer(PortId port, Peer peer) {
  auto it = ports_.find(port);
  if (it == ports_.end()) {
    return util::not_found("port " + std::to_string(port) + " on LSI " +
                           name_);
  }
  unlink(it->second);
  it->second.peer = std::move(peer);
  return util::Status::ok();
}

util::Status Lsi::link(PortId port, Lsi& peer, PortId peer_port) {
  if (&peer == this) {
    return util::invalid_argument("a virtual link joins two LSIs, not " +
                                  name_ + " to itself");
  }
  auto here = ports_.find(port);
  if (here == ports_.end()) {
    return util::not_found("port " + std::to_string(port) + " on LSI " +
                           name_);
  }
  auto there = peer.ports_.find(peer_port);
  if (there == peer.ports_.end()) {
    return util::not_found("port " + std::to_string(peer_port) +
                           " on LSI " + peer.name_);
  }
  unlink(here->second);
  unlink(there->second);
  // Every LSI linked to the peer, directly or not, moves onto this
  // table's epoch; join_epoch also bumps it.
  std::vector<Lsi*> component{&peer};
  for (std::size_t i = 0; i < component.size(); ++i) {
    for (const auto& [pid, p] : component[i]->ports_) {
      Lsi* next = p.link.lsi;
      if (next != nullptr && std::find(component.begin(), component.end(),
                                       next) == component.end()) {
        component.push_back(next);
      }
    }
  }
  for (Lsi* lsi : component) lsi->table_.join_epoch(table_);
  here->second.link = {&peer, peer_port, &there->second};
  there->second.link = {this, port, &here->second};
  here->second.peer = [&peer, peer_port](packet::PacketBurst&& burst) {
    peer.receive_burst(peer_port, std::move(burst));
  };
  there->second.peer = [this, port](packet::PacketBurst&& burst) {
    receive_burst(port, std::move(burst));
  };
  return util::Status::ok();
}

void Lsi::unlink(Port& port) {
  if (port.link.lsi == nullptr) return;
  Port& other = *port.link.state;
  other.link = {};
  other.peer = nullptr;
  port.link = {};
  port.peer = nullptr;
  // Composed slots of both tables point across this link.
  table_.invalidate_cache();
}

bool Lsi::leaves_by_link(const std::vector<PortId>& outputs) const {
  for (PortId out : outputs) {
    auto it = ports_.find(out);
    if (it != ports_.end() && it->second.link.lsi != nullptr) return true;
  }
  return false;
}

Lsi::Crossing* Lsi::cross(const FlowEntry& entry, CacheSlot& slot,
                          const FlowKeyView& key, std::size_t bytes,
                          Crossings& crossings) {
  if (slot.peer != nullptr) {  // composed hit: one probe resolved both
    Crossing* crossing = crossings.at(*this, entry.actions.front().port);
    if (crossing != nullptr) crossing->tally.count(slot.peer, true, bytes);
    return crossing;
  }
  // The slot's first crossing in this epoch. Only a frame whose entry
  // does nothing but output to a linked port composes; the peer's probe
  // counts only if it composes, since otherwise the peer looks the frame
  // up itself.
  slot.peer = FlowTable::kNoPeer;
  if (entry.actions.size() != 1 ||
      entry.actions.front().type != FlowAction::Type::kOutput) {
    return nullptr;
  }
  Crossing* crossing = crossings.at(*this, entry.actions.front().port);
  if (crossing == nullptr) return nullptr;
  FlowKeyView peer_key = key;
  peer_key.in_port = crossing->end.port;
  FlowTable& peer_table = crossing->end.lsi->table_;
  const FlowTable::Probe found = peer_table.probe(peer_key);
  if (found.entry == nullptr || has_controller_action(*found.entry)) {
    return nullptr;
  }
  peer_table.commit(found, peer_key, bytes, crossing->tally);
  slot.peer = found.entry;
  return crossing;
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
  Crossings crossings;
  // Publishes everything counted so far; runs before the controller sees
  // a packet (it may read counters or mutate the table), before a
  // mid-burst flush and at the end.
  auto publish = [&] {
    stats.rx_bytes += rx_bytes;
    stats.rx_control += control;
    stats.rx_bulk += bulk;
    rx_bytes = control = bulk = 0;
    table_.publish(tally);
    crossings.publish();
  };
  stats.rx_packets += burst.size();
  processed_ += burst.size();

  // Egress staging, per exit: a port of this LSI, or a port of the peer
  // for a frame that crossed a link composed. While every survivor so far
  // has exactly one output and it is the same exit, survivors are
  // compacted into the front of `burst` itself (`kept` frames bound for
  // `kept_exit`) and that vector is what leaves. The first frame that
  // breaks this moves the prefix into per-exit groups once; same-exit
  // order is kept either way.
  std::size_t kept = 0;
  Exit kept_exit;
  bool grouped = false;
  bool composed_staged = false;
  packet::BurstGroups<Exit> groups(burst.size());
  // Sends everything staged so far, so a frame that must go a longer way
  // (a controller's packet-out, a link crossed uncomposed) cannot be
  // overtaken by later frames of the burst bound for the same port.
  auto flush = [&] {
    if (grouped) {
      for (auto& [exit, group] : groups) {
        exit.lsi->transmit_burst(exit.port, std::move(group));
      }
      groups.clear();
      grouped = false;
    } else if (kept != 0) {
      kept_exit.lsi->transmit_burst(
          kept_exit.port,
          packet::PacketBurst(std::make_move_iterator(burst.begin()),
                              std::make_move_iterator(burst.begin() + kept)));
    }
    kept = 0;
    composed_staged = false;
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
    const bool is_control = exec::classify_priority(key, frame.data()) ==
                            exec::FramePriority::kControl;
    if (is_control) {
      ++control;
    } else {
      ++bulk;
    }
    const FlowTable::Probe found = table_.probe(key);
    FlowEntry* entry = table_.commit(found, key, frame.size(), tally);
    CacheSlot& slot = *found.slot;
    if (entry == nullptr) {
      if (controller_ != nullptr) punt(frame);
      continue;
    }
    // A composed crossing: the peer's entry acts on the frame, which is
    // staged for the peer's port, and the peer's counters are owed.
    Crossing* crossing =
        slot.peer == FlowTable::kNoPeer
            ? nullptr
            : cross(*entry, slot, key, frame.size(), crossings);
    if (crossing != nullptr) {
      ++crossing->packets;
      crossing->bytes += frame.size();
      ++(is_control ? crossing->control : crossing->bulk);
    }
    const ActionOutcome outcome = apply_actions(
        crossing != nullptr ? slot.peer->actions : entry->actions, frame,
        outputs);
    if (outcome.to_controller && controller_ != nullptr) punt(frame);
    if (outcome.dropped || outputs.empty()) continue;
    const Exit exit{crossing != nullptr ? crossing->end.lsi : this,
                    outputs[0]};
    if (crossing == nullptr && composed_staged && leaves_by_link(outputs)) {
      publish();
      flush();
    }
    composed_staged = composed_staged || crossing != nullptr;
    if (!grouped && outputs.size() == 1 && (kept == 0 || exit == kept_exit)) {
      kept_exit = exit;
      if (kept != i) burst[kept] = std::move(frame);
      ++kept;
      continue;
    }
    if (!grouped) {
      for (std::size_t k = 0; k < kept; ++k) {
        groups.add(kept_exit, std::move(burst[k]));
      }
      kept = 0;
      grouped = true;
    }
    for (std::size_t o = 0; o + 1 < outputs.size(); ++o) {
      groups.add({exit.lsi, outputs[o]}, frame.clone());
    }
    groups.add({exit.lsi, outputs.back()}, std::move(frame));
  }
  publish();

  if (grouped) {
    flush();
    return;
  }
  burst.erase(burst.begin() + static_cast<std::ptrdiff_t>(kept), burst.end());
  if (kept != 0) {
    kept_exit.lsi->transmit_burst(kept_exit.port, std::move(burst));
  }
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
