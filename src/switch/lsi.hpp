// LogicalSwitchInstance (LSI): the per-graph software switch of the
// Universal Node architecture, plus the base LSI-0 that classifies node
// ingress traffic.
//
// An LSI owns named ports; each port's peer is one burst callback (an NF
// instance, a virtual link to another LSI, or a physical-port model).
// Forwarding is a flow-table lookup followed by action application. Table
// misses go to the LSI's controller, mirroring the per-LSI OpenFlow
// controller of the paper's Figure 1. A virtual link is a pair of linked
// ports (Lsi::link): a frame that only crosses it is classified by both
// LSIs with one microflow-cache probe.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "packet/buffer.hpp"
#include "switch/flow_table.hpp"
#include "util/status.hpp"

namespace nnfv::nfswitch {

using LsiId = std::uint32_t;

class Lsi;

/// Per-LSI control plane: receives table-miss packets and may install rules.
/// Mirrors the "OpenFlow connection" of the compute-node architecture.
class FlowController {
 public:
  virtual ~FlowController() = default;
  virtual void on_packet_in(Lsi& lsi, PortId in_port,
                            const packet::PacketBuffer& frame) = 0;
};

/// Relaxed-atomic counters: datapath workers on different shards bump
/// the same port's stats concurrently (docs/datapath.md §6).
struct PortStats {
  util::RelaxedCounter rx_packets;
  util::RelaxedCounter rx_bytes;
  util::RelaxedCounter tx_packets;
  util::RelaxedCounter tx_bytes;
  util::RelaxedCounter tx_no_peer;  ///< transmits with no peer attached
  /// Ingress priority split (exec/priority.hpp): control = ARP / DHCP /
  /// rekey ESP, bulk = everything else. Fed by receive_burst from the
  /// flow key it already decodes; overload shedding upstream uses
  /// the same classifier, so these two counters tell which class a
  /// congested port actually carried.
  util::RelaxedCounter rx_control;
  util::RelaxedCounter rx_bulk;
};

class Lsi {
 public:
  /// Receiver for the frames leaving the switch through a port, one
  /// burst per call.
  using Peer = std::function<void(packet::PacketBurst&&)>;

  Lsi(LsiId id, std::string name);
  /// Dissolves every link of this LSI (see link()).
  ~Lsi();
  Lsi(const Lsi&) = delete;
  Lsi& operator=(const Lsi&) = delete;

  [[nodiscard]] LsiId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Creates a port; names must be unique within the LSI.
  util::Result<PortId> add_port(const std::string& name);
  util::Status remove_port(PortId port);

  /// Sets where frames transmitted out of `port` go.
  util::Status set_port_peer(PortId port, Peer peer);

  /// Makes `port` and `peer_port` of `peer` the two ends of a virtual
  /// link. Each end's peer is the other LSI's receive_burst, which stays
  /// the uncomposed path. A frame whose entry's action list is exactly
  /// output(link port) is classified on in the peer with the key already
  /// decoded and leaves by the peer's transmit_burst: one cache probe
  /// resolves both LSIs, and both publish the counters the two hops would
  /// (docs/datapath.md §2). The tables of the two LSIs, and of every LSI
  /// either is already linked to, share one cache epoch from now on.
  /// Replacing the peer of a linked port, or removing it, dissolves the
  /// link at both ends and leaves the other end without a peer.
  util::Status link(PortId port, Lsi& peer, PortId peer_port);

  [[nodiscard]] bool has_port(PortId port) const;
  [[nodiscard]] util::Result<PortId> port_by_name(
      const std::string& name) const;
  [[nodiscard]] std::vector<PortId> ports() const;
  [[nodiscard]] const PortStats* port_stats(PortId port) const;

  /// Ingress of one frame: a burst of 1 over receive_burst.
  void receive(PortId port, packet::PacketBuffer&& frame);

  /// Burst ingress: decodes each frame's key once, classifies it and
  /// transmits the survivors. When they all leave by one port they leave
  /// in `burst`'s own vector; otherwise they are grouped per egress port
  /// and each group is transmitted as one burst. Frames destined for the
  /// same port keep their relative order, also across a controller
  /// punt; cross-port interleaving is not preserved (docs/datapath.md).
  void receive_burst(PortId port, packet::PacketBurst&& burst);

  /// Egress of one frame (controller packet-out): a burst of 1 over
  /// transmit_burst.
  void transmit(PortId port, packet::PacketBuffer&& frame);

  /// Egress of a whole burst through one port, in one peer call.
  void transmit_burst(PortId port, packet::PacketBurst&& burst);

  FlowTable& flow_table() { return table_; }
  [[nodiscard]] const FlowTable& flow_table() const { return table_; }

  void set_controller(FlowController* controller) { controller_ = controller; }

  [[nodiscard]] std::uint64_t processed_packets() const { return processed_; }

 private:
  struct Port;
  /// The other end of a linked port.
  struct LinkEnd {
    Lsi* lsi = nullptr;  ///< nullptr = the port is not linked
    PortId port = kInvalidPort;
    Port* state = nullptr;  ///< that port's entry in lsi->ports_
  };
  struct Port {
    std::string name;
    Peer peer;
    PortStats stats;
    LinkEnd link;
  };
  struct Crossing;
  struct Crossings;

  /// Clears the link of `port` at both ends, if it has one.
  void unlink(Port& port);
  /// Whether any of `outputs` is a linked port.
  [[nodiscard]] bool leaves_by_link(const std::vector<PortId>& outputs) const;
  /// For a frame that hit `entry` through `slot`, whose peer is not
  /// kNoPeer: the link it crosses composed, with the peer's lookup
  /// counted, or nullptr when it takes `entry`'s own actions. Resolves
  /// slot.peer on the slot's first crossing of the epoch.
  Crossing* cross(const FlowEntry& entry, CacheSlot& slot,
                  const FlowKeyView& key, std::size_t bytes,
                  Crossings& crossings);

  LsiId id_;
  std::string name_;
  // Port add/remove follows the same quiesce contract as flow-table
  // mutations; during traffic, ports_ is read-only and workers only
  // touch the atomic counters inside each Port.
  std::map<PortId, Port> ports_;
  PortId next_port_ = 1;
  FlowTable table_;
  FlowController* controller_ = nullptr;
  util::RelaxedCounter processed_;
};

}  // namespace nnfv::nfswitch
