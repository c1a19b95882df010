// LogicalSwitchInstance (LSI): the per-graph software switch of the
// Universal Node architecture, plus the base LSI-0 that classifies node
// ingress traffic.
//
// An LSI owns named ports; each port's peer is one burst callback (an NF
// instance, a virtual link to another LSI, or a physical-port model).
// Forwarding is
// a flow-table lookup followed by action application. Table misses go to
// the LSI's controller, mirroring the per-LSI OpenFlow controller of the
// paper's Figure 1.
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

  [[nodiscard]] LsiId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Creates a port; names must be unique within the LSI.
  util::Result<PortId> add_port(const std::string& name);
  util::Status remove_port(PortId port);

  /// Sets where frames transmitted out of `port` go.
  util::Status set_port_peer(PortId port, Peer peer);

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
  struct Port {
    std::string name;
    Peer peer;
    PortStats stats;
  };

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
