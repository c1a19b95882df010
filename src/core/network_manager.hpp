// NetworkManager (Figure 1's "Network manager"): LSI lifecycle.
//
// Owns the base LSI (LSI-0) with the node's physical ports, creates one
// LSI per deployed NF-FG, and builds the virtual links between LSI-0 and
// graph LSIs over which classified traffic flows.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "switch/lsi.hpp"
#include "util/status.hpp"

namespace nnfv::core {

/// A virtual link between LSI-0 and a graph LSI (two linked ports,
/// Lsi::link).
struct VirtualLink {
  nfswitch::PortId base_port = nfswitch::kInvalidPort;   ///< on LSI-0
  nfswitch::PortId graph_port = nfswitch::kInvalidPort;  ///< on graph LSI
};

class NetworkManager {
 public:
  NetworkManager();

  nfswitch::Lsi& base_lsi() { return *base_; }
  [[nodiscard]] const nfswitch::Lsi& base_lsi() const { return *base_; }

  /// Physical ports live on LSI-0; the external world injects/collects
  /// through them.
  util::Result<nfswitch::PortId> add_physical_port(const std::string& name);
  [[nodiscard]] util::Result<nfswitch::PortId> physical_port(
      const std::string& name) const;

  /// Wires where frames leaving a physical port go (test sink, wire model).
  util::Status set_physical_egress(const std::string& name,
                                   nfswitch::Lsi::Peer peer);

  /// External ingress: the whole vector enters LSI-0 as one batch.
  util::Status inject_burst(const std::string& name,
                            packet::PacketBurst&& burst);

  util::Result<nfswitch::Lsi*> create_graph_lsi(const std::string& graph_id);
  util::Status destroy_graph_lsi(const std::string& graph_id);
  [[nodiscard]] nfswitch::Lsi* graph_lsi(const std::string& graph_id);

  /// Creates a virtual link for `graph_id` (label distinguishes several
  /// links of one graph, e.g. one per endpoint).
  util::Result<VirtualLink> create_virtual_link(const std::string& graph_id,
                                                const std::string& label);

  [[nodiscard]] std::size_t lsi_count() const;  ///< including LSI-0
  [[nodiscard]] std::vector<std::string> graph_ids() const;

 private:
  std::unique_ptr<nfswitch::Lsi> base_;
  std::map<std::string, std::unique_ptr<nfswitch::Lsi>> graph_lsis_;
  /// LSI-0 ends of each graph's virtual links, reclaimed on destroy so a
  /// graph id can be redeployed (setup/teardown churn must not leak ports).
  std::map<std::string, std::vector<nfswitch::PortId>> graph_link_ports_;
  std::map<std::string, nfswitch::PortId> physical_ports_;
  nfswitch::LsiId next_lsi_id_ = 1;
};

}  // namespace nnfv::core
