#include "core/network_manager.hpp"

#include "util/logging.hpp"

namespace nnfv::core {

using util::Result;
using util::Status;

NetworkManager::NetworkManager()
    : base_(std::make_unique<nfswitch::Lsi>(0, "LSI-0")) {}

Result<nfswitch::PortId> NetworkManager::add_physical_port(
    const std::string& name) {
  auto port = base_->add_port(name);
  if (!port) return port;
  physical_ports_[name] = port.value();
  return port;
}

Result<nfswitch::PortId> NetworkManager::physical_port(
    const std::string& name) const {
  auto it = physical_ports_.find(name);
  if (it == physical_ports_.end()) {
    return util::not_found("physical port '" + name + "'");
  }
  return it->second;
}

Status NetworkManager::set_physical_egress(const std::string& name,
                                           nfswitch::Lsi::Peer peer) {
  auto port = physical_port(name);
  if (!port) return port.status();
  return base_->set_port_peer(port.value(), std::move(peer));
}

Status NetworkManager::inject_burst(const std::string& name,
                                    packet::PacketBurst&& burst) {
  auto port = physical_port(name);
  if (!port) return port.status();
  base_->receive_burst(port.value(), std::move(burst));
  return Status::ok();
}

Result<nfswitch::Lsi*> NetworkManager::create_graph_lsi(
    const std::string& graph_id) {
  if (graph_lsis_.contains(graph_id)) {
    return util::already_exists("LSI for graph '" + graph_id + "'");
  }
  auto lsi = std::make_unique<nfswitch::Lsi>(next_lsi_id_++,
                                             "LSI-" + graph_id);
  nfswitch::Lsi* raw = lsi.get();
  graph_lsis_[graph_id] = std::move(lsi);
  NNFV_LOG(kInfo, "network") << "created " << raw->name();
  return raw;
}

Status NetworkManager::destroy_graph_lsi(const std::string& graph_id) {
  auto it = graph_lsis_.find(graph_id);
  if (it == graph_lsis_.end()) {
    return util::not_found("LSI for graph '" + graph_id + "'");
  }
  if (auto links = graph_link_ports_.find(graph_id);
      links != graph_link_ports_.end()) {
    for (nfswitch::PortId port : links->second) {
      (void)base_->remove_port(port);
    }
    graph_link_ports_.erase(links);
  }
  graph_lsis_.erase(it);
  NNFV_LOG(kInfo, "network") << "destroyed LSI-" << graph_id;
  return Status::ok();
}

nfswitch::Lsi* NetworkManager::graph_lsi(const std::string& graph_id) {
  auto it = graph_lsis_.find(graph_id);
  return it == graph_lsis_.end() ? nullptr : it->second.get();
}

Result<VirtualLink> NetworkManager::create_virtual_link(
    const std::string& graph_id, const std::string& label) {
  nfswitch::Lsi* graph = graph_lsi(graph_id);
  if (graph == nullptr) {
    return util::not_found("LSI for graph '" + graph_id + "'");
  }
  auto base_port = base_->add_port("vl:" + graph_id + ":" + label);
  if (!base_port) return base_port.status();
  auto graph_port = graph->add_port("vl:" + label);
  if (!graph_port) {
    (void)base_->remove_port(base_port.value());
    return graph_port.status();
  }
  (void)base_->link(base_port.value(), *graph, graph_port.value());
  graph_link_ports_[graph_id].push_back(base_port.value());
  return VirtualLink{base_port.value(), graph_port.value()};
}

std::size_t NetworkManager::lsi_count() const {
  return 1 + graph_lsis_.size();
}

std::vector<std::string> NetworkManager::graph_ids() const {
  std::vector<std::string> out;
  out.reserve(graph_lsis_.size());
  for (const auto& [id, lsi] : graph_lsis_) out.push_back(id);
  return out;
}

}  // namespace nnfv::core
