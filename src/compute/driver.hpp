// ComputeDriver: "all the above drivers must implement a specific
// abstraction defined by the local orchestrator, which enables multiple
// drivers to coexist, hence implementing complex services that include
// VNFs created with different technologies" (paper §2).
//
// A driver deploys one NF of a graph onto that graph's LSI: it creates the
// LSI ports ("network function ports" in Figure 1), wires the datapath in
// both directions, and accounts resources. The orchestrator only sees this
// interface — NNFs and VM/Docker/DPDK VNFs are interchangeable behind it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "compute/instance.hpp"
#include "json/json.hpp"
#include "nnf/marking.hpp"
#include "nnf/network_function.hpp"
#include "switch/lsi.hpp"
#include "util/status.hpp"
#include "virt/backend.hpp"

namespace nnfv::compute {

/// What the orchestrator asks a driver to deploy.
struct NfDeploySpec {
  std::string graph_id;
  std::string nf_id;            ///< NF id within the graph
  std::string functional_type;  ///< "ipsec", "nat", ...
  std::uint32_t num_ports = 2;
  nnf::NfConfig config;
  /// Image resolved by the VNF resolver (VM/Docker/DPDK; unused by NNFs).
  std::string image;
};

/// How one logical NF port was attached to the graph LSI.
struct PortAttachment {
  nfswitch::PortId lsi_port = nfswitch::kInvalidPort;
  /// Mark used on the shared single-interface path, when applicable.
  std::optional<nnf::Mark> mark;
};

/// Result of a deployment, the handle for update/undeploy.
struct DeployedNf {
  std::string graph_id;
  std::string nf_id;
  std::string functional_type;
  virt::BackendKind backend = virt::BackendKind::kVm;
  InstanceId instance = 0;
  nnf::ContextId context = nnf::kDefaultContext;
  std::vector<PortAttachment> ports;  ///< index = logical NF port
  std::uint64_t ram_bytes = 0;        ///< reserved for this deployment
  std::uint64_t image_bytes = 0;      ///< size of the image used
  sim::SimTime boot_time = 0;         ///< modeled create->running latency
  bool reused_shared_instance = false;
};

/// Dedicated attachment of context `ctx` to `lsi`, as for any VNF: a burst
/// leaving `ports[i]` enters the context at logical port i as one service-
/// station item, and the context's outputs on logical port i re-enter the
/// pipeline of `lsi` on `ports[i]`.
void attach_ports(const std::shared_ptr<NfInstance>& instance,
                  nnf::ContextId ctx, nfswitch::Lsi& lsi,
                  const std::vector<nfswitch::PortId>& ports);

class ComputeDriver {
 public:
  virtual ~ComputeDriver() = default;

  [[nodiscard]] virtual virt::BackendKind kind() const = 0;
  /// Driver name as in Figure 1 ("libvirt", "Docker", "DPDK", "Native").
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// True when this driver can deploy the functional type right now
  /// (template/plugin available, instance limits not exceeded).
  [[nodiscard]] virtual bool can_deploy(
      const std::string& functional_type) const = 0;

  virtual util::Result<DeployedNf> deploy(const NfDeploySpec& spec,
                                          nfswitch::Lsi& lsi) = 0;

  /// Applies a configuration update to a deployed NF.
  virtual util::Status update(const DeployedNf& deployed,
                              const nnf::NfConfig& config) = 0;

  virtual util::Status undeploy(const DeployedNf& deployed) = 0;

  /// Live status counters of a deployed NF's context (the function's
  /// describe_stats()), surfaced through the REST status path.
  [[nodiscard]] virtual util::Result<json::Value> nf_stats(
      const DeployedNf& /*deployed*/) const {
    return util::unimplemented(std::string(name()) +
                               ": stats not supported");
  }
};

}  // namespace nnfv::compute
