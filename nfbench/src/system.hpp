// The systems under test: real NF-FGs deployed on core::UniversalNodes
// through orchestrator().deploy(), driven only through the node's public
// calls (inject_burst, drain_datapath, simulator().run()).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exec/datapath_executor.hpp"
#include "nnf/network_function.hpp"
#include "packet/buffer.hpp"
#include "sim/time.hpp"
#include "switch/flow_table.hpp"
#include "trace.hpp"
#include "traffic.hpp"

namespace nfbench {

/// A deployed flow table and the port traffic enters it on.
struct LookupPoint {
  nnfv::nfswitch::FlowTable* table = nullptr;
  nnfv::nfswitch::PortId in_port = nnfv::nfswitch::kInvalidPort;
};

class System {
 public:
  virtual ~System() = default;

  /// Hands one burst to ingress port `port` (the tunnel's red side, or a
  /// customer's LAN port).
  virtual void inject(std::size_t port, nnfv::packet::PacketBurst&& burst,
                      Tracer& tracer) = 0;

  /// Drives every node until all injected frames have left it. Returns
  /// the simulator events processed.
  virtual std::uint64_t complete(Tracer& tracer) = 0;

  /// Reserves room for `packets` egress frames, outside timed sections,
  /// and chooses whether each egress frame is timestamped.
  virtual void prepare(std::size_t packets, bool timestamps);

  std::vector<Egress>& egress() { return egress_; }

  /// Tunnel only: corrupt one ESP byte of every frame on the wire.
  virtual void set_wire_flip(bool /*on*/) {}

  /// The deployed tables frames entering on `port` are looked up in.
  virtual std::vector<LookupPoint> lookup_points(std::size_t port) = 0;
  /// Every deployed flow table (LSI-0s and graph LSIs of every node).
  virtual std::vector<const nnfv::nfswitch::FlowTable*> flow_tables() = 0;
  /// Datapath worker counters; empty on the inline path.
  virtual std::vector<nnfv::exec::WorkerStats> worker_stats() = 0;
  /// Simulated clock of the node whose NF station the cost model paces.
  [[nodiscard]] virtual nnfv::sim::SimTime model_clock() = 0;

 protected:
  void deliver(nnfv::packet::PacketBuffer&& frame, std::uint16_t port) {
    egress_.push_back({std::move(frame), port, stamp_ ? now_ns() : 0});
  }

 private:
  std::vector<Egress> egress_;
  bool stamp_ = false;
};

/// NF configurations of the deployed graphs, shared with the standalone
/// layer measurements so both run the same config.
nnfv::nnf::NfConfig tunnel_config(bool cpe);
nnfv::nnf::NfConfig firewall_config();
nnfv::nnf::NfConfig nat_config(std::size_t customer, bool churn);

/// Builds the nodes of `workload`, deploys every graph and wires egress.
/// Appends the wall time of each deploy() call (ms) to `deploy_ms`.
/// Returns nullptr and sets `error` on failure.
std::unique_ptr<System> make_system(const Workload& workload,
                                    std::vector<double>& deploy_ms,
                                    std::string& error);

}  // namespace nfbench
