// NfInstance: one running network function — the function logic, the
// backend it executes under, and the single-server queue that gives it
// backend-dependent per-packet timing in the simulator.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "nnf/network_function.hpp"
#include "sim/link.hpp"
#include "sim/simulator.hpp"
#include "virt/cost_model.hpp"

namespace nnfv::compute {

using InstanceId = std::uint64_t;

enum class InstanceState { kCreated, kRunning, kStopped, kDestroyed };

std::string_view instance_state_name(InstanceState state);

class NfInstance {
 public:
  /// Where processed frames go, per context: (out_port, frame).
  using Egress =
      std::function<void(nnf::NfPortIndex, packet::PacketBuffer&&)>;
  /// Burst egress: all frames leaving one logical port in one call.
  using BurstEgress =
      std::function<void(nnf::NfPortIndex, packet::PacketBurst&&)>;

  NfInstance(InstanceId id, std::string name,
             std::unique_ptr<nnf::NetworkFunction> function,
             virt::CostModel cost, sim::Simulator& simulator,
             std::size_t queue_capacity = 512);

  [[nodiscard]] InstanceId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] InstanceState state() const { return state_; }
  [[nodiscard]] const virt::CostModel& cost() const { return cost_; }

  nnf::NetworkFunction& function() { return *function_; }
  [[nodiscard]] const nnf::NetworkFunction& function() const {
    return *function_;
  }

  void set_egress(nnf::ContextId ctx, Egress egress);
  /// Optional: when set, burst outputs leave grouped per port.
  void set_burst_egress(nnf::ContextId ctx, BurstEgress egress);
  void clear_egress(nnf::ContextId ctx);

  /// Datapath entry: frame arrives at logical `port` of context `ctx`.
  /// Queues for the backend-dependent service time, then runs the function
  /// and dispatches its outputs through the context's egress. Running
  /// instances only; otherwise the frame is dropped.
  void inject(nnf::ContextId ctx, nnf::NfPortIndex port,
              packet::PacketBuffer&& frame);

  /// Burst datapath entry: the whole burst is one service-station item
  /// whose service time is the sum of the per-frame times — the function
  /// runs once per burst (one event, one virtual dispatch) instead of once
  /// per frame.
  void inject_burst(nnf::ContextId ctx, nnf::NfPortIndex port,
                    packet::PacketBurst&& burst);

  /// Datapath entry for adaptation-layer deployments: the whole burst is
  /// one service-station item and `handler` receives it back with the
  /// completion time after the delay. Each frame is charged as
  /// frame.size() + kVlanTagSize: its mark rides beside the burst, but the
  /// model keeps the 802.1Q tag it stands for on the wire.
  void inject_custom_burst(
      packet::PacketBurst&& burst,
      std::function<void(sim::SimTime, packet::PacketBurst&&)> handler);

  util::Status start();
  util::Status stop();
  util::Status destroy();

  [[nodiscard]] const sim::QueueStats& queue_stats() const {
    return station_.stats();
  }
  [[nodiscard]] double utilization() const { return station_.utilization(); }
  [[nodiscard]] std::uint64_t dropped_not_running() const {
    return dropped_not_running_;
  }

 private:
  /// Routes processed frames out — shared by inject() and inject_burst().
  /// prefer_burst selects the burst egress when both wirings exist; each
  /// path falls back to the other when only one is wired.
  void dispatch_outputs(nnf::ContextId ctx,
                        std::vector<nnf::NfOutput>&& outputs,
                        bool prefer_burst);

  InstanceId id_;
  std::string name_;
  std::unique_ptr<nnf::NetworkFunction> function_;
  virt::CostModel cost_;
  sim::Simulator& simulator_;
  sim::ServiceStation station_;
  std::map<nnf::ContextId, Egress> egress_;
  std::map<nnf::ContextId, BurstEgress> burst_egress_;
  InstanceState state_ = InstanceState::kCreated;
  std::uint64_t dropped_not_running_ = 0;
};

}  // namespace nnfv::compute
