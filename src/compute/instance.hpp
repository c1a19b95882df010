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
  /// Where processed frames go, per context: every frame of one output
  /// burst that leaves by logical port `out_port`, in one call.
  using Egress =
      std::function<void(nnf::NfPortIndex, packet::PacketBurst&&)>;
  /// Receives a custom burst back when its service time has elapsed.
  using Handler = std::function<void(sim::SimTime, packet::PacketBurst&&)>;

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
  void clear_egress(nnf::ContextId ctx);

  /// Datapath entry: `burst` arrives at logical `port` of context `ctx`.
  /// The whole burst is one service-station item whose service time is
  /// the sum of the per-frame times; then the function runs once on it
  /// and its outputs leave through the context's egress, one call per
  /// output port in first-seen order, same-port order kept. Running
  /// instances only; otherwise the burst is dropped.
  void inject_burst(nnf::ContextId ctx, nnf::NfPortIndex port,
                    packet::PacketBurst&& burst);

  /// Datapath entry for adaptation-layer deployments: the whole burst is
  /// one service-station item and `handler` receives it back with the
  /// completion time after the delay. Each frame is charged as
  /// frame.size() + kVlanTagSize: its mark rides beside the burst, but the
  /// model keeps the 802.1Q tag it stands for on the wire.
  void inject_custom_burst(packet::PacketBurst&& burst, Handler handler);

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
  /// The one submit core of both entries: drops the burst unless the
  /// instance runs, else queues it as one station item charged
  /// sum(service_time(size + extra_bytes)) and hands it to `done` on
  /// completion.
  void submit(packet::PacketBurst&& burst, std::size_t extra_bytes,
              Handler done);

  InstanceId id_;
  std::string name_;
  std::unique_ptr<nnf::NetworkFunction> function_;
  virt::CostModel cost_;
  sim::Simulator& simulator_;
  sim::ServiceStation station_;
  std::map<nnf::ContextId, Egress> egress_;
  InstanceState state_ = InstanceState::kCreated;
  std::uint64_t dropped_not_running_ = 0;
};

}  // namespace nnfv::compute
