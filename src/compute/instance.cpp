#include "compute/instance.hpp"

#include <memory>

#include "packet/headers.hpp"

namespace nnfv::compute {

std::string_view instance_state_name(InstanceState state) {
  switch (state) {
    case InstanceState::kCreated:
      return "created";
    case InstanceState::kRunning:
      return "running";
    case InstanceState::kStopped:
      return "stopped";
    case InstanceState::kDestroyed:
      return "destroyed";
  }
  return "?";
}

NfInstance::NfInstance(InstanceId id, std::string name,
                       std::unique_ptr<nnf::NetworkFunction> function,
                       virt::CostModel cost, sim::Simulator& simulator,
                       std::size_t queue_capacity)
    : id_(id),
      name_(std::move(name)),
      function_(std::move(function)),
      cost_(cost),
      simulator_(simulator),
      station_(simulator, queue_capacity) {}

void NfInstance::set_egress(nnf::ContextId ctx, Egress egress) {
  egress_[ctx] = std::move(egress);
}

void NfInstance::set_burst_egress(nnf::ContextId ctx, BurstEgress egress) {
  burst_egress_[ctx] = std::move(egress);
}

void NfInstance::clear_egress(nnf::ContextId ctx) {
  egress_.erase(ctx);
  burst_egress_.erase(ctx);
}

void NfInstance::inject(nnf::ContextId ctx, nnf::NfPortIndex port,
                        packet::PacketBuffer&& frame) {
  // Burst-of-1 over the one packet-ingress contract: the function's only
  // datapath entry point is process_burst().
  packet::PacketBurst single;
  single.push_back(std::move(frame));
  inject_burst(ctx, port, std::move(single));
}

void NfInstance::inject_burst(nnf::ContextId ctx, nnf::NfPortIndex port,
                              packet::PacketBurst&& burst) {
  if (state_ != InstanceState::kRunning) {
    dropped_not_running_ += burst.size();
    return;
  }
  if (burst.empty()) return;
  sim::SimTime service = 0;
  for (const packet::PacketBuffer& frame : burst) {
    service += cost_.service_time(frame.size());
  }
  auto held = std::make_shared<packet::PacketBurst>(std::move(burst));
  station_.submit(service, [this, ctx, port, held]() {
    auto outputs = function_->process_burst(ctx, port, simulator_.now(),
                                            std::move(*held));
    dispatch_outputs(ctx, std::move(outputs), /*prefer_burst=*/true);
  });
}

void NfInstance::dispatch_outputs(nnf::ContextId ctx,
                                  std::vector<nnf::NfOutput>&& outputs,
                                  bool prefer_burst) {
  // Either wiring alone is enough for both inject paths: the burst path
  // prefers the burst egress (regrouped per output port, same-port order
  // preserved) and the single path prefers per-frame egress (no batch
  // allocation per packet) — each falls back to the other.
  auto egress = egress_.find(ctx);
  auto burst_egress = burst_egress_.find(ctx);
  const bool use_burst =
      burst_egress != burst_egress_.end() &&
      (prefer_burst || egress == egress_.end());
  if (use_burst) {
    packet::BurstGroups<nnf::NfPortIndex> groups(outputs.size());
    for (nnf::NfOutput& output : outputs) {
      groups.add(output.port, std::move(output.frame));
    }
    for (auto& [gp, g] : groups) burst_egress->second(gp, std::move(g));
    return;
  }
  if (egress == egress_.end()) return;
  for (nnf::NfOutput& output : outputs) {
    egress->second(output.port, std::move(output.frame));
  }
}

void NfInstance::inject_custom_burst(
    packet::PacketBurst&& burst,
    std::function<void(sim::SimTime, packet::PacketBurst&&)> handler) {
  if (state_ != InstanceState::kRunning) {
    dropped_not_running_ += burst.size();
    return;
  }
  if (burst.empty()) return;
  sim::SimTime service = 0;
  for (const packet::PacketBuffer& frame : burst) {
    service += cost_.service_time(frame.size() + packet::kVlanTagSize);
  }
  auto held = std::make_shared<packet::PacketBurst>(std::move(burst));
  station_.submit(service, [this, handler = std::move(handler), held]() {
    handler(simulator_.now(), std::move(*held));
  });
}

util::Status NfInstance::start() {
  if (state_ == InstanceState::kDestroyed) {
    return util::failed_precondition("instance destroyed");
  }
  state_ = InstanceState::kRunning;
  return util::Status::ok();
}

util::Status NfInstance::stop() {
  if (state_ != InstanceState::kRunning) {
    return util::failed_precondition("instance not running");
  }
  state_ = InstanceState::kStopped;
  return util::Status::ok();
}

util::Status NfInstance::destroy() {
  state_ = InstanceState::kDestroyed;
  return util::Status::ok();
}

}  // namespace nnfv::compute
