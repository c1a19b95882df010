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

void NfInstance::clear_egress(nnf::ContextId ctx) { egress_.erase(ctx); }

void NfInstance::inject_burst(nnf::ContextId ctx, nnf::NfPortIndex port,
                              packet::PacketBurst&& burst) {
  submit(std::move(burst), 0,
         [this, ctx, port](sim::SimTime now, packet::PacketBurst&& held) {
           auto outputs =
               function_->process_burst(ctx, port, now, std::move(held));
           auto egress = egress_.find(ctx);
           if (egress == egress_.end()) return;  // outputs discarded
           packet::BurstGroups<nnf::NfPortIndex> groups(outputs.size());
           for (nnf::NfOutput& output : outputs) {
             groups.add(output.port, std::move(output.frame));
           }
           for (auto& [out_port, group] : groups) {
             egress->second(out_port, std::move(group));
           }
         });
}

void NfInstance::inject_custom_burst(packet::PacketBurst&& burst,
                                     Handler handler) {
  submit(std::move(burst), packet::kVlanTagSize, std::move(handler));
}

void NfInstance::submit(packet::PacketBurst&& burst, std::size_t extra_bytes,
                        Handler done) {
  if (state_ != InstanceState::kRunning) {
    dropped_not_running_ += burst.size();
    return;
  }
  if (burst.empty()) return;
  sim::SimTime service = 0;
  for (const packet::PacketBuffer& frame : burst) {
    service += cost_.service_time(frame.size() + extra_bytes);
  }
  auto held = std::make_shared<packet::PacketBurst>(std::move(burst));
  station_.submit(service, [this, done = std::move(done), held]() {
    done(simulator_.now(), std::move(*held));
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
