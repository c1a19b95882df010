#include "sim/link.hpp"

#include <utility>

namespace nnfv::sim {

Link::Link(Simulator& simulator, double bits_per_second,
           SimTime propagation_delay, std::size_t queue_capacity)
    : simulator_(simulator),
      rate_bps_(bits_per_second),
      propagation_delay_(propagation_delay),
      capacity_(queue_capacity) {}

bool Link::transmit(std::uint64_t bytes, Deliver deliver) {
  if (queue_.size() >= capacity_) {
    ++stats_.dropped;
    return false;
  }
  ++stats_.enqueued;
  queue_.push_back(Pending{bytes, std::move(deliver)});
  if (!transmitting_) start_next();
  return true;
}

void Link::start_next() {
  if (queue_.empty()) {
    transmitting_ = false;
    return;
  }
  transmitting_ = true;
  Pending item = std::move(queue_.front());
  queue_.pop_front();
  const SimTime tx = transmission_time(item.bytes, rate_bps_);
  stats_.busy_time += tx;
  // After serialization the transmitter is free; delivery happens one
  // propagation delay later.
  simulator_.schedule(tx, [this, deliver = std::move(item.deliver)]() mutable {
    ++stats_.completed;
    simulator_.schedule(propagation_delay_, std::move(deliver));
    start_next();
  });
}

ServiceStation::ServiceStation(Simulator& simulator,
                               std::size_t queue_capacity)
    : simulator_(simulator), capacity_(queue_capacity) {}

bool ServiceStation::submit(SimTime service_time, Complete complete) {
  if (!simulator_.on_sim_thread()) {
    // A datapath worker is handing work to a sim-bound component: bounce
    // the submit through the simulator's cross-thread mailbox. The item
    // is accepted optimistically — tail-drop accounting happens on the
    // sim thread when the post lands.
    simulator_.post(
        [this, service_time, complete = std::move(complete)]() mutable {
          submit(service_time, std::move(complete));
        });
    return true;
  }
  if (queue_depth() >= capacity_) {
    ++stats_.dropped;
    return false;
  }
  ++stats_.enqueued;
  queue_.push_back(Pending{service_time, std::move(complete)});
  if (!busy_) start_next();
  return true;
}

void ServiceStation::start_next() {
  if (head_ == queue_.size()) {
    queue_.clear();
    head_ = 0;
    busy_ = false;
    return;
  }
  busy_ = true;
  Pending item = std::move(queue_[head_++]);
  if (head_ >= 64 && head_ > queue_.size() / 2) {
    queue_.erase(queue_.begin(),
                 queue_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  stats_.busy_time += item.service_time;
  simulator_.schedule(item.service_time,
                      [this, complete = std::move(item.complete)]() mutable {
                        ++stats_.completed;
                        complete();
                        start_next();
                      });
}

double ServiceStation::utilization() const {
  const SimTime now = simulator_.now();
  if (now <= 0) return 0.0;
  return static_cast<double>(stats_.busy_time) / static_cast<double>(now);
}

}  // namespace nnfv::sim
