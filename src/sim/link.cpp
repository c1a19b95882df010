#include "sim/link.hpp"

#include <utility>

namespace nnfv::sim {

ServiceStation::ServiceStation(Simulator& simulator,
                               std::size_t queue_capacity)
    : simulator_(simulator), capacity_(queue_capacity) {}

bool ServiceStation::submit(SimTime service_time, Complete complete) {
  if (!simulator_.on_sim_thread()) {
    // A datapath worker is handing work to a sim-bound component: bounce
    // the submit through the simulator's cross-thread mailbox. The item
    // is accepted optimistically — tail-drop accounting happens on the
    // sim thread when the post lands.
    simulator_.post([this, alive = alive_, service_time,
                     complete = std::move(complete)]() mutable {
      if (*alive) submit(service_time, std::move(complete));
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
                      [this, alive = alive_,
                       complete = std::move(item.complete)]() mutable {
                        if (!*alive) return;
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
