// ServiceStation: the queueing primitive of the datapath. It models a
// single-server FIFO whose service time is supplied per item — NF instances
// use it with the per-backend cost model, which is how the VM / Docker /
// native throughput differences arise.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/simulator.hpp"

namespace nnfv::sim {

struct QueueStats {
  std::uint64_t enqueued = 0;
  std::uint64_t dropped = 0;   ///< tail drops on a full queue
  std::uint64_t completed = 0;
  SimTime busy_time = 0;       ///< total time the server spent serving
};

/// Single-server FIFO with caller-supplied service time per item.
class ServiceStation {
 public:
  using Complete = std::function<void()>;

  ServiceStation(Simulator& simulator, std::size_t queue_capacity = 1024);
  ~ServiceStation() { *alive_ = false; }
  ServiceStation(const ServiceStation&) = delete;
  ServiceStation& operator=(const ServiceStation&) = delete;

  /// Offers an item taking `service_time` ns of server time; `complete`
  /// runs when service finishes. Returns false on tail drop.
  bool submit(SimTime service_time, Complete complete);

  [[nodiscard]] const QueueStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t queue_depth() const {
    return queue_.size() - head_;
  }
  [[nodiscard]] bool busy() const { return busy_; }

  /// Server utilisation over [0, now].
  [[nodiscard]] double utilization() const;

 private:
  void start_next();

  struct Pending {
    SimTime service_time;
    Complete complete;
  };

  Simulator& simulator_;
  std::size_t capacity_;
  /// FIFO of waiting items: a vector plus a read index, so a warm station
  /// queues without allocating (a deque allocates a block every few
  /// items). Served slots are reclaimed when the queue empties or the
  /// served prefix outgrows the waiting tail.
  std::vector<Pending> queue_;
  std::size_t head_ = 0;
  bool busy_ = false;
  QueueStats stats_;
  /// Cleared by the destructor. The closures the station leaves in the
  /// simulator (the item in service, a cross-thread submit bounce) check
  /// it and, once the station is gone, drop their item unrun: its frames
  /// go back to the pool instead of into freed memory.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace nnfv::sim
