// Link and ServiceStation: the two queueing primitives of the datapath.
//
// Link models a serialising transmitter (rate + propagation delay) with a
// bounded FIFO. ServiceStation models a single-server queue whose service
// time is supplied per item — NF instances use it with the per-backend cost
// model, which is how the VM / Docker / native throughput differences arise.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "sim/simulator.hpp"

namespace nnfv::sim {

struct QueueStats {
  std::uint64_t enqueued = 0;
  std::uint64_t dropped = 0;   ///< tail drops on a full queue
  std::uint64_t completed = 0;
  SimTime busy_time = 0;       ///< total time the server spent serving
};

/// Point-to-point link: serialization at `bits_per_second`, then
/// `propagation_delay` before delivery. Back-to-back sends queue behind the
/// transmitter; beyond `queue_capacity` packets are tail-dropped.
class Link {
 public:
  using Deliver = std::function<void()>;

  Link(Simulator& simulator, double bits_per_second,
       SimTime propagation_delay, std::size_t queue_capacity = 1024);

  /// Offers a packet of `bytes` to the link. On delivery, `deliver` runs at
  /// the receiver. Returns false when the queue is full (packet dropped).
  bool transmit(std::uint64_t bytes, Deliver deliver);

  [[nodiscard]] const QueueStats& stats() const { return stats_; }
  [[nodiscard]] double rate_bps() const { return rate_bps_; }

 private:
  void start_next();

  struct Pending {
    std::uint64_t bytes;
    Deliver deliver;
  };

  Simulator& simulator_;
  double rate_bps_;
  SimTime propagation_delay_;
  std::size_t capacity_;
  std::deque<Pending> queue_;
  bool transmitting_ = false;
  QueueStats stats_;
};

/// Single-server FIFO with caller-supplied service time per item.
class ServiceStation {
 public:
  using Complete = std::function<void()>;

  ServiceStation(Simulator& simulator, std::size_t queue_capacity = 1024);

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
};

}  // namespace nnfv::sim
