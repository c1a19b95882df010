// Simulator: clock + event queue + run loops.
//
// All datapath components (links, NF service stations, traffic sources)
// hold a Simulator& and schedule their own continuations on it.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace nnfv::sim {

class Simulator {
 public:
  Simulator() : home_thread_(std::this_thread::get_id()) {}

  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `handler` `delay` ns from now (delay >= 0).
  void schedule(SimTime delay, EventQueue::Handler handler);

  /// Schedules at an absolute time (>= now()).
  void schedule_at(SimTime at, EventQueue::Handler handler);

  /// Thread-safe event injection: hands `handler` to the simulator from
  /// another thread (a datapath worker). The handler runs on the
  /// simulator thread at the clock's current value, picked up at the
  /// next run()/run_until() loop iteration. This is the only Simulator
  /// entry point that may be called off the simulator thread.
  void post(EventQueue::Handler handler);

  /// True when the calling thread is the one driving the event loop
  /// (the constructing thread until run()/run_until() is first called).
  [[nodiscard]] bool on_sim_thread() const {
    return std::this_thread::get_id() ==
           home_thread_.load(std::memory_order_relaxed);
  }

  /// Runs until the queue drains. Returns the number of events processed.
  std::uint64_t run();

  /// Runs events with timestamp <= `until`; the clock ends at `until` even
  /// if the queue drained earlier. Returns events processed.
  std::uint64_t run_until(SimTime until);

  [[nodiscard]] bool idle() const { return queue_.empty(); }
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }

  /// Drops all pending events and rewinds the clock to zero.
  void reset();

 private:
  /// Moves cross-thread posts into the event queue; sim thread only.
  void drain_posted();

  EventQueue queue_;
  SimTime now_ = 0;
  std::atomic<std::thread::id> home_thread_;
  std::atomic<bool> posted_pending_{false};
  std::mutex posted_mutex_;
  std::vector<EventQueue::Handler> posted_;
  /// drain_posted()'s swap partner: both vectors keep their capacity.
  std::vector<EventQueue::Handler> draining_;
};

}  // namespace nnfv::sim
