#include "sim/simulator.hpp"

#include <cassert>

namespace nnfv::sim {

void Simulator::schedule(SimTime delay, EventQueue::Handler handler) {
  assert(delay >= 0);
  queue_.schedule_at(now_ + delay, std::move(handler));
}

void Simulator::schedule_at(SimTime at, EventQueue::Handler handler) {
  assert(at >= now_);
  queue_.schedule_at(at, std::move(handler));
}

void Simulator::post(EventQueue::Handler handler) {
  {
    std::lock_guard<std::mutex> lock(posted_mutex_);
    posted_.push_back(std::move(handler));
  }
  posted_pending_.store(true, std::memory_order_release);
}

void Simulator::drain_posted() {
  // Fast exit without the lock: the flag is only set under the mutex.
  if (!posted_pending_.load(std::memory_order_acquire)) return;
  {
    std::lock_guard<std::mutex> lock(posted_mutex_);
    draining_.swap(posted_);
    posted_pending_.store(false, std::memory_order_relaxed);
  }
  for (auto& handler : draining_) queue_.schedule_at(now_, std::move(handler));
  draining_.clear();
}

std::uint64_t Simulator::run() {
  // Whichever thread drives the loop is the sim thread from here on.
  home_thread_.store(std::this_thread::get_id(), std::memory_order_relaxed);
  std::uint64_t processed = 0;
  drain_posted();
  while (!queue_.empty()) {
    // Advance the clock before dispatching so handlers see now() == their
    // own timestamp.
    now_ = queue_.next_time();
    queue_.run_next();
    ++processed;
    drain_posted();
  }
  return processed;
}

std::uint64_t Simulator::run_until(SimTime until) {
  home_thread_.store(std::this_thread::get_id(), std::memory_order_relaxed);
  std::uint64_t processed = 0;
  while (true) {
    drain_posted();
    if (queue_.empty() || queue_.next_time() > until) break;
    now_ = queue_.next_time();
    queue_.run_next();
    ++processed;
  }
  now_ = until;
  return processed;
}

void Simulator::reset() {
  queue_.clear();
  now_ = 0;
  std::lock_guard<std::mutex> lock(posted_mutex_);
  posted_.clear();
  posted_pending_.store(false, std::memory_order_relaxed);
}

}  // namespace nnfv::sim
