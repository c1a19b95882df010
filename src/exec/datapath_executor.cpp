#include "exec/datapath_executor.hpp"

#include <algorithm>
#include <chrono>

#include "exec/fault_inject.hpp"
#include "exec/priority.hpp"
#include "exec/rss.hpp"

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

namespace nnfv::exec {

namespace {

/// Bounded retries for a full handoff ring before dropping. Blocking is
/// not an option: two workers handing off to each other would deadlock.
constexpr int kHandoffRetries = 256;
/// Retry count past which the handoff backoff escalates from a pause
/// to a full yield — the consumer is clearly busy, so give it the core.
constexpr int kHandoffYieldAfter = 64;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

}  // namespace

std::size_t WorkerContext::worker_count() const {
  return executor_.worker_count();
}

bool WorkerContext::handoff(std::size_t to_worker, std::uint32_t tag,
                            packet::PacketBuffer&& frame) {
  return executor_.push_handoff(index_, to_worker, tag, std::move(frame));
}

DatapathExecutor::DatapathExecutor(DatapathExecutorConfig config,
                                   Pipeline pipeline)
    : config_(config), pipeline_(std::move(pipeline)) {
  config_.workers = std::clamp<std::size_t>(config_.workers, 1, kMaxWorkers);
  config_.drain_batch = std::max<std::size_t>(config_.drain_batch, 1);
  workers_.reserve(config_.workers);
  staged_.resize(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->ingress =
        std::make_unique<SpscRing<WorkItem>>(config_.ring_capacity);
    worker->handoff.resize(config_.workers);
    for (std::size_t from = 0; from < config_.workers; ++from) {
      worker->handoff[from] =
          std::make_unique<SpscRing<WorkItem>>(config_.handoff_capacity);
    }
    worker->stats.handoff_drops_to.resize(config_.workers);
    workers_.push_back(std::move(worker));
  }
  // Resolve shedding watermarks against the rounded-up ring capacity.
  const std::size_t cap = workers_[0]->ingress->capacity();
  shed_high_ = config_.shed_high_watermark != 0 ? config_.shed_high_watermark
                                                : cap * 3 / 4;
  shed_low_ = config_.shed_low_watermark != 0 ? config_.shed_low_watermark
                                              : cap / 2;
  shed_hard_ = config_.shed_hard_watermark != 0 ? config_.shed_hard_watermark
                                                : cap - cap / 16;
  shed_high_ = std::min(shed_high_, cap);
  shed_hard_ = std::clamp(shed_hard_, shed_high_, cap);
  shed_low_ = std::min(shed_low_, shed_high_ > 0 ? shed_high_ - 1 : 0);
  running_.store(true, std::memory_order_release);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    workers_[i]->thread = std::thread([this, i] { run_worker(i, 0); });
  }
}

DatapathExecutor::~DatapathExecutor() { stop(); }

bool DatapathExecutor::should_shed(Worker& worker,
                                   const packet::PacketBuffer& frame,
                                   std::size_t staged) {
  const std::size_t occupancy = worker.ingress->producer_size() + staged;
  bool shedding = worker.shedding.load();
  if (shedding) {
    if (occupancy <= shed_low_) {
      shedding = false;
      worker.shedding.store(false);
    }
  } else if (occupancy >= shed_high_) {
    shedding = true;
    worker.shedding.store(true);
  }
  if (!shedding) return false;
  // Classification happens only here — when the shard is already past
  // the watermark — so uncongested traffic never pays for the parse.
  if (classify_priority(frame.data()) == FramePriority::kBulk) {
    worker.stats.shed_bulk += 1;
    return true;
  }
  if (occupancy >= shed_hard_) {
    worker.stats.shed_control += 1;
    return true;
  }
  return false;
}

std::size_t DatapathExecutor::submit_burst(std::uint32_t tag,
                                           packet::PacketBurst&& burst) {
  // Stage each shard's frames, then publish them with one ring store and
  // one doorbell per shard: a worker sees a shard's share of a burst at
  // once, never a prefix. Shares of drain_batch frames or more publish in
  // drain_batch chunks, so a huge submit still overlaps with the workers.
  const std::size_t n = worker_count();
  std::size_t enqueued = 0;
  for (packet::PacketBuffer& frame : burst) {
    const std::size_t shard = shard_for(rss_hash_frame(frame.data()), n);
    std::vector<WorkItem>& staged = staged_[shard];
    if (config_.shed_enabled &&
        should_shed(*workers_[shard], frame, staged.size())) {
      continue;  // frame dies with the burst; its segment recycles
    }
    staged.push_back(WorkItem{tag, std::move(frame)});
    if (staged.size() >= config_.drain_batch) {
      enqueued += enqueue(shard, staged);
    }
  }
  burst.clear();
  for (std::size_t shard = 0; shard < n; ++shard) {
    enqueued += enqueue(shard, staged_[shard]);
  }
  return enqueued;
}

bool DatapathExecutor::submit_to(std::size_t worker, std::uint32_t tag,
                                 packet::PacketBuffer&& frame) {
  if (worker >= worker_count()) return false;
  if (config_.shed_enabled && should_shed(*workers_[worker], frame, 0)) {
    return false;
  }
  staged_[worker].push_back(WorkItem{tag, std::move(frame)});
  return enqueue(worker, staged_[worker]) == 1;
}

std::size_t DatapathExecutor::enqueue(std::size_t shard,
                                      std::vector<WorkItem>& items) {
  if (items.empty()) return 0;
  Worker& worker = *workers_[shard];
  // In flight before the worker can see (and retire) any of them.
  inflight_.fetch_add(items.size(), std::memory_order_relaxed);
  std::size_t pushed = 0;
  while (true) {
    pushed += worker.ingress->push_batch(items.data() + pushed,
                                         items.size() - pushed);
    if (pushed == items.size()) break;
    if (!config_.block_on_full || !running_.load(std::memory_order_acquire)) {
      const std::size_t dropped = items.size() - pushed;
      inflight_.fetch_sub(dropped, std::memory_order_relaxed);
      worker.stats.ingress_drops += dropped;
      break;
    }
    ring_doorbell(shard);
    cpu_relax();
  }
  if (pushed > 0) ring_doorbell(shard);
  items.clear();
  return pushed;
}

bool DatapathExecutor::push_handoff(std::size_t from, std::size_t to,
                                    std::uint32_t tag,
                                    packet::PacketBuffer&& frame) {
  if (to >= worker_count()) return false;
  if (FaultInjector::active()) [[unlikely]] {
    if (FaultInjector::instance().should_fail_handoff(from, to)) {
      workers_[from]->stats.handoff_drops_to[to] += 1;
      return false;  // injected drop: frame destructs, segment recycles
    }
  }
  Worker& target = *workers_[to];
  SpscRing<WorkItem>& ring = *target.handoff[from];
  inflight_.fetch_add(1, std::memory_order_relaxed);
  WorkItem item{tag, std::move(frame)};
  for (int attempt = 0; attempt < kHandoffRetries; ++attempt) {
    if (ring.push(std::move(item))) {
      workers_[from]->stats.handoff_out += 1;
      ring_doorbell(to);
      return true;
    }
    ring_doorbell(to);
    // Escalating backoff: pause first, then yield the core once the
    // consumer has clearly fallen behind.
    if (attempt < kHandoffYieldAfter) {
      cpu_relax();
    } else {
      std::this_thread::yield();
    }
  }
  inflight_.fetch_sub(1, std::memory_order_relaxed);
  workers_[from]->stats.handoff_drops_to[to] += 1;
  return false;
}

void DatapathExecutor::ring_doorbell(std::size_t worker) {
  Worker& target = *workers_[worker];
  if (target.sleeping.load(std::memory_order_seq_cst)) {
    std::lock_guard<std::mutex> lock(target.doorbell_mutex);
    target.doorbell.notify_one();
  }
}

std::size_t DatapathExecutor::drain_ring(WorkerContext& ctx,
                                         SpscRing<WorkItem>& ring,
                                         bool handoff, DrainScratch& scratch) {
  std::vector<WorkItem>& items = scratch.items;
  items.clear();
  if (ring.pop_batch(items, config_.drain_batch) == 0) return 0;
  const std::size_t processed = items.size();
  // Deliver contiguous same-tag runs as one burst; the common case is a
  // whole batch sharing one ingress tag.
  packet::PacketBurst& group = scratch.group;
  std::size_t begin = 0;
  while (begin < items.size()) {
    std::size_t end = begin + 1;
    while (end < items.size() && items[end].tag == items[begin].tag) ++end;
    // The pipeline takes the vector itself (a single-port LSI burst
    // leaves in it), so the scratch is empty again here and each run
    // reserves its own storage: one allocation per run.
    group.clear();
    group.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      group.push_back(std::move(items[i].frame));
    }
    pipeline_(ctx, items[begin].tag, std::move(group));
    begin = end;
  }
  items.clear();
  // Credit the counters before the frames leave inflight_: drain()
  // returns once inflight_ reaches zero, and the counters must already
  // be exact then.
  LiveStats& stats = workers_[ctx.index()]->stats;
  stats.processed += processed;
  if (handoff) stats.handoff_in += processed;
  inflight_.fetch_sub(processed, std::memory_order_release);
  return processed;
}

void DatapathExecutor::run_worker(std::size_t index,
                                  std::uint32_t my_generation) {
  Worker& self = *workers_[index];
#ifdef __linux__
  if (config_.pin_threads) {
    const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(static_cast<int>(index % cores), &set);
    (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
  }
#endif
  ScopedWorkerSlot slot_guard(index + 1);
  WorkerContext ctx(*this, index);

  // Supersession check: once the watchdog bumps the generation, this
  // thread must not touch the rings again — the respawned thread is the
  // single consumer now. Checked at the loop top and between per-ring
  // drains; see docs/datapath.md for the recovery contract.
  auto superseded = [&] {
    return self.generation.load(std::memory_order_acquire) != my_generation;
  };

  // This thread's own drain scratch: reused by every batch, and never
  // shared with a replacement thread after a watchdog restart.
  DrainScratch scratch;
  scratch.items.reserve(config_.drain_batch);

  auto drain_all = [&]() -> std::size_t {
    if (superseded()) return 0;
    std::size_t processed = drain_ring(ctx, *self.ingress, false, scratch);
    for (std::size_t from = 0; from < worker_count(); ++from) {
      if (superseded()) return processed;
      processed += drain_ring(ctx, *self.handoff[from], true, scratch);
    }
    return processed;
  };

  int idle_spins = 0;
  while (running_.load(std::memory_order_acquire) && !superseded()) {
    // The heartbeat bumps before any work: a worker stuck inside the
    // pipeline (or the stall hook below) freezes it, which is exactly
    // what the watchdog watches for.
    self.heartbeat.fetch_add(1, std::memory_order_release);
    if (FaultInjector::active()) [[unlikely]] {
      FaultInjector::instance().maybe_stall(index, [&] {
        return !running_.load(std::memory_order_acquire) || superseded();
      });
      if (superseded()) break;
    }
    if (drain_all() > 0) {
      idle_spins = 0;
      continue;
    }
    // Idle backoff: spin, then yield, then sleep on the doorbell. The
    // sleep is bounded (500us), so an idle worker still heartbeats.
    ++idle_spins;
    if (idle_spins < 64) {
      cpu_relax();
    } else if (idle_spins < 128) {
      std::this_thread::yield();
    } else {
      std::unique_lock<std::mutex> lock(self.doorbell_mutex);
      self.sleeping.store(true, std::memory_order_seq_cst);
      // Re-check after publishing sleeping: a producer that pushed just
      // before the store will see sleeping==true and knock; one that
      // pushed earlier is caught by this check.
      bool empty = self.ingress->empty_approx();
      for (std::size_t from = 0; empty && from < worker_count(); ++from) {
        empty = self.handoff[from]->empty_approx();
      }
      if (empty && running_.load(std::memory_order_acquire) &&
          !superseded()) {
        self.doorbell.wait_for(lock, std::chrono::microseconds(500));
      }
      self.sleeping.store(false, std::memory_order_seq_cst);
    }
  }
  if (superseded()) return;  // the new generation owns the rings
  // Final drain so stop() never strands frames in rings.
  while (drain_all() > 0) {
  }
}

void DatapathExecutor::note_stall(std::size_t worker) {
  if (worker >= worker_count()) return;
  workers_[worker]->stats.stalls += 1;
}

void DatapathExecutor::restart_worker(std::size_t worker) {
  if (worker >= worker_count()) return;
  Worker& target = *workers_[worker];
  // Supersede first: the old thread (wherever it is stuck) exits at its
  // next generation check and never touches the rings again.
  const std::uint32_t next_gen =
      target.generation.fetch_add(1, std::memory_order_acq_rel) + 1;
  ring_doorbell(worker);  // wake it if it is asleep so it can exit
  {
    // The old thread may be blocked indefinitely; joining here would
    // inherit the stall. Park it for stop() to join.
    std::lock_guard<std::mutex> lock(retired_mutex_);
    if (target.thread.joinable()) {
      retired_.push_back(std::move(target.thread));
    }
  }
  target.stats.restarts += 1;
  target.thread =
      std::thread([this, worker, next_gen] { run_worker(worker, next_gen); });
}

void DatapathExecutor::drain() {
  while (inflight_.load(std::memory_order_acquire) != 0) {
    for (std::size_t i = 0; i < worker_count(); ++i) ring_doorbell(i);
    std::this_thread::yield();
  }
}

void DatapathExecutor::stop() {
  if (running_.exchange(false, std::memory_order_acq_rel)) {
    for (auto& worker : workers_) {
      std::lock_guard<std::mutex> lock(worker->doorbell_mutex);
      worker->doorbell.notify_one();
    }
  }
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
  std::lock_guard<std::mutex> lock(retired_mutex_);
  for (std::thread& thread : retired_) {
    if (thread.joinable()) thread.join();
  }
  retired_.clear();
}

WorkerStats DatapathExecutor::worker_stats(std::size_t worker) const {
  if (worker >= worker_count()) return {};
  const Worker& w = *workers_[worker];
  const LiveStats& live = w.stats;
  WorkerStats stats;
  stats.processed = live.processed;
  stats.handoff_out = live.handoff_out;
  stats.handoff_in = live.handoff_in;
  for (const util::RelaxedCounter& drops : live.handoff_drops_to) {
    stats.handoff_drops += drops;
  }
  stats.ingress_drops = live.ingress_drops;
  stats.shed_bulk = live.shed_bulk;
  stats.shed_control = live.shed_control;
  stats.stalls = live.stalls;
  stats.restarts = live.restarts;
  stats.heartbeat = w.heartbeat.load(std::memory_order_acquire);
  stats.occupancy = w.ingress->size_approx();
  return stats;
}

std::uint64_t DatapathExecutor::total_processed() const {
  std::uint64_t total = 0;
  for (const auto& worker : workers_) total += worker->stats.processed;
  return total;
}

std::uint64_t DatapathExecutor::ingress_drops() const {
  std::uint64_t total = 0;
  for (const auto& worker : workers_) total += worker->stats.ingress_drops;
  return total;
}

std::uint64_t DatapathExecutor::handoff_drops(std::size_t from,
                                              std::size_t to) const {
  if (from >= worker_count() || to >= worker_count()) return 0;
  return workers_[from]->stats.handoff_drops_to[to];
}

std::uint64_t DatapathExecutor::worker_heartbeat(std::size_t worker) const {
  if (worker >= worker_count()) return 0;
  return workers_[worker]->heartbeat.load(std::memory_order_acquire);
}

bool DatapathExecutor::worker_has_backlog(std::size_t worker) const {
  if (worker >= worker_count()) return false;
  const Worker& w = *workers_[worker];
  if (!w.ingress->empty_approx()) return true;
  for (const auto& ring : w.handoff) {
    if (!ring->empty_approx()) return true;
  }
  return false;
}

json::Value DatapathExecutor::describe_stats() const {
  json::Object root;
  root["workers"] = static_cast<std::uint64_t>(worker_count());
  json::Array per_worker;
  std::uint64_t shed_bulk = 0, shed_control = 0;
  std::uint64_t stalls = 0, restarts = 0;
  for (std::size_t i = 0; i < worker_count(); ++i) {
    const WorkerStats stats = worker_stats(i);
    json::Object w;
    w["index"] = static_cast<std::uint64_t>(i);
    w["heartbeat"] = stats.heartbeat;
    w["occupancy"] = stats.occupancy;
    w["processed"] = stats.processed;
    w["handoff_out"] = stats.handoff_out;
    w["handoff_in"] = stats.handoff_in;
    w["handoff_drops"] = stats.handoff_drops;
    w["ingress_drops"] = stats.ingress_drops;
    w["shed_bulk"] = stats.shed_bulk;
    w["shed_control"] = stats.shed_control;
    w["stalls"] = stats.stalls;
    w["restarts"] = stats.restarts;
    w["shedding"] = workers_[i]->shedding.load();
    per_worker.push_back(std::move(w));
    shed_bulk += stats.shed_bulk;
    shed_control += stats.shed_control;
    stalls += stats.stalls;
    restarts += stats.restarts;
  }
  root["per_worker"] = std::move(per_worker);
  root["total_processed"] = total_processed();
  root["ingress_drops"] = ingress_drops();
  root["shed_bulk"] = shed_bulk;
  root["shed_control"] = shed_control;
  root["worker_stalls"] = stalls;
  root["worker_restarts"] = restarts;
  return json::Value(std::move(root));
}

}  // namespace nnfv::exec
