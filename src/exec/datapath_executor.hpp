// DatapathExecutor: N run-to-completion worker threads with RSS flow
// sharding (ROADMAP item 1).
//
// Ingress: one control thread (the bench main thread, the simulator
// thread, ...) calls submit_burst(); each frame's flow tuple is RSS-
// hashed to a worker, and each worker's share of the burst is published
// onto its SPSC ingress ring in one batch — single producer (the control
// thread), single consumer (the worker).
// Workers drain their rings in batches and run the user pipeline —
// classify → NNF → crypto — to completion on their own core, identified
// by a thread-local worker slot (see worker_slot.hpp) that per-worker
// state (microflow caches, stats shards, NAT port slices) indexes.
//
// Cross-shard handoff: when the pipeline must move a frame to another
// worker (e.g. a virtual link whose peer NF is pinned elsewhere), it
// calls WorkerContext::handoff(); each ordered (from, to) worker pair
// owns a dedicated SPSC ring, so handoff is lock-free too. Handoff
// pushes retry briefly when the ring is full, then drop-and-count —
// blocking could deadlock two workers handing off to each other.
//
// Idle workers back off spin → yield → doorbell sleep, so a drained
// executor costs (almost) no CPU. drain() blocks the control thread
// until every submitted frame has fully left the pipeline.
//
// Overload resilience (ISSUE 9):
//  * Every worker publishes a heartbeat epoch (bumped once per loop
//    iteration, stall or no stall) and its ring occupancy; the
//    exec::Watchdog (watchdog.hpp) polls those and calls
//    restart_worker() on a worker that stops making progress while it
//    has backlog. Restart supersedes the old thread via a per-worker
//    generation counter: the new generation owns the rings, the old
//    thread exits at its next generation check without touching them
//    again. See docs/datapath.md for the recovery contract.
//  * Priority-aware shedding (off by default): when a shard's ingress
//    occupancy crosses shed_high, bulk frames for that shard are
//    dropped at submit — before any pipeline work is invested — until
//    occupancy falls below shed_low (hysteresis). Control frames (ARP /
//    DHCP / rekey ESP, see priority.hpp) are admitted until shed_hard.
//  * FaultInjector hooks (fault_inject.hpp) can stall a worker or fail
//    handoffs; they cost one relaxed load when the harness is off.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "exec/spsc_ring.hpp"
#include "exec/worker_slot.hpp"
#include "json/json.hpp"
#include "packet/buffer.hpp"
#include "util/atomics.hpp"

namespace nnfv::exec {

struct DatapathExecutorConfig {
  /// Worker threads. Clamped to [1, kMaxWorkers].
  std::size_t workers = 1;
  /// Per-worker ingress ring capacity (frames).
  std::size_t ring_capacity = 4096;
  /// Per (from, to) worker-pair handoff ring capacity (frames).
  std::size_t handoff_capacity = 1024;
  /// Max frames a worker pulls from one ring per drain.
  std::size_t drain_batch = 64;
  /// submit_burst behavior on a full ingress ring: spin until space
  /// (backpressure, default) or drop-and-count.
  bool block_on_full = true;
  /// Pin worker i to CPU i % hardware_concurrency (Linux only).
  bool pin_threads = false;
  /// Priority-aware shedding at submit. Off by default: the existing
  /// backpressure/tail-drop behavior is unchanged unless opted into.
  bool shed_enabled = false;
  /// Ingress occupancy (frames) at which bulk shedding arms for a
  /// shard. 0 = 3/4 of the (rounded-up) ring capacity.
  std::size_t shed_high_watermark = 0;
  /// Occupancy below which shedding disarms again. 0 = 1/2 capacity.
  std::size_t shed_low_watermark = 0;
  /// Occupancy at which even control frames are shed. 0 = 15/16
  /// capacity — past this point backpressure (or tail drop) is all
  /// that is left.
  std::size_t shed_hard_watermark = 0;
};

/// Per-worker counters, aggregated by the executor's accessors.
struct WorkerStats {
  std::uint64_t processed = 0;     ///< frames run through the pipeline
  std::uint64_t handoff_out = 0;   ///< frames pushed to another shard
  std::uint64_t handoff_in = 0;    ///< frames received from another shard
  std::uint64_t handoff_drops = 0; ///< handoff pushes that found a full ring
                                   ///< (summed over targets; per-pair via
                                   ///< DatapathExecutor::handoff_drops())
  std::uint64_t ingress_drops = 0; ///< full-ring submit drops on this shard
  std::uint64_t shed_bulk = 0;     ///< bulk frames shed at submit
  std::uint64_t shed_control = 0;  ///< control frames shed past shed_hard
  std::uint64_t stalls = 0;        ///< watchdog stall detections
  std::uint64_t restarts = 0;      ///< watchdog thread respawns
  std::uint64_t heartbeat = 0;     ///< loop-iteration epoch
  std::uint64_t occupancy = 0;     ///< ingress-ring occupancy snapshot
};

class DatapathExecutor;

/// Handed to the pipeline; identifies the worker and provides handoff.
class WorkerContext {
 public:
  /// 0-based worker index.
  std::size_t index() const { return index_; }
  /// Worker-slot id (index + 1; slot 0 is the control thread).
  std::size_t slot() const { return index_ + 1; }
  std::size_t worker_count() const;
  /// Moves a frame to another worker's shard; it re-enters the pipeline
  /// there with `tag`. Returns false (and counts a drop) if the handoff
  /// ring stayed full after bounded retries.
  bool handoff(std::size_t to_worker, std::uint32_t tag,
               packet::PacketBuffer&& frame);

 private:
  friend class DatapathExecutor;
  WorkerContext(DatapathExecutor& executor, std::size_t index)
      : executor_(executor), index_(index) {}
  DatapathExecutor& executor_;
  std::size_t index_;
};

class DatapathExecutor {
 public:
  /// The per-burst pipeline body. `tag` is caller-defined routing info
  /// (ingress port id, handoff stage, ...) carried with every frame.
  using Pipeline = std::function<void(WorkerContext&, std::uint32_t tag,
                                      packet::PacketBurst&&)>;

  DatapathExecutor(DatapathExecutorConfig config, Pipeline pipeline);
  ~DatapathExecutor();

  DatapathExecutor(const DatapathExecutor&) = delete;
  DatapathExecutor& operator=(const DatapathExecutor&) = delete;

  std::size_t worker_count() const { return workers_.size(); }

  /// RSS-hashes each frame to a worker and enqueues it. Single-producer:
  /// call from one control thread only. Returns frames enqueued (the
  /// rest were shed or dropped; only possible with shedding on or
  /// block_on_full=false).
  std::size_t submit_burst(std::uint32_t tag, packet::PacketBurst&& burst);

  /// Enqueues to an explicit worker, bypassing the hash (tests).
  bool submit_to(std::size_t worker, std::uint32_t tag,
                 packet::PacketBuffer&& frame);

  /// Blocks until every submitted frame has left the pipeline (all rings
  /// empty, all workers idle). Call from the control thread.
  void drain();

  /// Stops and joins all workers (including superseded ones) after
  /// draining in-flight work.
  void stop();

  WorkerStats worker_stats(std::size_t worker) const;
  std::uint64_t total_processed() const;
  /// Frames submit dropped on full ingress rings, summed over shards.
  std::uint64_t ingress_drops() const;
  /// Handoff drops for the ordered worker pair (from, to).
  std::uint64_t handoff_drops(std::size_t from, std::size_t to) const;
  /// Loop-iteration epoch of `worker`; a healthy worker bumps it at
  /// least every doorbell-sleep interval even when idle.
  std::uint64_t worker_heartbeat(std::size_t worker) const;
  /// True when any ring feeding `worker` holds frames (watchdog's "no
  /// progress while there is work" condition).
  bool worker_has_backlog(std::size_t worker) const;

  /// Watchdog recovery: records a stall detection for `worker`.
  void note_stall(std::size_t worker);
  /// Watchdog recovery: supersedes `worker`'s thread (generation bump)
  /// and spawns a fresh one on the same rings. The superseded thread
  /// exits at its next generation check; it is joined in stop(). Safe
  /// to call from the watchdog thread while the control thread submits.
  void restart_worker(std::size_t worker);

  /// Per-worker health (heartbeat, occupancy, drops, sheds, stalls,
  /// restarts) plus totals, as a JSON object for GET /health.
  json::Value describe_stats() const;

 private:
  friend class WorkerContext;

  struct WorkItem {
    std::uint32_t tag = 0;
    packet::PacketBuffer frame;
  };

  /// Internal per-worker counters: relaxed atomics because the control
  /// thread reads them (worker_stats / total_processed) while workers
  /// are still counting.
  struct LiveStats {
    util::RelaxedCounter processed;
    util::RelaxedCounter handoff_out;
    util::RelaxedCounter handoff_in;
    util::RelaxedCounter ingress_drops;
    util::RelaxedCounter shed_bulk;
    util::RelaxedCounter shed_control;
    util::RelaxedCounter stalls;
    util::RelaxedCounter restarts;
    /// handoff_drops_to[to]: drops of handoffs this worker pushed
    /// toward worker `to` (written only by this worker's thread).
    std::vector<util::RelaxedCounter> handoff_drops_to;
  };

  struct alignas(kCacheLine) Worker {
    std::unique_ptr<SpscRing<WorkItem>> ingress;
    /// handoff[from] = ring written by worker `from`, read by this one.
    std::vector<std::unique_ptr<SpscRing<WorkItem>>> handoff;
    std::thread thread;
    LiveStats stats;
    std::mutex doorbell_mutex;
    std::condition_variable doorbell;
    std::atomic<bool> sleeping{false};
    /// Bumped once per worker-loop iteration; frozen = stalled.
    std::atomic<std::uint64_t> heartbeat{0};
    /// Restart token: run_worker exits when its captured generation no
    /// longer matches, without touching the rings again.
    std::atomic<std::uint32_t> generation{0};
    /// Shedding hysteresis state for this shard. Owned by the single
    /// submit thread; Relaxed so describe_stats() may read it.
    util::Relaxed<bool> shedding{false};
  };

  /// One worker thread's drain buffers. `items` is reused; `group` is
  /// handed to the pipeline and re-reserved for every same-tag run.
  struct DrainScratch {
    std::vector<WorkItem> items;
    packet::PacketBurst group;
  };

  void run_worker(std::size_t index, std::uint32_t my_generation);
  /// Drains up to drain_batch items from `ring`, runs the pipeline on
  /// them grouped by tag, and credits the worker's `processed` (and
  /// `handoff_in` for a handoff ring) before releasing them from
  /// inflight_. Returns the number of frames processed.
  std::size_t drain_ring(WorkerContext& ctx, SpscRing<WorkItem>& ring,
                         bool handoff, DrainScratch& scratch);
  /// Publishes `items` (emptied on return) to `shard`'s ingress ring in
  /// as few batches as the ring allows, with one doorbell; spins or
  /// drops on a full ring per block_on_full. Returns frames enqueued.
  std::size_t enqueue(std::size_t shard, std::vector<WorkItem>& items);
  void ring_doorbell(std::size_t worker);
  bool push_handoff(std::size_t from, std::size_t to, std::uint32_t tag,
                    packet::PacketBuffer&& frame);
  /// True when shedding says to drop `frame` for `worker` right now,
  /// with `staged` frames of the current burst not yet published to its
  /// ring; counts the shed. Called only from the submit thread.
  bool should_shed(Worker& worker, const packet::PacketBuffer& frame,
                   std::size_t staged);

  DatapathExecutorConfig config_;
  Pipeline pipeline_;
  std::vector<std::unique_ptr<Worker>> workers_;
  /// Submit-thread scratch: the current burst's frames per shard.
  std::vector<std::vector<WorkItem>> staged_;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> inflight_{0};
  /// Resolved shedding watermarks (config zeros replaced by defaults).
  std::size_t shed_high_ = 0;
  std::size_t shed_low_ = 0;
  std::size_t shed_hard_ = 0;
  /// Threads superseded by restart_worker(), joined in stop().
  std::mutex retired_mutex_;
  std::vector<std::thread> retired_;
};

}  // namespace nnfv::exec
