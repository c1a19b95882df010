// Priority flow table with per-entry statistics — the forwarding state of
// one Logical Switch Instance.
//
// Lookup is tiered (see docs/datapath.md):
//   1. a direct-mapped exact-match *microflow cache* keyed on the packet's
//      full decoded fields, invalidated wholesale on any table mutation;
//      a slot can also carry the linked table's entry for the same frame
//      after a virtual-link crossing (a composed slot, see Lsi::link);
//   2. a tuple-space classifier: one hash probe per distinct match shape,
//      probed in descending max-priority order with early exit.
// Both tiers reproduce the documented linear-scan semantics exactly:
// highest priority wins, earliest-added wins among equals.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/worker_slot.hpp"
#include "switch/flow_action.hpp"
#include "switch/flow_classifier.hpp"
#include "switch/flow_match.hpp"
#include "util/atomics.hpp"
#include "util/status.hpp"

namespace nnfv::nfswitch {

using FlowEntryId = std::uint64_t;
using Cookie = std::uint64_t;

/// Relaxed-atomic counters: several datapath workers bump the same
/// entry's stats concurrently (see docs/datapath.md §6).
struct FlowEntryStats {
  util::RelaxedCounter packets;
  util::RelaxedCounter bytes;
};

/// THE table ordering — priority desc, then earliest-added (lowest id).
/// Single source of truth for add()/remove() binary searches and the
/// classifier's winner selection.
inline bool flow_entry_precedes(std::uint16_t priority_a, FlowEntryId id_a,
                                std::uint16_t priority_b, FlowEntryId id_b) {
  if (priority_a != priority_b) return priority_a > priority_b;
  return id_a < id_b;
}

struct FlowEntry {
  FlowEntryId id = 0;
  std::uint16_t priority = 0;
  FlowMatch match;
  std::vector<FlowAction> actions;
  /// Opaque owner tag; the steering manager sets it to the graph id so all
  /// rules of a graph can be removed together.
  Cookie cookie = 0;
  FlowEntryStats stats;
};

/// Counters of a run of lookups, kept by the caller and published into
/// the table once (FlowTable::publish) instead of one atomic add per
/// lookup and counter. Entry packets/bytes are run-length: consecutive
/// hits on one entry accumulate here and flush when the entry changes.
struct LookupTally {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  FlowEntry* entry = nullptr;  ///< entry the run below belongs to
  std::uint64_t entry_packets = 0;
  std::uint64_t entry_bytes = 0;

  /// Counts one lookup that resolved to `matched` (nullptr = table
  /// miss); `hit` says whether a cache slot answered it.
  void count(FlowEntry* matched, bool hit, std::size_t packet_bytes) {
    ++lookups;
    if (hit) ++hits;
    if (matched == nullptr) {
      ++misses;
      return;
    }
    if (matched != entry) {
      flush_run();
      entry = matched;
    }
    ++entry_packets;
    entry_bytes += packet_bytes;
  }

  /// Adds the run of hits to the entry it belongs to and starts an empty
  /// run.
  void flush_run();
};

/// One slot of a microflow cache: 64 B and 64 B aligned, so a probe
/// touches one cache line.
struct alignas(64) CacheSlot {
  std::uint64_t generation = 0;  ///< valid iff == the table's epoch
  FlowKeyView key;
  FlowEntry* entry = nullptr;  ///< nullptr = cached miss
  /// Composed slot: when `entry` only outputs to a virtual link, the
  /// linked table's entry for the same frame (Lsi::link). nullptr until
  /// the first crossing of the epoch resolves it; FlowTable::kNoPeer when
  /// the frame crosses uncomposed. Valid under the same generation: the
  /// two tables share one epoch.
  FlowEntry* peer = nullptr;
};
static_assert(sizeof(CacheSlot) == 64);

/// Highest-priority-wins lookup; among equal priorities the earliest-added
/// entry wins (OpenFlow leaves this undefined; we pin it for determinism).
class FlowTable {
 public:
  /// Adds an entry and returns its id.
  FlowEntryId add(std::uint16_t priority, FlowMatch match,
                  std::vector<FlowAction> actions, Cookie cookie = 0);

  util::Status remove(FlowEntryId id);

  /// Removes all entries with the given cookie; returns how many.
  std::size_t remove_by_cookie(Cookie cookie);

  /// Returns the matching entry (updating its stats) or nullptr on miss.
  FlowEntry* lookup(const FlowContext& ctx, std::size_t packet_bytes);

  /// Lookup on a pre-extracted key (burst path: the LSI decodes once and
  /// reuses the key for the cache probe and the classifier).
  FlowEntry* lookup_key(const FlowKeyView& key, std::size_t packet_bytes);

  /// Same lookup, but the counters go to `tally` instead of the table;
  /// they become visible at publish(). Publish before anything that may
  /// mutate the table (a controller packet-in) or read its counters.
  FlowEntry* lookup_key(const FlowKeyView& key, std::size_t packet_bytes,
                        LookupTally& tally);

  /// A lookup split in two, so a caller can see the result before it
  /// counts: probe() reads the cache (or the classifier) and changes
  /// nothing; commit() counts the lookup into `tally` and, on a cache
  /// miss, fills the slot. probe + commit == lookup_key. The probed slot's
  /// `peer` field is the caller's to read and fill (composed slot).
  struct Probe {
    CacheSlot* slot = nullptr;
    std::uint64_t generation = 0;
    FlowEntry* entry = nullptr;
    bool hit = false;
  };
  [[nodiscard]] Probe probe(const FlowKeyView& key) {
    // Each worker slot owns its cache outright (allocated on first use by
    // the owning thread), so slot probes and fills are unsynchronized.
    auto& cache = caches_[exec::current_worker_slot()];
    if (cache == nullptr) allocate_cache(cache);
    Probe found;
    found.generation = epoch_->load(std::memory_order_acquire);
    found.slot = &(*cache)[key.hash() & (kCacheSlots - 1)];
    if (found.slot->generation == found.generation &&
        found.slot->key == key) {
      found.hit = true;
      found.entry = found.slot->entry;
    } else {
      found.entry = classify(key);
    }
    return found;
  }
  FlowEntry* commit(const Probe& probe, const FlowKeyView& key,
                    std::size_t packet_bytes, LookupTally& tally) {
    if (!probe.hit) {
      *probe.slot = CacheSlot{probe.generation, key, probe.entry, nullptr};
    }
    tally.count(probe.entry, probe.hit, packet_bytes);
    return probe.entry;
  }

  /// CacheSlot::peer of a frame that crosses its link uncomposed.
  static FlowEntry* const kNoPeer;

  /// Moves this table onto `other`'s cache epoch and bumps it, so every
  /// slot of both tables is invalid afterwards. Tables joined by a
  /// virtual link share one epoch: a mutation of either invalidates the
  /// composed slots of both.
  void join_epoch(FlowTable& other);

  /// Invalidates every cache slot of every table on this table's epoch.
  void invalidate_cache();

  /// Adds `tally` to the table and entry counters and resets it.
  void publish(LookupTally& tally);

  /// Lookup without stats update (diagnostics).
  [[nodiscard]] const FlowEntry* peek(const FlowContext& ctx) const;

  /// O(1) entry access by id (nullptr when absent).
  [[nodiscard]] const FlowEntry* find(FlowEntryId id) const;

  /// Ids of all entries tagged with `cookie`.
  [[nodiscard]] std::vector<FlowEntryId> entries_by_cookie(
      Cookie cookie) const;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Entries in match order (priority desc, earliest-added first).
  [[nodiscard]] std::vector<const FlowEntry*> entries() const;

  [[nodiscard]] std::uint64_t misses() const { return misses_; }

  /// Microflow-cache telemetry.
  [[nodiscard]] std::uint64_t cache_hits() const { return cache_hits_; }
  [[nodiscard]] std::uint64_t cache_lookups() const { return cache_lookups_; }
  /// Distinct match shapes currently in the classifier (diagnostics).
  [[nodiscard]] std::size_t classifier_groups() const;

  /// Multi-line human-readable dump (debugging, examples).
  [[nodiscard]] std::string dump() const;

 private:
  static constexpr std::size_t kCacheSlots = 1024;  // power of two
  using Cache = std::array<CacheSlot, kCacheSlots>;

  static void allocate_cache(std::unique_ptr<Cache>& cache);
  /// Invalidate derived state after any mutation.
  void touch();
  void ensure_classifier() const;
  FlowEntry* classify(const FlowKeyView& key) const;

  // Sorted by (priority desc, id asc). unique_ptr keeps entry addresses
  // stable for the indexes and the cache across vector reshuffles.
  std::vector<std::unique_ptr<FlowEntry>> entries_;
  std::unordered_map<FlowEntryId, FlowEntry*> by_id_;
  std::unordered_map<Cookie, std::vector<FlowEntry*>> by_cookie_;

  // Threading contract (docs/datapath.md §6): mutations (add/remove)
  // happen with the datapath quiesced; lookups run concurrently from
  // worker threads. The lazy classifier rebuild is the one post-mutation
  // step workers themselves trigger, so it is double-check-locked; the
  // generation bump stays the wholesale invalidation broadcast for every
  // worker's microflow cache.
  mutable TupleSpaceClassifier classifier_;
  mutable std::atomic<bool> classifier_dirty_{false};
  mutable std::mutex classifier_mutex_;
  /// The cache epoch: bumped on every mutation, it invalidates every
  /// cache slot of every worker at once. Shared by all tables joined by
  /// virtual links (join_epoch); the pointer itself changes only while
  /// the datapath is quiesced.
  std::shared_ptr<std::atomic<std::uint64_t>> epoch_ =
      std::make_shared<std::atomic<std::uint64_t>>(1);
  /// One direct-mapped microflow cache per worker slot (slot 0 = the
  /// control/inline thread), allocated lazily by its owning thread only.
  mutable std::array<std::unique_ptr<Cache>, exec::kMaxSlots> caches_;

  FlowEntryId next_id_ = 1;
  mutable util::RelaxedCounter misses_;
  util::RelaxedCounter cache_hits_;
  util::RelaxedCounter cache_lookups_;
};

}  // namespace nnfv::nfswitch
