// Source NAT (masquerade) with connection tracking — the iptables NAT role.
//
// Port 0 = inside (private), port 1 = outside (public). Outbound packets
// get their source rewritten to the external IP and an allocated port;
// inbound packets matching a tracked connection are rewritten back and
// forwarded inside; unsolicited inbound traffic is dropped. Per-context
// conntrack tables and disjoint port pools make the NAT sharable across
// service graphs. Translation rewrites only the address, port (or ICMP
// identifier) and checksum bytes in place; IPv4 frames that fail to
// decode are dropped, never forwarded untranslated (docs/datapath.md §2).
//
// Session table (one per context, modelled on ndn-dpdk's PCCT: entries
// in a pool behind a hash table): a dense vector of Session slots with a
// free list of slot ids, and two open-addressing indexes of slot ids —
// one keyed by the original (inside) 5-tuple, one by (protocol, external
// port). Each session lives in one slot that both indexes point to. The
// indexes are power-of-two arrays with linear probing, start at 64
// entries, double once half full and delete by backward shift (no
// tombstones). A free slot has external_port 0 (allocated ports are
// >= 1024). Once the table has grown to a context's live set, a new
// session reuses a freed slot and allocates nothing.
//
// Threading (docs/datapath.md §6): each context carries a shared_mutex.
// A burst takes it shared once; steady-state packets (session hit, not
// stale, no sweep due) probe the indexes and touch only atomics
// (last_seen) under it. Session creation, stale eviction, index growth
// and the periodic sweep over the slot array take the unique lock, one
// frame at a time and in frame order; so do the port pools.
// Port allocation draws from the calling worker's slice of the port
// range (set_worker_count()), so concurrent flow setup on different
// workers never fights over one allocation cursor.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "exec/worker_slot.hpp"
#include "nnf/network_function.hpp"
#include "packet/flow_key.hpp"
#include "packet/headers.hpp"
#include "util/atomics.hpp"
#include "util/sync.hpp"

namespace nnfv::nnf {

/// Allocation state for a contiguous slice of the NAT port range of one
/// protocol: a bitmap plus a rotating cursor. Allocation scans whole
/// 64-bit words from the cursor, so it skips 64 busy ports per load and
/// stays O(1) amortised even with the pool nearly exhausted (the old
/// code probed up to 64512 map entries); exhaustion itself is an O(1)
/// counter check.
class PortPool {
 public:
  static constexpr std::uint16_t kFirstPort = 1024;
  static constexpr std::size_t kPorts = 65536 - kFirstPort;

  /// The whole 1024..65535 range (single-threaded default).
  PortPool() : PortPool(kFirstPort, kPorts) {}
  /// A slice [first, first + count) of the range, one worker's share.
  PortPool(std::uint16_t first, std::size_t count);

  /// Next free port at or after the cursor (wrapping), or 0 if exhausted.
  std::uint16_t allocate();
  /// No-op for ports outside this slice, so an owner scan over all
  /// slices frees a port exactly once.
  void release(std::uint16_t port);
  [[nodiscard]] bool in_use(std::uint16_t port) const;
  [[nodiscard]] std::size_t used() const { return used_; }
  [[nodiscard]] std::uint16_t first_port() const { return first_; }
  [[nodiscard]] std::size_t capacity() const { return count_; }

 private:
  std::uint16_t first_ = kFirstPort;
  std::size_t count_ = kPorts;
  std::vector<std::uint64_t> bits_;  ///< 1 = in use
  std::size_t used_ = 0;
  std::uint32_t cursor_ = 0;  ///< bit index of the next candidate
};

class Nat : public NetworkFunction {
 public:
  Nat() = default;

  [[nodiscard]] std::string_view type() const override { return "nat"; }
  [[nodiscard]] std::size_t num_ports() const override { return 2; }

  /// Config keys: "external_ip" (required before traffic),
  /// "idle_timeout_ms" (default 30000).
  util::Status configure(ContextId ctx, const NfConfig& config) override;

  std::vector<NfOutput> process_burst(ContextId ctx, NfPortIndex in_port,
                                      sim::SimTime now,
                                      packet::PacketBurst&& burst) override;

  util::Status remove_context(ContextId ctx) override;

  /// Declares how many datapath workers will drive this NAT. Divides
  /// each per-protocol port pool into workers + 1 disjoint slices (slot
  /// 0 = the control/inline thread), so concurrent allocations never
  /// share a cursor. Must be called while quiesced; pools that already
  /// hold sessions keep their old slicing.
  void set_worker_count(std::size_t workers);

  [[nodiscard]] std::size_t session_count(ContextId ctx) const;
  /// External ports held in the context's pools, all protocols; equals
  /// session_count() whenever no frame is in flight.
  [[nodiscard]] std::size_t ports_in_use(ContextId ctx) const;
  [[nodiscard]] const NfCounters& counters() const { return counters_; }

 private:
  struct Session {
    packet::FiveTuple original;      ///< inside view, outbound direction
    std::uint16_t external_port = 0;  ///< 0 = free slot
    /// Written under the shared lock by whichever worker carries the
    /// packet (outbound and inbound directions hash to different
    /// workers), hence atomic.
    util::Relaxed<sim::SimTime> last_seen{0};
  };

  /// The flat session table of one context (see the file comment).
  /// Lookups are safe under the shared lock; insert and erase need the
  /// unique lock.
  class SessionTable {
   public:
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};

    SessionTable();

    /// Slot id of the session with this inside tuple, or kNone.
    [[nodiscard]] std::uint32_t find_original(
        const packet::FiveTuple& original) const;
    /// Slot id of the session holding (protocol, port), or kNone.
    [[nodiscard]] std::uint32_t find_external(std::uint8_t protocol,
                                              std::uint16_t port) const;
    /// Stores a new session (its tuple must not be in the table) and
    /// returns its slot id.
    std::uint32_t insert(const packet::FiveTuple& original,
                         std::uint16_t external_port, sim::SimTime now);
    /// Frees the slot and unlinks it from both indexes.
    void erase(std::uint32_t id);

    [[nodiscard]] Session& operator[](std::uint32_t id) { return slots_[id]; }
    /// Slots ever used, live or free; ids run 0..slot_count() - 1.
    [[nodiscard]] std::size_t slot_count() const { return slots_.size(); }
    [[nodiscard]] std::size_t size() const { return live_; }

   private:
    /// An index's hash of a session's key.
    using HashOf = std::size_t (*)(const Session&);
    static std::size_t hash_original(const Session& session);
    static std::size_t hash_external(const Session& session);

    void grow();
    void link(std::vector<std::uint32_t>& index, HashOf hash_of,
              std::uint32_t id);
    /// Removes `id` by backward-shift deletion.
    void unlink(std::vector<std::uint32_t>& index, HashOf hash_of,
                std::uint32_t id);

    std::vector<Session> slots_;
    std::vector<std::uint32_t> free_;         ///< ids of free slots
    std::vector<std::uint32_t> by_original_;  ///< slot ids, kNone = empty
    std::vector<std::uint32_t> by_external_;  ///< same size as by_original_
    std::size_t live_ = 0;
  };

  /// Port pools per protocol: TCP, UDP, ICMP, and one shared by every
  /// other protocol (its sessions hold a port that no inbound frame can
  /// name).
  static constexpr std::size_t kPortProtocols = 4;
  using PortSlices = std::array<std::vector<PortPool>, kPortProtocols>;

  struct ContextState {
    packet::Ipv4Address external_ip;
    bool external_ip_set = false;
    sim::SimTime idle_timeout = 30 * sim::kSecond;
    SessionTable sessions;
    /// Per-worker-slot port slices per protocol, built lazily on first
    /// allocation (so they see the final worker count).
    PortSlices ports;
    /// Last time the full expiry sweep ran (sweeps are cadence-based
    /// now, not per-packet; staleness is also checked on every hit).
    sim::SimTime last_sweep = 0;
    /// Guards the session table and the port pools; see the file comment.
    mutable util::SharedMutex mutex;
  };

  [[nodiscard]] static bool session_stale(const ContextState& state,
                                          const Session& session,
                                          sim::SimTime now) {
    return now - session.last_seen.load() > state.idle_timeout;
  }
  [[nodiscard]] static bool sweep_due(const ContextState& state,
                                      sim::SimTime now) {
    return now - state.last_sweep >= state.idle_timeout;
  }

  enum class Step { kForward, kDrop, kSlowPath };
  /// Session-hit fast path under the context's shared lock: rewrites and
  /// forwards, drops unsolicited inbound traffic, or defers anything that
  /// mutates the tables (setup, stale eviction, sweep) to the slow path.
  static Step translate_fast(ContextState& state, NfPortIndex in_port,
                             sim::SimTime now, packet::PacketBuffer& frame,
                             const packet::Ipv4Tuple& decoded);
  /// Slow path under the unique lock; returns false when the frame drops.
  bool translate_slow(ContextState& state, NfPortIndex in_port,
                      sim::SimTime now, packet::PacketBuffer& frame,
                      const packet::Ipv4Tuple& decoded);

  /// Sweep over every slot; requires the context's unique lock.
  static void sweep(ContextState& state, sim::SimTime now);
  /// Removes one session (slot, both indexes, port); unique lock required.
  static void evict(ContextState& state, std::uint32_t id);
  util::Result<std::uint16_t> allocate_port(ContextState& state,
                                            std::uint8_t protocol);

  /// Read-only during traffic (contexts are added/removed quiesced);
  /// per-context locking lives inside ContextState.
  std::map<ContextId, ContextState> state_;
  std::size_t worker_count_ = 0;
  NfCounters counters_;
};

}  // namespace nnfv::nnf
