// Workloads, the seeded frame generator and the oracle.
//
// Every frame is generated from the workload seed: flow ports, the IMIX
// order and the churn schedule come only from the seed, and each UDP
// payload carries the seed and a sequence number, with the rest of its
// bytes taken from a seed-derived pad. The nodes only ever see the frames.
// The oracle regenerates the bytes of every packet it is handed from the
// seed, so it compares what leaves the nodes with what entered them.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "packet/buffer.hpp"
#include "packet/headers.hpp"
#include "util/rng.hpp"

namespace nfbench {

namespace packet = nnfv::packet;
namespace util = nnfv::util;

inline constexpr std::size_t kBurst = 32;         ///< frames per burst
inline constexpr std::size_t kBurstsInFlight = 8;  ///< closed-loop window
inline constexpr std::size_t kCustomers = 8;       ///< shared-gateway graphs

enum class Topology {
  kIpsecTunnel,    ///< CPE encapsulates, head-end decapsulates
  kSharedGateway,  ///< kCustomers firewall->NAT graphs on one node
};

struct Workload {
  const char* name;
  Topology topology;
  std::size_t cpe_workers;  ///< UniversalNodeConfig::datapath_workers
  /// UDP payload sizes and their weights (the IMIX mix).
  std::vector<std::pair<std::size_t, unsigned>> payload_mix;
  std::size_t flows;  ///< live flows per tunnel or per customer
  /// 0: long-lived flows. Otherwise each flow sends this many packets and
  /// goes silent, replaced by a new flow.
  std::uint32_t packets_per_flow;
  double open_loop_pps;  ///< fixed offered rate of the latency loop
};

const Workload* find_workload(std::string_view name);

/// One packet of a round as the generator sent it; with the round's first
/// sequence number this determines every byte of the packet.
struct Expected {
  std::uint16_t payload_bytes = 0;
  std::uint16_t port = 0;  ///< tunnel 0, or the customer
  std::uint32_t flow = 0;
  bool drop = false;  ///< the customer's firewall is configured to drop it
  bool delivered = false;
  std::int64_t due_ns = 0;  ///< open loop: when its burst was due
};

/// The frames of one round (bursts per ingress port) and what was sent.
struct Round {
  std::uint64_t first_seq = 0;
  std::vector<Expected> packets;
  std::vector<std::pair<std::size_t, packet::PacketBurst>> bursts;
};

struct FlowTuple {
  packet::Ipv4Address src;
  packet::Ipv4Address dst;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  bool drop = false;
};

class Traffic {
 public:
  Traffic(const Workload& workload, std::uint64_t seed);

  [[nodiscard]] const Workload& workload() const { return workload_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  /// Ingress ports the traffic spreads over: 1 tunnel, or kCustomers.
  [[nodiscard]] std::size_t ports() const;
  /// Ingress port of each burst of one closed-loop round: kBurstsInFlight
  /// bursts into the tunnel, or one burst per customer.
  [[nodiscard]] std::vector<std::size_t> round_ports() const;

  /// Replaces `round` with one burst per entry of `ports`. `warmup` walks
  /// long-lived flows in order, so a warm-up touches every flow. `flip`
  /// corrupts one payload byte of every frame after it was recorded.
  void fill(Round& round, std::span<const std::size_t> ports, bool warmup,
            bool flip = false);

  /// Writes the L3 bytes (IPv4, UDP, payload) of packet `seq` to `out`
  /// and returns their length: what the generator sent, for the oracle.
  std::size_t write_l3(std::uint64_t seq, const Expected& e,
                       std::span<std::uint8_t> out) const;

  [[nodiscard]] FlowTuple tuple(std::size_t port, std::uint32_t flow) const;
  [[nodiscard]] static packet::Ipv4Address external_ip(std::size_t customer);
  /// Flows created so far on `port` (flow ids are 0..n-1).
  [[nodiscard]] std::uint32_t flows_created(std::size_t port) const;

 private:
  struct Active {
    std::uint32_t flow = 0;
    std::uint32_t sent = 0;
  };

  std::uint32_t pick_flow(std::size_t port, bool warmup);
  std::size_t pick_payload();
  packet::PacketBuffer build(Round& round, std::size_t port,
                             std::uint32_t flow, std::size_t payload,
                             bool flip);

  const Workload& workload_;
  std::uint64_t seed_;
  util::Rng rng_;
  std::vector<std::uint8_t> pad_;
  unsigned mix_total_ = 0;
  std::uint64_t next_seq_ = 0;
  /// Long-lived flows: the warm-up walk. Churn: position in `order_`.
  std::vector<std::size_t> cursor_;
  std::vector<std::vector<Active>> active_;         ///< churn: live flows
  std::vector<std::vector<std::uint32_t>> order_;  ///< churn: pick order
  std::vector<std::uint32_t> next_flow_;            ///< churn: next flow id
};

/// Packet counts of a set of rounds.
struct Tally {
  std::uint64_t offered = 0;
  std::uint64_t verified = 0;
  std::uint64_t payload_bytes = 0;  ///< UDP payload bytes of verified
  std::uint64_t lost = 0;
  std::uint64_t mismatched = 0;
  std::uint64_t expected_drops = 0;  ///< firewall drops the graph asks for

  [[nodiscard]] std::uint64_t failed() const { return lost + mismatched; }
  void add(const Tally& other);
};

/// A frame that left a node's egress port, with when it left.
struct Egress {
  packet::PacketBuffer frame;
  std::uint16_t port = 0;
  std::int64_t t_ns = 0;
};

/// The packet an egress frame names (nullptr when it names none of this
/// round's) and whether the frame is what that packet should have become.
struct Verdict {
  Expected* packet = nullptr;
  bool ok = false;
};

class Oracle {
 public:
  explicit Oracle(const Traffic& traffic) : traffic_(traffic) {}

  /// Checks every egress frame against `round`, then counts what never
  /// arrived. Appends the due-to-egress latency (ns) of every verified
  /// packet to `latency_ns` when given.
  Tally check(Round& round, std::vector<Egress>& egress,
              std::vector<std::int64_t>* latency_ns);

 private:
  Verdict check_tunnel(Round& round, const Egress& out);
  Verdict check_gateway(Round& round, const Egress& out);
  /// The packet a payload names, or nullptr when it is not from this round.
  Expected* lookup(Round& round, std::span<const std::uint8_t> payload);

  /// The L3 bytes `e` was sent with, regenerated into expected_.
  std::span<const std::uint8_t> sent(const Round& round, const Expected& e);

  const Traffic& traffic_;
  std::vector<std::uint8_t> expected_ =
      std::vector<std::uint8_t>(packet::MbufPool::kDataCapacity);
  /// NAT source port first seen per (customer, flow); 0 = none yet.
  std::vector<std::vector<std::uint16_t>> nat_port_;
};

}  // namespace nfbench
