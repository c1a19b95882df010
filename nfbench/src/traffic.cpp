#include "traffic.hpp"

#include <cstring>

#include "packet/checksum.hpp"
#include "util/byteorder.hpp"

namespace nfbench {

using nnfv::packet::Ipv4Address;

namespace {

// Open-loop rates are frozen at 40-50% of each workload's closed-loop
// packet rate measured at the seed commit (see nfbench/README.md): the
// generator thread also builds and checks every frame, so this leaves it
// the slack to catch up after the machine stalls it.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = {
      {"ipsec_1408", Topology::kIpsecTunnel, 0, {{1408, 1}}, 8, 0, 200000.0},
      {"ipsec_imix_2w",
       Topology::kIpsecTunnel,
       2,
       {{64, 7}, {576, 4}, {1408, 1}},
       64,
       0,
       180000.0},
      {"shared_gw_64", Topology::kSharedGateway, 0, {{64, 1}}, 64, 0,
       300000.0},
      {"nat_churn_64", Topology::kSharedGateway, 0, {{64, 1}}, 32, 4,
       250000.0},
  };
  return table;
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a ^ (b * 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

constexpr std::size_t kPadWindow = 4096;
constexpr std::size_t kPayloadHeader = 16;  // seed, sequence number
constexpr std::size_t kL3Header = 28;       // IPv4 + UDP
constexpr std::size_t kEthernet = nnfv::packet::kEthernetHeaderSize;

}  // namespace

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

Traffic::Traffic(const Workload& workload, std::uint64_t seed)
    : workload_(workload), seed_(seed), rng_(mix(seed, 0x6e66)) {
  nnfv::util::Rng pad_rng(mix(seed, 0x706164));
  pad_ = pad_rng.bytes(kPadWindow + 2048);
  for (const auto& [bytes, weight] : workload_.payload_mix) {
    mix_total_ += weight;
  }
  next_flow_.assign(ports(), static_cast<std::uint32_t>(workload_.flows));
  active_.resize(ports());
  order_.resize(ports());
  for (std::size_t port = 0; port < ports(); ++port) {
    for (std::uint32_t f = 0; f < workload_.flows; ++f) {
      // Staggered starts: a quarter of the first flows retire per cycle.
      const std::uint32_t sent =
          workload_.packets_per_flow > 0 ? f % workload_.packets_per_flow : 0;
      active_[port].push_back({f, sent});
      order_[port].push_back(f);
    }
  }
  cursor_.assign(ports(), static_cast<std::uint32_t>(workload_.flows));
}

std::size_t Traffic::ports() const {
  return workload_.topology == Topology::kSharedGateway ? kCustomers : 1;
}

std::vector<std::size_t> Traffic::round_ports() const {
  std::vector<std::size_t> out;
  if (workload_.topology == Topology::kIpsecTunnel) {
    out.assign(kBurstsInFlight, 0);
  } else {
    for (std::size_t c = 0; c < kCustomers; ++c) out.push_back(c);
  }
  return out;
}

Ipv4Address Traffic::external_ip(std::size_t customer) {
  return Ipv4Address{(100u << 24) | (64u << 16) |
                     static_cast<std::uint32_t>(customer + 1)};
}

std::uint32_t Traffic::flows_created(std::size_t port) const {
  return next_flow_[port];
}

FlowTuple Traffic::tuple(std::size_t port, std::uint32_t flow) const {
  const std::uint64_t h = mix(mix(seed_, port + 1), flow + 1);
  FlowTuple t;
  t.src_port = static_cast<std::uint16_t>(1024 + h % 60000);
  if (workload_.topology == Topology::kIpsecTunnel) {
    t.src = Ipv4Address{(192u << 24) | (168u << 16) | (1u << 8) | 10u};
    t.dst = Ipv4Address{(10u << 24) | (8u << 16) | 1u};
    t.dst_port = 5001;
    return t;
  }
  const auto c = static_cast<std::uint32_t>(port);
  t.src = Ipv4Address{(10u << 24) | (c << 16) | (((flow >> 8) & 0xFF) << 8) |
                      (flow & 0xFF)};
  t.dst = Ipv4Address{(198u << 24) | (18u << 16) | (c << 8) |
                      static_cast<std::uint32_t>(1 + (h >> 40) % 200)};
  // One flow in 16 hits the customer's firewall drop rule (udp/23).
  t.drop = (h >> 32) % 16 == 0;
  t.dst_port =
      t.drop ? 23 : static_cast<std::uint16_t>(5000 + (h >> 48) % 1000);
  return t;
}

std::uint32_t Traffic::pick_flow(std::size_t port, bool warmup) {
  const auto flows = static_cast<std::uint32_t>(workload_.flows);
  if (workload_.packets_per_flow == 0) {
    if (warmup) return static_cast<std::uint32_t>(cursor_[port]++ % flows);
    return static_cast<std::uint32_t>(rng_.uniform(0, flows - 1));
  }
  // Churn: every live flow sends one packet per cycle of `flows` picks, in
  // a seed-shuffled order, so two packets of a flow are never more than two
  // cycles apart: well inside the NAT idle timeout, which therefore only
  // expires flows that went silent.
  std::vector<std::uint32_t>& order = order_[port];
  if (cursor_[port] == order.size()) {
    for (std::size_t i = order.size() - 1; i > 0; --i) {
      std::swap(order[i], order[rng_.uniform(0, i)]);
    }
    cursor_[port] = 0;
  }
  Active& slot = active_[port][order[cursor_[port]++]];
  const std::uint32_t flow = slot.flow;
  if (++slot.sent == workload_.packets_per_flow) {
    slot = {next_flow_[port]++, 0};
  }
  return flow;
}

std::size_t Traffic::pick_payload() {
  if (workload_.payload_mix.size() == 1) return workload_.payload_mix[0].first;
  auto r = static_cast<unsigned>(rng_.uniform(0, mix_total_ - 1));
  for (const auto& [bytes, weight] : workload_.payload_mix) {
    if (r < weight) return bytes;
    r -= weight;
  }
  return workload_.payload_mix.back().first;
}

std::size_t Traffic::write_l3(std::uint64_t seq, const Expected& e,
                             std::span<std::uint8_t> out) const {
  // Built with the packet layer's header writers. The UDP checksum is left
  // 0 (none, legal on IPv4): summing every payload here would make the
  // generator, not the nodes, the open loop's bottleneck.
  const FlowTuple t = tuple(e.port, e.flow);
  const std::size_t l4 = packet::kUdpHeaderSize + e.payload_bytes;
  packet::Ipv4Header ip;
  ip.total_length = static_cast<std::uint16_t>(packet::kIpv4MinHeaderSize + l4);
  ip.protocol = packet::kIpProtoUdp;
  ip.src = t.src;
  ip.dst = t.dst;
  packet::write_ipv4(ip, out.first(packet::kIpv4MinHeaderSize));
  packet::write_udp({t.src_port, t.dst_port, static_cast<std::uint16_t>(l4), 0},
                    out.subspan(packet::kIpv4MinHeaderSize,
                                packet::kUdpHeaderSize));
  std::uint8_t* payload = out.data() + kL3Header;
  for (int i = 0; i < 8; ++i) {
    payload[i] = static_cast<std::uint8_t>(seed_ >> (8 * i));
    payload[8 + i] = static_cast<std::uint8_t>(seq >> (8 * i));
  }
  std::memcpy(payload + kPayloadHeader, pad_.data() + (seq * 131) % kPadWindow,
              e.payload_bytes - kPayloadHeader);
  return kL3Header + e.payload_bytes;
}

packet::PacketBuffer Traffic::build(Round& round, std::size_t port,
                                    std::uint32_t flow, std::size_t payload,
                                    bool flip) {
  Expected e;
  e.payload_bytes = static_cast<std::uint16_t>(payload);
  e.port = static_cast<std::uint16_t>(port);
  e.flow = flow;
  e.drop = tuple(port, flow).drop;
  packet::PacketBuffer frame =
      packet::PacketBuffer::alloc(kEthernet + kL3Header + payload);
  packet::EthernetHeader eth;
  eth.src = packet::MacAddress::from_id(0x100 + static_cast<std::uint32_t>(port));
  eth.dst = packet::MacAddress::from_id(0x200 + static_cast<std::uint32_t>(port));
  eth.ether_type = packet::kEtherTypeIpv4;
  packet::write_ethernet(eth, frame.data());
  write_l3(next_seq_++, e, frame.data().subspan(kEthernet));
  round.packets.push_back(e);
  if (flip) frame[frame.size() - 1] ^= 0x5A;
  return frame;
}

void Traffic::fill(Round& round, std::span<const std::size_t> ports,
                   bool warmup, bool flip) {
  round.first_seq = next_seq_;
  round.packets.clear();
  round.bursts.clear();
  for (const std::size_t port : ports) {
    nnfv::packet::PacketBurst burst;
    burst.reserve(kBurst);
    for (std::size_t i = 0; i < kBurst; ++i) {
      const std::uint32_t flow = pick_flow(port, warmup);
      burst.push_back(build(round, port, flow, pick_payload(), flip));
    }
    round.bursts.emplace_back(port, std::move(burst));
  }
}

void Tally::add(const Tally& other) {
  offered += other.offered;
  verified += other.verified;
  payload_bytes += other.payload_bytes;
  lost += other.lost;
  mismatched += other.mismatched;
  expected_drops += other.expected_drops;
}

Expected* Oracle::lookup(Round& round, std::span<const std::uint8_t> payload) {
  if (payload.size() < kPayloadHeader) return nullptr;
  std::uint64_t seed = 0;
  std::uint64_t seq = 0;
  for (int i = 7; i >= 0; --i) {
    seed = (seed << 8) | payload[static_cast<std::size_t>(i)];
    seq = (seq << 8) | payload[static_cast<std::size_t>(8 + i)];
  }
  if (seed != traffic_.seed() || seq < round.first_seq) return nullptr;
  const std::uint64_t index = seq - round.first_seq;
  if (index >= round.packets.size()) return nullptr;
  Expected* e = &round.packets[index];
  return e->delivered ? nullptr : e;  // a duplicate is a mismatch
}

std::span<const std::uint8_t> Oracle::sent(const Round& round,
                                           const Expected& e) {
  const std::uint64_t seq =
      round.first_seq + static_cast<std::uint64_t>(&e - round.packets.data());
  return {expected_.data(), traffic_.write_l3(seq, e, expected_)};
}

Verdict Oracle::check_tunnel(Round& round, const Egress& out) {
  const auto data = out.frame.data();
  auto eth = nnfv::packet::parse_ethernet(data);
  if (!eth) return {};
  const auto l3 = data.subspan(eth->wire_size());
  if (l3.size() < kL3Header) return {};
  Expected* e = lookup(round, l3.subspan(kL3Header));
  if (e == nullptr) return {};
  // Byte for byte with the inner packet that entered the CPE.
  const auto sent_l3 = sent(round, *e);
  const bool ok = l3.size() == sent_l3.size() &&
                  std::memcmp(l3.data(), sent_l3.data(), l3.size()) == 0;
  return {e, ok};
}

Verdict Oracle::check_gateway(Round& round, const Egress& out) {
  const auto data = out.frame.data();
  auto eth = nnfv::packet::parse_ethernet(data);
  if (!eth || eth->vlan.has_value() ||
      eth->ether_type != nnfv::packet::kEtherTypeIpv4) {
    return {};
  }
  const auto l3 = data.subspan(eth->wire_size());
  if (l3.size() < kL3Header) return {};
  Expected* e = lookup(round, l3.subspan(kL3Header));
  if (e == nullptr) return {};
  const auto sent_l3 = sent(round, *e);
  auto ip = nnfv::packet::parse_ipv4(l3);
  if (!ip || ip->ihl != 5 || ip->protocol != nnfv::packet::kIpProtoUdp ||
      ip->total_length != l3.size() || l3.size() != sent_l3.size() ||
      nnfv::packet::internet_checksum(l3.first(20)) != 0 ||
      e->port != out.port || e->drop) {
    return {e, false};
  }
  const std::uint8_t* sent = sent_l3.data();
  // The customer's external IP as source, destination and UDP length
  // untouched, the original payload.
  if (!(ip->src == Traffic::external_ip(out.port)) ||
      std::memcmp(l3.data() + 16, sent + 16, 4) != 0 ||
      std::memcmp(l3.data() + 22, sent + 22, 4) != 0 ||
      std::memcmp(l3.data() + kL3Header, sent + kL3Header,
                  l3.size() - kL3Header) != 0) {
    return {e, false};
  }
  // A NAT port, the same one for every packet of the flow.
  const std::uint16_t port = nnfv::util::load_be16(l3.data() + 20);
  if (port < 1024) return {e, false};
  if (nat_port_.size() <= out.port) nat_port_.resize(kCustomers);
  std::vector<std::uint16_t>& ports = nat_port_[out.port];
  if (ports.size() <= e->flow) {
    ports.resize(traffic_.flows_created(out.port), 0);
  }
  if (ports[e->flow] == 0) ports[e->flow] = port;
  return {e, ports[e->flow] == port};
}

Tally Oracle::check(Round& round, std::vector<Egress>& egress,
                    std::vector<std::int64_t>* latency_ns) {
  Tally tally;
  tally.offered = round.packets.size();
  const bool tunnel =
      traffic_.workload().topology == Topology::kIpsecTunnel;
  for (const Egress& out : egress) {
    const Verdict verdict =
        tunnel ? check_tunnel(round, out) : check_gateway(round, out);
    // A frame naming a packet of this round accounts for it either way;
    // a wrong one is a mismatch, not also a loss.
    if (verdict.packet != nullptr) verdict.packet->delivered = true;
    if (!verdict.ok) {
      ++tally.mismatched;
      continue;
    }
    Expected* e = verdict.packet;
    ++tally.verified;
    tally.payload_bytes += e->payload_bytes;
    if (latency_ns != nullptr) latency_ns->push_back(out.t_ns - e->due_ns);
  }
  for (const Expected& e : round.packets) {
    if (e.delivered) continue;
    if (e.drop) {
      ++tally.expected_drops;
    } else {
      ++tally.lost;
    }
  }
  egress.clear();
  return tally;
}

}  // namespace nfbench
