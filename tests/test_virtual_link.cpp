// Virtual links as linked LSI ports (Lsi::link): a frame that only crosses
// the link is classified by both LSIs with one microflow-cache probe. The
// differential tests drive the same graphs and frames through a linked
// topology and through one hand-wired with set_port_peer lambdas (the
// uncomposed hops) and require the same egress and the same counters.
#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "core/network_manager.hpp"
#include "core/steering.hpp"
#include "nffg/nffg.hpp"
#include "packet/builder.hpp"
#include "switch/learning_controller.hpp"
#include "switch/lsi.hpp"

namespace nnfv::nfswitch {
namespace {

const packet::MacAddress kHostA = packet::MacAddress::from_id(0xA);
const packet::MacAddress kHostB = packet::MacAddress::from_id(0xB);

/// A 64 B-payload UDP frame from host A to host B, numbered by its UDP
/// source port.
packet::PacketBuffer frame(std::uint16_t seq, std::uint16_t dport,
                           std::optional<std::uint16_t> vlan = {}) {
  packet::UdpFrameSpec spec;
  spec.eth_src = kHostA;
  spec.eth_dst = kHostB;
  spec.vlan = vlan;
  spec.ip_src = *packet::Ipv4Address::parse("10.0.0.1");
  spec.ip_dst = *packet::Ipv4Address::parse("10.0.0.2");
  spec.src_port = seq;
  spec.dst_port = dport;
  static const std::vector<std::uint8_t> payload(64, 0x5A);
  spec.payload = payload;
  return packet::build_udp_frame(spec);
}

std::uint16_t seq_of(const packet::PacketBuffer& frame) {
  auto fields = packet::extract_flow_fields(frame.data());
  EXPECT_TRUE(fields.is_ok() && fields->l4_src.has_value());
  return fields.is_ok() ? fields->l4_src.value_or(0) : 0;
}

enum class Wiring { kLinked, kHandWired };

/// LSI-0 (physical ports lan, wan, mirror) and one graph LSI joined by two
/// virtual links (lan, wan). The graph LSI has an NF that loops nf_in back
/// into nf_out, a port p2 behind which host B lives, and a
/// LearningController. Rules:
///   LSI-0  lan untagged            -> vl_lan            (composes)
///   LSI-0  lan vlan 10             -> pop, vl_lan       (VLAN endpoint)
///   LSI-0  lan udp/4000            -> vl_lan + mirror   (replication)
///   LSI-0  wan                     -> vl_wan            (composes)
///   LSI-0  vl_lan                  -> push 10, lan
///   LSI-0  vl_wan                  -> wan
///   graph  vl_lan udp/1000, /67    -> nf_in
///   graph  vl_lan udp/3000         -> nf_in + p2        (peer replicates)
///   graph  vl_lan udp/6000         -> controller        (peer punts)
///   graph  vl_lan udp/7            -> p2
///   graph  nf_out                  -> vl_wan            (composes)
///   graph  vl_wan                  -> vl_lan            (one link deep)
///   graph  anything else: miss     -> controller
/// Every frame that leaves by a physical port or p2 is recorded in order.
class World {
 public:
  struct Tx {
    std::string where;
    std::vector<std::uint8_t> bytes;
    bool operator==(const Tx&) const = default;
    /// gtest prints this on a mismatch.
    friend void PrintTo(const Tx& tx, std::ostream* os) {
      auto fields = packet::extract_flow_fields(tx.bytes);
      *os << tx.where << ":" << tx.bytes.size() << "B";
      if (fields.is_ok()) {
        *os << ":" << fields->l4_src.value_or(0) << "->"
            << fields->l4_dst.value_or(0)
            << (fields->eth.vlan.has_value() ? ":tagged" : "");
      }
    }
  };

  explicit World(Wiring wiring) {
    lan = base.add_port("lan").value();
    wan = base.add_port("wan").value();
    mirror = base.add_port("mirror").value();
    base_vl_lan = base.add_port("vl:lan").value();
    base_vl_wan = base.add_port("vl:wan").value();
    vl_lan = graph.add_port("vl:lan").value();
    vl_wan = graph.add_port("vl:wan").value();
    nf_in = graph.add_port("nf:in").value();
    nf_out = graph.add_port("nf:out").value();
    p2 = graph.add_port("p2").value();
    if (wiring == Wiring::kLinked) {
      EXPECT_TRUE(base.link(base_vl_lan, graph, vl_lan).is_ok());
      EXPECT_TRUE(base.link(base_vl_wan, graph, vl_wan).is_ok());
    } else {
      hand_wire(base, base_vl_lan, graph, vl_lan);
      hand_wire(base, base_vl_wan, graph, vl_wan);
    }
    record(base, lan, "lan");
    record(base, wan, "wan");
    record(base, mirror, "mirror");
    record(graph, p2, "p2");
    (void)graph.set_port_peer(nf_in, [this](packet::PacketBurst&& burst) {
      graph.receive_burst(nf_out, std::move(burst));
    });

    FlowMatch lan_untagged = match_in_port(lan);
    lan_untagged.vlan = FlowMatch::kMatchUntagged;
    base.flow_table().add(50, lan_untagged, {FlowAction::output(base_vl_lan)});
    FlowMatch lan_tagged = match_in_port(lan);
    lan_tagged.vlan = 10;
    base.flow_table().add(
        100, lan_tagged,
        {FlowAction::pop_vlan(), FlowAction::output(base_vl_lan)});
    FlowMatch lan_mirrored = match_in_port(lan);
    lan_mirrored.tp_dst = 4000;
    base.flow_table().add(
        200, lan_mirrored,
        {FlowAction::output(base_vl_lan), FlowAction::output(mirror)});
    base.flow_table().add(100, match_in_port(wan),
                          {FlowAction::output(base_vl_wan)});
    base.flow_table().add(
        100, match_in_port(base_vl_lan),
        {FlowAction::push_vlan(10), FlowAction::output(lan)});
    base.flow_table().add(100, match_in_port(base_vl_wan),
                          {FlowAction::output(wan)});

    auto from_lan = [this](std::uint16_t dport) {
      FlowMatch match = match_in_port(vl_lan);
      match.tp_dst = dport;
      return match;
    };
    graph.flow_table().add(20, from_lan(1000), {FlowAction::output(nf_in)});
    graph.flow_table().add(20, from_lan(67), {FlowAction::output(nf_in)});
    graph.flow_table().add(
        20, from_lan(3000),
        {FlowAction::output(nf_in), FlowAction::output(p2)});
    graph.flow_table().add(20, from_lan(6000), {FlowAction::to_controller()});
    graph.flow_table().add(20, from_lan(7), {FlowAction::output(p2)});
    graph.flow_table().add(20, match_in_port(nf_out),
                           {FlowAction::output(vl_wan)});
    graph.flow_table().add(20, match_in_port(vl_wan),
                           {FlowAction::output(vl_lan)});
    graph.set_controller(&controller);
    // Host B talks first from p2 (to a multicast address, so nothing is
    // installed), and the controller learns it there.
    packet::UdpFrameSpec hello;
    hello.eth_src = kHostB;
    hello.eth_dst = packet::MacAddress::broadcast();
    graph.receive(p2, packet::build_udp_frame(hello));
    sent.clear();
  }

  [[nodiscard]] std::map<std::string, std::vector<Tx>> per_port() const {
    std::map<std::string, std::vector<Tx>> out;
    for (const Tx& tx : sent) out[tx.where].push_back(tx);
    return out;
  }

  /// Every counter the two LSIs publish, except the tables' cache_hits.
  /// Those differ by design: linked tables share one cache epoch, so a
  /// rule the controller installs in the graph LSI also empties LSI-0's
  /// cache, and a composed hit counts as a hit in the peer without
  /// probing the peer's own cache (CacheHitsOfAComposedHitCountInBothTables).
  [[nodiscard]] std::vector<std::uint64_t> counters() const {
    std::vector<std::uint64_t> out;
    for (const Lsi* lsi : {&base, &graph}) {
      out.push_back(lsi->processed_packets());
      for (PortId port : lsi->ports()) {
        const PortStats& s = *lsi->port_stats(port);
        for (const util::RelaxedCounter* c :
             {&s.rx_packets, &s.rx_bytes, &s.tx_packets, &s.tx_bytes,
              &s.tx_no_peer, &s.rx_control, &s.rx_bulk}) {
          out.push_back(*c);
        }
      }
      const FlowTable& table = lsi->flow_table();
      out.push_back(table.cache_lookups());
      out.push_back(table.misses());
      out.push_back(table.size());
      for (const FlowEntry* entry : table.entries()) {
        out.push_back(entry->stats.packets);
        out.push_back(entry->stats.bytes);
      }
    }
    return out;
  }

  Lsi base{0, "LSI-0"};
  Lsi graph{1, "LSI-g"};
  LearningController controller;
  PortId lan, wan, mirror, base_vl_lan, base_vl_wan;
  PortId vl_lan, vl_wan, nf_in, nf_out, p2;
  std::vector<Tx> sent;

 private:
  static void hand_wire(Lsi& a, PortId pa, Lsi& b, PortId pb) {
    (void)a.set_port_peer(pa, [&b, pb](packet::PacketBurst&& burst) {
      b.receive_burst(pb, std::move(burst));
    });
    (void)b.set_port_peer(pb, [&a, pa](packet::PacketBurst&& burst) {
      a.receive_burst(pa, std::move(burst));
    });
  }

  void record(Lsi& lsi, PortId port, std::string where) {
    (void)lsi.set_port_peer(
        port, [this, where](packet::PacketBurst&& burst) {
          for (const packet::PacketBuffer& f : burst) {
            sent.push_back({where, {f.data().begin(), f.data().end()}});
          }
        });
  }
};

/// Bursts of mixed traffic from the LAN and the WAN: composed frames,
/// VLAN-endpoint frames, replicas at either LSI, a peer controller action,
/// peer misses (the first is punted and installs a rule, later ones hit
/// it),
/// a DHCP-port (control) frame and a runt.
std::vector<std::pair<bool, packet::PacketBurst>> traffic() {
  std::vector<std::pair<bool, packet::PacketBurst>> bursts;
  std::uint16_t seq = 100;
  const std::uint16_t lan_ports[] = {1000, 1000, 3000, 4000, 6000, 8,
                                     1000, 7,    67,   8,    1000, 1000};
  for (int round = 0; round < 6; ++round) {
    packet::PacketBurst from_lan;
    for (std::size_t i = 0; i < std::size(lan_ports); ++i) {
      const bool tagged = (i + static_cast<std::size_t>(round)) % 5 == 0;
      // A few flows repeat across rounds (cache hits), the rest are new.
      const std::uint16_t s =
          i % 3 == 0 ? static_cast<std::uint16_t>(i) : seq++;
      from_lan.push_back(frame(s, lan_ports[i],
                               tagged ? std::optional<std::uint16_t>(10)
                                      : std::nullopt));
    }
    from_lan.push_back(
        packet::PacketBuffer::copy_of(std::vector<std::uint8_t>(9, 0)));
    bursts.emplace_back(true, std::move(from_lan));
    packet::PacketBurst from_wan;
    for (int i = 0; i < 5; ++i) {
      const std::uint16_t s = i % 2 == 0 ? std::uint16_t{1} : seq++;
      from_wan.push_back(frame(s, 1000));
    }
    bursts.emplace_back(false, std::move(from_wan));
  }
  return bursts;
}

enum class Churn { kNone, kDummyRuleEveryBurst };

void drive(World& world, Churn churn) {
  for (auto& [from_lan, burst] : traffic()) {
    if (churn == Churn::kDummyRuleEveryBurst) {
      // Invalidates every slot of both tables: each burst refills them.
      for (Lsi* lsi : {&world.base, &world.graph}) {
        FlowMatch dummy = match_in_port(999);
        const FlowEntryId id = lsi->flow_table().add(1, dummy, {});
        ASSERT_TRUE(lsi->flow_table().remove(id).is_ok());
      }
    }
    world.base.receive_burst(from_lan ? world.lan : world.wan,
                             std::move(burst));
  }
}

void expect_same(Churn churn) {
  World linked(Wiring::kLinked);
  World hand(Wiring::kHandWired);
  drive(linked, churn);
  drive(hand, churn);
  ASSERT_FALSE(hand.sent.empty());
  // Same frames, in the same order per port (a burst keeps same-port
  // order; how ports interleave is not part of the contract).
  EXPECT_EQ(linked.per_port(), hand.per_port());
  EXPECT_EQ(linked.counters(), hand.counters());
  EXPECT_EQ(linked.controller.packet_ins(), hand.controller.packet_ins());
  EXPECT_EQ(linked.controller.rules_installed(),
            hand.controller.rules_installed());
  // The traffic really took every path: composed frames, learned rules, a
  // VLAN endpoint, replicas and control frames.
  EXPECT_GT(linked.controller.rules_installed(), 0u);
  EXPECT_GT(linked.base.port_stats(linked.mirror)->tx_packets, 0u);
  EXPECT_GT(linked.graph.port_stats(linked.vl_lan)->rx_control, 0u);
  EXPECT_GT(linked.graph.port_stats(linked.p2)->tx_packets, 0u);
}

TEST(VirtualLinkCompose, SameEgressAndCountersAsHandWiredHops) {
  expect_same(Churn::kNone);
}

TEST(VirtualLinkCompose, SameEgressAndCountersWhenEverySlotRefills) {
  expect_same(Churn::kDummyRuleEveryBurst);
}

TEST(VirtualLinkCompose, CacheHitsOfAComposedHitCountInBothTables) {
  // A composed hit is the peer's lookup served from a cache: both tables
  // count a lookup and a hit, and the peer's own cache is not probed.
  World world(Wiring::kLinked);
  auto burst = [] {
    packet::PacketBurst b;
    for (std::uint16_t s = 1; s <= 8; ++s) b.push_back(frame(s, 7));
    return b;
  };
  world.base.receive_burst(world.lan, burst());  // fills both slots
  const FlowTable& base = world.base.flow_table();
  const FlowTable& graph = world.graph.flow_table();
  const std::uint64_t base_hits = base.cache_hits();
  const std::uint64_t graph_hits = graph.cache_hits();
  const std::uint64_t graph_lookups = graph.cache_lookups();
  const std::uint64_t graph_processed = world.graph.processed_packets();
  world.base.receive_burst(world.lan, burst());
  EXPECT_EQ(base.cache_hits() - base_hits, 8u);
  EXPECT_EQ(graph.cache_hits() - graph_hits, 8u);
  EXPECT_EQ(graph.cache_lookups() - graph_lookups, 8u);
  EXPECT_EQ(world.graph.processed_packets() - graph_processed, 8u);
  EXPECT_EQ(world.sent.size(), 16u);
  EXPECT_EQ(world.graph.port_stats(world.vl_lan)->rx_packets, 16u);
  EXPECT_EQ(world.base.port_stats(world.base_vl_lan)->tx_packets, 16u);
}

TEST(VirtualLinkCompose, ComposedAndPuntedFramesKeepTheirOrder) {
  // Frames 1, 3 and 5 hit the peer's static rule to p2 and compose;
  // frame 2 misses in the peer, whose controller knows host B behind p2,
  // installs a rule and packet-outs frame 2 to p2. Frame 4 was resolved
  // before that rule existed, so it crosses uncomposed too. p2 must see
  // 1..5 in order, in both topologies.
  for (Wiring wiring : {Wiring::kLinked, Wiring::kHandWired}) {
    World world(wiring);
    packet::PacketBurst burst;
    burst.push_back(frame(1, 7));
    burst.push_back(frame(2, 8));
    burst.push_back(frame(3, 7));
    burst.push_back(frame(4, 8));
    burst.push_back(frame(5, 7));
    world.base.receive_burst(world.lan, std::move(burst));
    std::vector<std::uint16_t> at_p2;
    for (const World::Tx& tx : world.sent) {
      ASSERT_EQ(tx.where, "p2");
      at_p2.push_back(seq_of(packet::PacketBuffer::copy_of(tx.bytes)));
    }
    EXPECT_EQ(at_p2, (std::vector<std::uint16_t>{1, 2, 3, 4, 5}));
    EXPECT_EQ(world.controller.packet_ins(), 1u + 1u);  // hello + frame 2
    EXPECT_EQ(world.controller.rules_installed(), 1u);
    EXPECT_EQ(world.graph.port_stats(world.p2)->tx_packets, 5u);
  }
}

TEST(VirtualLinkCompose, PeerRuleChangeTakesEffectNextBurst) {
  World world(Wiring::kLinked);
  auto burst = [] {
    packet::PacketBurst b;
    for (std::uint16_t s = 1; s <= 4; ++s) b.push_back(frame(s, 7));
    return b;
  };
  world.base.receive_burst(world.lan, burst());
  world.base.receive_burst(world.lan, burst());  // composed hits
  ASSERT_EQ(world.sent.size(), 8u);
  // A higher-priority rule in the peer alone re-steers the flow to the NF
  // (and on to the WAN): the composed slots in LSI-0 must not survive it.
  FlowMatch to_nf = match_in_port(world.vl_lan);
  to_nf.tp_dst = 7;
  world.graph.flow_table().add(30, to_nf, {FlowAction::output(world.nf_in)});
  world.sent.clear();
  world.base.receive_burst(world.lan, burst());
  ASSERT_EQ(world.sent.size(), 4u);
  for (const World::Tx& tx : world.sent) EXPECT_EQ(tx.where, "wan");
}

TEST(VirtualLinkCompose, RemovingALinkPortInvalidatesComposedSlots) {
  World world(Wiring::kLinked);
  auto burst = [] {
    packet::PacketBurst b;
    for (std::uint16_t s = 1; s <= 4; ++s) b.push_back(frame(s, 7));
    return b;
  };
  world.base.receive_burst(world.lan, burst());
  world.base.receive_burst(world.lan, burst());
  ASSERT_EQ(world.sent.size(), 8u);
  // The graph end goes away: LSI-0's end is left without a peer, and a
  // stale composed slot would still deliver to p2 through a freed port.
  ASSERT_TRUE(world.graph.remove_port(world.vl_lan).is_ok());
  world.sent.clear();
  const std::uint64_t hits = world.base.flow_table().cache_hits();
  world.base.receive_burst(world.lan, burst());
  EXPECT_EQ(world.base.flow_table().cache_hits(), hits);  // slots refilled
  EXPECT_TRUE(world.sent.empty());
  EXPECT_EQ(world.base.port_stats(world.base_vl_lan)->tx_no_peer, 4u);
  EXPECT_EQ(world.graph.port_stats(world.p2)->tx_packets, 8u);
}

TEST(VirtualLinkCompose, DestroyingAPeerDissolvesItsLinks) {
  Lsi base(0, "LSI-0");
  const PortId in = base.add_port("in").value();
  const PortId link = base.add_port("vl").value();
  base.flow_table().add(1, match_in_port(in), {FlowAction::output(link)});
  int delivered = 0;
  {
    Lsi graph(1, "LSI-g");
    const PortId end = graph.add_port("vl").value();
    const PortId out = graph.add_port("out").value();
    graph.flow_table().add(1, match_in_port(end), {FlowAction::output(out)});
    (void)graph.set_port_peer(out, [&](packet::PacketBurst&& burst) {
      delivered += static_cast<int>(burst.size());
    });
    ASSERT_TRUE(base.link(link, graph, end).is_ok());
    base.receive(in, frame(1, 7));
    base.receive(in, frame(1, 7));  // a composed hit
    EXPECT_EQ(delivered, 2);
  }
  const std::uint64_t hits = base.flow_table().cache_hits();
  base.receive(in, frame(1, 7));
  EXPECT_EQ(base.flow_table().cache_hits(), hits);  // the slot refilled
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(base.port_stats(link)->tx_no_peer, 1u);
}

TEST(VirtualLinkCompose, LinkRejectsSelfAndUnknownPorts) {
  Lsi a(0, "a");
  Lsi b(1, "b");
  const PortId pa = a.add_port("p").value();
  const PortId qa = a.add_port("q").value();
  const PortId pb = b.add_port("p").value();
  EXPECT_FALSE(a.link(pa, a, qa).is_ok());
  EXPECT_FALSE(a.link(pa, b, 99).is_ok());
  EXPECT_FALSE(a.link(99, b, pb).is_ok());
  EXPECT_TRUE(a.link(pa, b, pb).is_ok());
}

TEST(VirtualLinkCompose, RedeployedGraphFollowsItsNewRules) {
  // Composed slots of LSI-0 point at the graph LSI's entries. Undeploying
  // the graph frees them; redeploying the same graph id with other rules
  // must steer the next burst by the new rules, with no read through a
  // stale peer pointer (ASan).
  core::NetworkManager network;
  ASSERT_TRUE(network.add_physical_port("eth0").is_ok());
  ASSERT_TRUE(network.add_physical_port("eth1").is_ok());
  std::vector<std::string> nf_rx;
  auto deploy = [&](int nf_port) {
    Lsi* lsi = network.create_graph_lsi("g1").value();
    core::GraphPorts ports;
    ports.endpoints["lan"] = network.create_virtual_link("g1", "lan").value();
    ports.endpoints["wan"] = network.create_virtual_link("g1", "wan").value();
    for (int p = 0; p < 2; ++p) {
      const PortId id = lsi->add_port("nf:" + std::to_string(p)).value();
      ports.nf_ports[{"nf", p}] = id;
      (void)lsi->set_port_peer(id, [&nf_rx, p](packet::PacketBurst&& b) {
        for (std::size_t i = 0; i < b.size(); ++i) {
          nf_rx.push_back("nf:" + std::to_string(p));
        }
      });
    }
    nffg::NfFg graph;
    graph.id = "g1";
    graph.add_nf("nf", "firewall");
    graph.add_endpoint("lan", "eth0");
    graph.add_endpoint("wan", "eth1");
    graph.connect("r1", nffg::endpoint_ref("lan"),
                  nffg::nf_port("nf", nf_port));
    ASSERT_TRUE(core::TrafficSteering::install(
                    graph, network, ports,
                    core::TrafficSteering::cookie_for("g1"))
                    .is_ok());
  };
  auto burst = [] {
    packet::PacketBurst b;
    for (std::uint16_t s = 1; s <= 8; ++s) b.push_back(frame(s, 1000));
    return b;
  };
  deploy(0);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(network.inject_burst("eth0", burst()).is_ok());
  }
  ASSERT_EQ(nf_rx, std::vector<std::string>(24, "nf:0"));
  core::TrafficSteering::remove(network,
                                core::TrafficSteering::cookie_for("g1"));
  ASSERT_TRUE(network.destroy_graph_lsi("g1").is_ok());
  nf_rx.clear();
  deploy(1);
  ASSERT_TRUE(network.inject_burst("eth0", burst()).is_ok());
  EXPECT_EQ(nf_rx, std::vector<std::string>(8, "nf:1"));
}

}  // namespace
}  // namespace nnfv::nfswitch
