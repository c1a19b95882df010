// Switch substrate tests: match semantics, actions, table priority, LSI
// forwarding and controller punting.
#include <gtest/gtest.h>

#include "packet/builder.hpp"
#include "switch/flow_table.hpp"
#include "switch/learning_controller.hpp"
#include "switch/lsi.hpp"
#include "util/rng.hpp"

namespace nnfv::nfswitch {
namespace {

packet::PacketBuffer make_udp(const std::string& src_ip,
                              const std::string& dst_ip, std::uint16_t sport,
                              std::uint16_t dport,
                              std::optional<std::uint16_t> vlan = {}) {
  packet::UdpFrameSpec spec;
  spec.eth_src = packet::MacAddress::from_id(0x11);
  spec.eth_dst = packet::MacAddress::from_id(0x22);
  spec.vlan = vlan;
  spec.ip_src = *packet::Ipv4Address::parse(src_ip);
  spec.ip_dst = *packet::Ipv4Address::parse(dst_ip);
  spec.src_port = sport;
  spec.dst_port = dport;
  static const std::vector<std::uint8_t> payload(64, 0x55);
  spec.payload = payload;
  return packet::build_udp_frame(spec);
}

FlowContext context_of(PortId port, const packet::PacketBuffer& frame) {
  auto fields = packet::extract_flow_fields(frame.data());
  EXPECT_TRUE(fields.is_ok());
  return FlowContext{port, fields.value()};
}

// ---------------------------------------------------------------------------
// FlowMatch
// ---------------------------------------------------------------------------

TEST(FlowMatch, EmptyMatchesEverything) {
  FlowMatch any;
  auto frame = make_udp("1.1.1.1", "2.2.2.2", 10, 20);
  EXPECT_TRUE(any.matches(context_of(3, frame)));
  EXPECT_EQ(any.specified_fields(), 0);
  EXPECT_EQ(any.to_string(), "any");
}

TEST(FlowMatch, InPort) {
  FlowMatch match = match_in_port(5);
  auto frame = make_udp("1.1.1.1", "2.2.2.2", 10, 20);
  EXPECT_TRUE(match.matches(context_of(5, frame)));
  EXPECT_FALSE(match.matches(context_of(6, frame)));
}

TEST(FlowMatch, VlanSemantics) {
  auto tagged = make_udp("1.1.1.1", "2.2.2.2", 10, 20, 100);
  auto untagged = make_udp("1.1.1.1", "2.2.2.2", 10, 20);

  FlowMatch want_vid;
  want_vid.vlan = 100;
  EXPECT_TRUE(want_vid.matches(context_of(1, tagged)));
  EXPECT_FALSE(want_vid.matches(context_of(1, untagged)));

  FlowMatch want_other;
  want_other.vlan = 101;
  EXPECT_FALSE(want_other.matches(context_of(1, tagged)));

  FlowMatch want_untagged;
  want_untagged.vlan = FlowMatch::kMatchUntagged;
  EXPECT_FALSE(want_untagged.matches(context_of(1, tagged)));
  EXPECT_TRUE(want_untagged.matches(context_of(1, untagged)));

  FlowMatch wildcard;  // no VLAN constraint
  EXPECT_TRUE(wildcard.matches(context_of(1, tagged)));
  EXPECT_TRUE(wildcard.matches(context_of(1, untagged)));
}

TEST(FlowMatch, IpPrefixes) {
  auto frame = make_udp("10.1.2.3", "192.168.7.9", 10, 20);
  FlowMatch match;
  match.ip_src = *packet::Ipv4Address::parse("10.0.0.0");
  match.ip_src_prefix = 8;
  EXPECT_TRUE(match.matches(context_of(1, frame)));
  match.ip_src_prefix = 16;  // 10.0/16 does not cover 10.1.2.3
  EXPECT_FALSE(match.matches(context_of(1, frame)));
  match.ip_src_prefix = 0;  // prefix 0 = any
  EXPECT_TRUE(match.matches(context_of(1, frame)));

  FlowMatch dst;
  dst.ip_dst = *packet::Ipv4Address::parse("192.168.7.9");
  EXPECT_TRUE(dst.matches(context_of(1, frame)));
  dst.ip_dst = *packet::Ipv4Address::parse("192.168.7.8");
  EXPECT_FALSE(dst.matches(context_of(1, frame)));
}

TEST(FlowMatch, TransportPorts) {
  auto frame = make_udp("1.1.1.1", "2.2.2.2", 5001, 443);
  FlowMatch match;
  match.ip_proto = packet::kIpProtoUdp;
  match.tp_src = 5001;
  match.tp_dst = 443;
  EXPECT_TRUE(match.matches(context_of(1, frame)));
  match.tp_dst = 444;
  EXPECT_FALSE(match.matches(context_of(1, frame)));
}

TEST(FlowMatch, IpFieldsRequireIpPacket) {
  // An ARP-ish frame: ethertype != IPv4.
  std::vector<std::uint8_t> raw(64, 0);
  raw[12] = 0x08;
  raw[13] = 0x06;  // ARP
  auto fields = packet::extract_flow_fields(raw);
  ASSERT_TRUE(fields.is_ok());
  FlowContext ctx{1, fields.value()};
  FlowMatch ip_match;
  ip_match.ip_proto = packet::kIpProtoUdp;
  EXPECT_FALSE(ip_match.matches(ctx));
  FlowMatch eth_match;
  eth_match.eth_type = 0x0806;
  EXPECT_TRUE(eth_match.matches(ctx));
}

TEST(FlowMatch, MacAddresses) {
  auto frame = make_udp("1.1.1.1", "2.2.2.2", 1, 2);
  FlowMatch match;
  match.eth_src = packet::MacAddress::from_id(0x11);
  match.eth_dst = packet::MacAddress::from_id(0x22);
  EXPECT_TRUE(match.matches(context_of(1, frame)));
  match.eth_dst = packet::MacAddress::from_id(0x33);
  EXPECT_FALSE(match.matches(context_of(1, frame)));
}

// ---------------------------------------------------------------------------
// Actions
// ---------------------------------------------------------------------------

TEST(Actions, OutputCollectsPorts) {
  auto frame = make_udp("1.1.1.1", "2.2.2.2", 1, 2);
  std::vector<PortId> outputs{99};  // stale content is cleared
  auto outcome = apply_actions(
      {FlowAction::output(3), FlowAction::output(7)}, frame, outputs);
  EXPECT_EQ(outputs, (std::vector<PortId>{3, 7}));
  EXPECT_FALSE(outcome.dropped);
  EXPECT_FALSE(outcome.to_controller);
}

TEST(Actions, DropTerminates) {
  auto frame = make_udp("1.1.1.1", "2.2.2.2", 1, 2);
  std::vector<PortId> outputs;
  auto outcome = apply_actions(
      {FlowAction::drop(), FlowAction::output(3)}, frame, outputs);
  EXPECT_TRUE(outcome.dropped);
  EXPECT_TRUE(outputs.empty());
}

TEST(Actions, VlanPushPop) {
  auto frame = make_udp("1.1.1.1", "2.2.2.2", 1, 2);
  const std::size_t base = frame.size();
  std::vector<PortId> outputs;
  apply_actions({FlowAction::push_vlan(99)}, frame, outputs);
  EXPECT_EQ(frame.size(), base + packet::kVlanTagSize);
  EXPECT_EQ(packet::parse_ethernet(frame.data())->vlan.value_or(0), 99);
  apply_actions({FlowAction::pop_vlan()}, frame, outputs);
  EXPECT_EQ(frame.size(), base);
}

TEST(Actions, MacRewrite) {
  auto frame = make_udp("1.1.1.1", "2.2.2.2", 1, 2);
  const auto new_src = packet::MacAddress::from_id(0xAA);
  const auto new_dst = packet::MacAddress::from_id(0xBB);
  std::vector<PortId> outputs;
  apply_actions({FlowAction::set_eth_src(new_src),
                 FlowAction::set_eth_dst(new_dst)},
                frame, outputs);
  auto eth = packet::parse_ethernet(frame.data());
  EXPECT_EQ(eth->src, new_src);
  EXPECT_EQ(eth->dst, new_dst);
}

TEST(Actions, ControllerFlagSet) {
  auto frame = make_udp("1.1.1.1", "2.2.2.2", 1, 2);
  std::vector<PortId> outputs;
  auto outcome = apply_actions(
      {FlowAction::to_controller(), FlowAction::output(1)}, frame, outputs);
  EXPECT_TRUE(outcome.to_controller);
  EXPECT_EQ(outputs.size(), 1u);
}

// ---------------------------------------------------------------------------
// FlowTable
// ---------------------------------------------------------------------------

TEST(FlowTable, HighestPriorityWins) {
  FlowTable table;
  table.add(10, FlowMatch{}, {FlowAction::output(1)});
  const FlowEntryId high =
      table.add(20, FlowMatch{}, {FlowAction::output(2)});
  auto frame = make_udp("1.1.1.1", "2.2.2.2", 1, 2);
  FlowEntry* hit = table.lookup(context_of(0, frame), frame.size());
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->id, high);
}

TEST(FlowTable, EqualPriorityFirstAddedWins) {
  FlowTable table;
  const FlowEntryId first = table.add(5, FlowMatch{}, {});
  table.add(5, FlowMatch{}, {});
  auto frame = make_udp("1.1.1.1", "2.2.2.2", 1, 2);
  EXPECT_EQ(table.lookup(context_of(0, frame), 1)->id, first);
}

TEST(FlowTable, FallsThroughToLessSpecific) {
  FlowTable table;
  FlowMatch specific;
  specific.tp_dst = 443;
  const FlowEntryId https = table.add(20, specific, {FlowAction::drop()});
  const FlowEntryId any = table.add(10, FlowMatch{}, {FlowAction::output(1)});

  auto https_frame = make_udp("1.1.1.1", "2.2.2.2", 1, 443);
  auto other_frame = make_udp("1.1.1.1", "2.2.2.2", 1, 80);
  EXPECT_EQ(table.lookup(context_of(0, https_frame), 1)->id, https);
  EXPECT_EQ(table.lookup(context_of(0, other_frame), 1)->id, any);
}

TEST(FlowTable, StatsAccumulate) {
  FlowTable table;
  const FlowEntryId id = table.add(1, FlowMatch{}, {});
  auto frame = make_udp("1.1.1.1", "2.2.2.2", 1, 2);
  table.lookup(context_of(0, frame), 100);
  table.lookup(context_of(0, frame), 50);
  const FlowEntry& entry = *table.entries().front();
  EXPECT_EQ(entry.id, id);
  EXPECT_EQ(entry.stats.packets, 2u);
  EXPECT_EQ(entry.stats.bytes, 150u);
}

TEST(FlowTable, MissCounting) {
  FlowTable table;
  FlowMatch never;
  never.in_port = 99;
  table.add(1, never, {});
  auto frame = make_udp("1.1.1.1", "2.2.2.2", 1, 2);
  EXPECT_EQ(table.lookup(context_of(0, frame), 1), nullptr);
  EXPECT_EQ(table.misses(), 1u);
  EXPECT_EQ(table.peek(context_of(0, frame)), nullptr);
}

TEST(FlowTable, RemoveByIdAndCookie) {
  FlowTable table;
  const FlowEntryId a = table.add(1, FlowMatch{}, {}, /*cookie=*/7);
  table.add(2, FlowMatch{}, {}, 7);
  table.add(3, FlowMatch{}, {}, 8);
  EXPECT_TRUE(table.remove(a).is_ok());
  EXPECT_FALSE(table.remove(a).is_ok());  // already gone
  EXPECT_EQ(table.remove_by_cookie(7), 1u);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.entries().front()->cookie, 8u);
}

TEST(FlowTable, DumpContainsRules) {
  FlowTable table;
  FlowMatch match;
  match.in_port = 4;
  table.add(9, match, {FlowAction::output(2)});
  const std::string dump = table.dump();
  EXPECT_NE(dump.find("prio=9"), std::string::npos);
  EXPECT_NE(dump.find("in_port=4"), std::string::npos);
  EXPECT_NE(dump.find("output:2"), std::string::npos);
}

// ---------------------------------------------------------------------------
// LSI
// ---------------------------------------------------------------------------

class CapturingController : public FlowController {
 public:
  void on_packet_in(Lsi& lsi, PortId in_port,
                    const packet::PacketBuffer& frame) override {
    ++packet_ins;
    last_port = in_port;
    last_size = frame.size();
    (void)lsi;
  }
  int packet_ins = 0;
  PortId last_port = kInvalidPort;
  std::size_t last_size = 0;
};

TEST(Lsi, PortManagement) {
  Lsi lsi(1, "LSI-test");
  auto a = lsi.add_port("eth0");
  ASSERT_TRUE(a.is_ok());
  EXPECT_FALSE(lsi.add_port("eth0").is_ok());  // duplicate name
  auto b = lsi.add_port("eth1");
  EXPECT_NE(a.value(), b.value());
  EXPECT_TRUE(lsi.has_port(a.value()));
  EXPECT_EQ(lsi.port_by_name("eth1").value(), b.value());
  EXPECT_FALSE(lsi.port_by_name("nope").is_ok());
  EXPECT_EQ(lsi.ports().size(), 2u);
  EXPECT_TRUE(lsi.remove_port(a.value()).is_ok());
  EXPECT_FALSE(lsi.has_port(a.value()));
  EXPECT_FALSE(lsi.remove_port(a.value()).is_ok());
}

TEST(Lsi, ForwardsPerFlowTable) {
  Lsi lsi(1, "LSI-test");
  const PortId in = lsi.add_port("in").value();
  const PortId out = lsi.add_port("out").value();

  std::vector<packet::PacketBuffer> received;
  (void)lsi.set_port_peer(out, [&](packet::PacketBurst&& burst) {
    for (auto& frame : burst) received.push_back(std::move(frame));
  });
  lsi.flow_table().add(1, match_in_port(in), {FlowAction::output(out)});

  lsi.receive(in, make_udp("1.1.1.1", "2.2.2.2", 1, 2));
  ASSERT_EQ(received.size(), 1u);
  const PortStats* in_stats = lsi.port_stats(in);
  const PortStats* out_stats = lsi.port_stats(out);
  EXPECT_EQ(in_stats->rx_packets, 1u);
  EXPECT_EQ(out_stats->tx_packets, 1u);
  EXPECT_EQ(lsi.processed_packets(), 1u);
}

TEST(Lsi, TableMissGoesToController) {
  Lsi lsi(1, "LSI-test");
  const PortId in = lsi.add_port("in").value();
  CapturingController controller;
  lsi.set_controller(&controller);
  lsi.receive(in, make_udp("1.1.1.1", "2.2.2.2", 1, 2));
  EXPECT_EQ(controller.packet_ins, 1);
  EXPECT_EQ(controller.last_port, in);
  EXPECT_GT(controller.last_size, 0u);
}

TEST(Lsi, ReplicatesToMultipleOutputs) {
  Lsi lsi(1, "LSI-test");
  const PortId in = lsi.add_port("in").value();
  const PortId out1 = lsi.add_port("out1").value();
  const PortId out2 = lsi.add_port("out2").value();
  int count1 = 0;
  int count2 = 0;
  (void)lsi.set_port_peer(out1, [&](packet::PacketBurst&& burst) {
    count1 += static_cast<int>(burst.size());
  });
  (void)lsi.set_port_peer(out2, [&](packet::PacketBurst&& burst) {
    count2 += static_cast<int>(burst.size());
  });
  lsi.flow_table().add(
      1, match_in_port(in),
      {FlowAction::output(out1), FlowAction::output(out2)});
  lsi.receive(in, make_udp("1.1.1.1", "2.2.2.2", 1, 2));
  EXPECT_EQ(count1, 1);
  EXPECT_EQ(count2, 1);
}

TEST(Lsi, TxWithoutPeerCounted) {
  Lsi lsi(1, "LSI-test");
  const PortId in = lsi.add_port("in").value();
  const PortId out = lsi.add_port("out").value();
  lsi.flow_table().add(1, match_in_port(in), {FlowAction::output(out)});
  lsi.receive(in, make_udp("1.1.1.1", "2.2.2.2", 1, 2));
  EXPECT_EQ(lsi.port_stats(out)->tx_no_peer, 1u);
}

TEST(Lsi, VlanSteeringPipeline) {
  // LSI-0-style classification: tagged traffic in, pop, forward; and the
  // reverse path re-tags.
  Lsi lsi(0, "LSI-0");
  const PortId phys = lsi.add_port("eth0").value();
  const PortId vlink = lsi.add_port("vl:g1").value();

  packet::PacketBuffer forwarded;
  bool got = false;
  (void)lsi.set_port_peer(vlink, [&](packet::PacketBurst&& burst) {
    for (auto& frame : burst) {
      forwarded = std::move(frame);
      got = true;
    }
  });

  FlowMatch tagged = match_port_vlan(phys, 10);
  lsi.flow_table().add(100, tagged,
                       {FlowAction::pop_vlan(), FlowAction::output(vlink)});

  lsi.receive(phys, make_udp("1.1.1.1", "2.2.2.2", 1, 2, /*vlan=*/10));
  ASSERT_TRUE(got);
  EXPECT_FALSE(packet::parse_ethernet(forwarded.data())->vlan.has_value());
}

TEST(Lsi, ScalesToManyRules) {
  Lsi lsi(1, "LSI-big");
  const PortId in = lsi.add_port("in").value();
  const PortId out = lsi.add_port("out").value();
  int received = 0;
  (void)lsi.set_port_peer(out, [&](packet::PacketBurst&& burst) {
    received += static_cast<int>(burst.size());
  });
  // 1000 specific rules + 1 catch-all.
  for (int i = 0; i < 1000; ++i) {
    FlowMatch match;
    match.in_port = in;
    match.tp_dst = static_cast<std::uint16_t>(10000 + i);
    lsi.flow_table().add(10, match, {FlowAction::output(out)});
  }
  lsi.flow_table().add(1, match_in_port(in), {FlowAction::drop()});
  lsi.receive(in, make_udp("1.1.1.1", "2.2.2.2", 1, 10500));
  EXPECT_EQ(received, 1);
  lsi.receive(in, make_udp("1.1.1.1", "2.2.2.2", 1, 99));
  EXPECT_EQ(received, 1);  // dropped by catch-all
}

// ---------------------------------------------------------------------------
// Tiered classifier semantics: the tuple-space + microflow-cache rewrite
// must be observationally identical to the old linear scan.
// ---------------------------------------------------------------------------

TEST(FlowClassifier, EqualPriorityTieBreakAcrossMatchShapes) {
  // Two entries of equal priority in *different* tuple-space groups (one
  // matches on tp_dst, one on ip_src): the earliest-added must win even
  // though the groups are probed independently.
  FlowTable table;
  FlowMatch by_port;
  by_port.tp_dst = 2000;
  FlowMatch by_ip;
  by_ip.ip_src = *packet::Ipv4Address::parse("1.1.1.1");
  const FlowEntryId first = table.add(10, by_port, {});
  const FlowEntryId second = table.add(10, by_ip, {});
  auto frame = make_udp("1.1.1.1", "2.2.2.2", 1000, 2000);  // matches both
  EXPECT_EQ(table.lookup(context_of(0, frame), 1)->id, first);
  EXPECT_TRUE(table.remove(first).is_ok());
  EXPECT_EQ(table.lookup(context_of(0, frame), 1)->id, second);
}

TEST(FlowClassifier, VlanUntaggedVsWildcard) {
  FlowTable table;
  FlowMatch untagged_only;
  untagged_only.vlan = FlowMatch::kMatchUntagged;
  FlowMatch tagged_100;
  tagged_100.vlan = 100;
  FlowMatch wildcard;  // matches tagged and untagged alike
  const FlowEntryId u = table.add(20, untagged_only, {});
  const FlowEntryId t = table.add(20, tagged_100, {});
  const FlowEntryId w = table.add(10, wildcard, {});

  auto plain = make_udp("1.1.1.1", "2.2.2.2", 1, 2);
  auto tagged = make_udp("1.1.1.1", "2.2.2.2", 1, 2, 100);
  auto other_vid = make_udp("1.1.1.1", "2.2.2.2", 1, 2, 101);
  EXPECT_EQ(table.lookup(context_of(0, plain), 1)->id, u);
  EXPECT_EQ(table.lookup(context_of(0, tagged), 1)->id, t);
  EXPECT_EQ(table.lookup(context_of(0, other_vid), 1)->id, w);
}

TEST(FlowClassifier, IpPrefixGroupsMatchCorrectly) {
  FlowTable table;
  FlowMatch subnet;
  subnet.ip_dst = *packet::Ipv4Address::parse("10.1.0.0");
  subnet.ip_dst_prefix = 16;
  FlowMatch host;
  host.ip_dst = *packet::Ipv4Address::parse("10.1.2.3");
  const FlowEntryId s = table.add(10, subnet, {});
  const FlowEntryId h = table.add(20, host, {});

  auto exact = make_udp("9.9.9.9", "10.1.2.3", 1, 2);
  auto inside = make_udp("9.9.9.9", "10.1.9.9", 1, 2);
  auto outside = make_udp("9.9.9.9", "10.2.0.1", 1, 2);
  EXPECT_EQ(table.lookup(context_of(0, exact), 1)->id, h);
  EXPECT_EQ(table.lookup(context_of(0, inside), 1)->id, s);
  EXPECT_EQ(table.lookup(context_of(0, outside), 1), nullptr);
}

TEST(FlowClassifier, ZeroPrefixStillRequiresIpv4) {
  // ip_src with /0 matches any address — but only on IPv4 packets.
  FlowTable table;
  FlowMatch any_ip;
  any_ip.ip_src = *packet::Ipv4Address::parse("0.0.0.0");
  any_ip.ip_src_prefix = 0;
  table.add(10, any_ip, {});

  auto ip_frame = make_udp("1.2.3.4", "5.6.7.8", 1, 2);
  EXPECT_NE(table.lookup(context_of(0, ip_frame), 1), nullptr);

  packet::PacketBuffer arp = packet::PacketBuffer::copy_of(std::vector<std::uint8_t>(64, 0));
  auto eth = packet::parse_ethernet(arp.data());
  ASSERT_TRUE(eth.is_ok());  // zeroed frame parses as untagged ethertype 0
  EXPECT_EQ(table.lookup(context_of(0, arp), 1), nullptr);
}

TEST(FlowClassifier, CacheInvalidationAfterAdd) {
  FlowTable table;
  const FlowEntryId low = table.add(10, FlowMatch{}, {});
  auto frame = make_udp("1.1.1.1", "2.2.2.2", 1, 2);
  // Warm the microflow cache.
  EXPECT_EQ(table.lookup(context_of(0, frame), 1)->id, low);
  EXPECT_EQ(table.lookup(context_of(0, frame), 1)->id, low);
  // A higher-priority entry added later must beat the cached result.
  const FlowEntryId high = table.add(20, FlowMatch{}, {});
  EXPECT_EQ(table.lookup(context_of(0, frame), 1)->id, high);
}

TEST(FlowClassifier, CacheInvalidationAfterRemove) {
  FlowTable table;
  const FlowEntryId high = table.add(20, FlowMatch{}, {});
  const FlowEntryId low = table.add(10, FlowMatch{}, {});
  auto frame = make_udp("1.1.1.1", "2.2.2.2", 1, 2);
  EXPECT_EQ(table.lookup(context_of(0, frame), 1)->id, high);
  EXPECT_TRUE(table.remove(high).is_ok());
  EXPECT_EQ(table.lookup(context_of(0, frame), 1)->id, low);
}

TEST(FlowClassifier, CacheInvalidationAfterRemoveByCookie) {
  FlowTable table;
  table.add(20, FlowMatch{}, {}, /*cookie=*/7);
  const FlowEntryId keep = table.add(10, FlowMatch{}, {}, 8);
  auto frame = make_udp("1.1.1.1", "2.2.2.2", 1, 2);
  table.lookup(context_of(0, frame), 1);
  EXPECT_EQ(table.remove_by_cookie(7), 1u);
  EXPECT_EQ(table.lookup(context_of(0, frame), 1)->id, keep);
  // Cached misses must also be invalidated.
  FlowTable empty;
  auto miss_frame = make_udp("3.3.3.3", "4.4.4.4", 5, 6);
  EXPECT_EQ(empty.lookup(context_of(0, miss_frame), 1), nullptr);
  const FlowEntryId later = empty.add(1, FlowMatch{}, {});
  EXPECT_EQ(empty.lookup(context_of(0, miss_frame), 1)->id, later);
}

TEST(FlowClassifier, CacheHitsAreCountedAndStatsKeepAccumulating) {
  FlowTable table;
  table.add(10, FlowMatch{}, {});
  auto frame = make_udp("1.1.1.1", "2.2.2.2", 1, 2);
  table.lookup(context_of(0, frame), 100);
  table.lookup(context_of(0, frame), 100);
  table.lookup(context_of(0, frame), 100);
  EXPECT_GE(table.cache_hits(), 2u);
  EXPECT_EQ(table.cache_lookups(), 3u);
  EXPECT_EQ(table.entries().front()->stats.packets, 3u);
  EXPECT_EQ(table.entries().front()->stats.bytes, 300u);
}

TEST(FlowClassifier, SecondaryIndexes) {
  FlowTable table;
  const FlowEntryId a = table.add(1, FlowMatch{}, {}, /*cookie=*/7);
  const FlowEntryId b = table.add(2, FlowMatch{}, {}, 7);
  const FlowEntryId c = table.add(3, FlowMatch{}, {}, 8);
  EXPECT_EQ(table.find(a)->id, a);
  EXPECT_EQ(table.find(999), nullptr);
  auto sevens = table.entries_by_cookie(7);
  EXPECT_EQ(sevens.size(), 2u);
  EXPECT_NE(std::find(sevens.begin(), sevens.end(), a), sevens.end());
  EXPECT_NE(std::find(sevens.begin(), sevens.end(), b), sevens.end());
  EXPECT_EQ(table.entries_by_cookie(9).size(), 0u);
  (void)c;
}

TEST(FlowClassifier, GroupCountTracksMatchShapes) {
  FlowTable table;
  for (int i = 0; i < 100; ++i) {
    FlowMatch match;
    match.in_port = 1;
    match.vlan = static_cast<std::uint16_t>(100 + i);
    table.add(100, match, {});
  }
  // 100 rules, one match shape -> one tuple-space group.
  EXPECT_EQ(table.classifier_groups(), 1u);
  FlowMatch other;
  other.tp_dst = 443;
  table.add(5, other, {});
  EXPECT_EQ(table.classifier_groups(), 2u);
}

// ---------------------------------------------------------------------------
// Burst pipeline
// ---------------------------------------------------------------------------

TEST(LsiBurst, BurstFollowsFlowTable) {
  Lsi lsi(1, "burst");
  const PortId in = lsi.add_port("in").value();
  const PortId out_a = lsi.add_port("a").value();
  const PortId out_b = lsi.add_port("b").value();
  std::vector<std::size_t> burst_sizes;
  std::vector<std::size_t> b_sizes;
  (void)lsi.set_port_peer(out_a, [&](packet::PacketBurst&& burst) {
    burst_sizes.push_back(burst.size());
  });
  (void)lsi.set_port_peer(out_b, [&](packet::PacketBurst&& burst) {
    b_sizes.push_back(burst.size());
  });

  FlowMatch to_a;
  to_a.in_port = in;
  to_a.tp_dst = 1000;
  FlowMatch to_b;
  to_b.in_port = in;
  to_b.tp_dst = 2000;
  lsi.flow_table().add(10, to_a, {FlowAction::output(out_a)});
  lsi.flow_table().add(10, to_b, {FlowAction::output(out_b)});

  packet::PacketBurst burst;
  for (int i = 0; i < 5; ++i) {
    burst.push_back(make_udp("1.1.1.1", "2.2.2.2", 1, 1000));
  }
  for (int i = 0; i < 3; ++i) {
    burst.push_back(make_udp("1.1.1.1", "2.2.2.2", 1, 2000));
  }
  lsi.receive_burst(in, std::move(burst));

  // Each port gets one call with all of its frames: 5 to a, 3 to b.
  ASSERT_EQ(burst_sizes.size(), 1u);
  EXPECT_EQ(burst_sizes[0], 5u);
  ASSERT_EQ(b_sizes.size(), 1u);
  EXPECT_EQ(b_sizes[0], 3u);
  EXPECT_EQ(lsi.port_stats(out_a)->tx_packets, 5u);
  EXPECT_EQ(lsi.port_stats(out_b)->tx_packets, 3u);
  EXPECT_EQ(lsi.processed_packets(), 8u);
}

TEST(LsiBurst, PeerlessPortCountsEveryFrame) {
  // A port with no peer drops what it is given, and counts every frame in
  // tx_packets and tx_no_peer, whether it came alone or in a burst.
  Lsi lsi(1, "peerless");
  const PortId out = lsi.add_port("out").value();
  lsi.transmit(out, make_udp("1.1.1.1", "2.2.2.2", 1, 2));
  EXPECT_EQ(lsi.port_stats(out)->tx_packets, 1u);
  EXPECT_EQ(lsi.port_stats(out)->tx_no_peer, 1u);

  packet::PacketBurst burst;
  for (int i = 0; i < 4; ++i) {
    burst.push_back(make_udp("1.1.1.1", "2.2.2.2", 1, 2));
  }
  lsi.transmit_burst(out, std::move(burst));
  EXPECT_EQ(lsi.port_stats(out)->tx_packets, 5u);
  EXPECT_EQ(lsi.port_stats(out)->tx_no_peer, 5u);
}

TEST(LsiBurst, BurstMissesPuntToController) {
  class CountingController : public FlowController {
   public:
    void on_packet_in(Lsi&, PortId, const packet::PacketBuffer&) override {
      ++punts;
    }
    int punts = 0;
  };
  Lsi lsi(1, "burst-miss");
  const PortId in = lsi.add_port("in").value();
  CountingController controller;
  lsi.set_controller(&controller);
  packet::PacketBurst burst;
  burst.push_back(make_udp("1.1.1.1", "2.2.2.2", 1, 2));
  burst.push_back(make_udp("1.1.1.1", "2.2.2.2", 1, 3));
  lsi.receive_burst(in, std::move(burst));
  EXPECT_EQ(controller.punts, 2);
  EXPECT_EQ(lsi.flow_table().misses(), 2u);
}

// ---------------------------------------------------------------------------
// In-place compaction: a burst whose survivors all leave by one port is
// sent in its own vector; anything else spills into per-port groups.
// ---------------------------------------------------------------------------

/// UDP source port of a frame: the tests below number frames by it.
std::uint16_t seq_of(const packet::PacketBuffer& frame) {
  auto fields = packet::extract_flow_fields(frame.data());
  EXPECT_TRUE(fields.is_ok() && fields->l4_src.has_value());
  return fields.is_ok() ? fields->l4_src.value_or(0) : 0;
}

/// Test LSI: ports in, a and b; rules by UDP destination port
/// (1000 -> a, 2000 -> b, 3000 -> a + b, 9 -> drop). Every transmit is
/// recorded as (port, frame numbers, vector storage).
class BurstLsi {
 public:
  struct Tx {
    PortId port;
    std::vector<std::uint16_t> seqs;
    const packet::PacketBuffer* storage;
  };

  BurstLsi() : lsi_(1, "compaction") {
    in = lsi_.add_port("in").value();
    a = lsi_.add_port("a").value();
    b = lsi_.add_port("b").value();
    for (PortId port : {a, b}) {
      (void)lsi_.set_port_peer(
          port, [this, port](packet::PacketBurst&& burst) {
            Tx tx{port, {}, burst.data()};
            for (const packet::PacketBuffer& frame : burst) {
              tx.seqs.push_back(seq_of(frame));
            }
            sent.push_back(std::move(tx));
          });
    }
    to_a = add_rule(1000, {FlowAction::output(a)});
    to_b = add_rule(2000, {FlowAction::output(b)});
    to_both = add_rule(3000, {FlowAction::output(a), FlowAction::output(b)});
    dropped = add_rule(9, {FlowAction::drop()});
  }

  static packet::PacketBuffer frame(std::uint16_t seq, std::uint16_t dport) {
    return make_udp("1.1.1.1", "2.2.2.2", seq, dport);
  }

  /// Frames a port received, in order, over every transmit.
  std::vector<std::uint16_t> received(PortId port) const {
    std::vector<std::uint16_t> out;
    for (const Tx& tx : sent) {
      if (tx.port != port) continue;
      out.insert(out.end(), tx.seqs.begin(), tx.seqs.end());
    }
    return out;
  }

  const PortStats& stats(PortId port) const { return *lsi_.port_stats(port); }
  const FlowEntryStats& entry(FlowEntryId id) const {
    return lsi_.flow_table().find(id)->stats;
  }

  Lsi& lsi() { return lsi_; }

  PortId in = kInvalidPort, a = kInvalidPort, b = kInvalidPort;
  FlowEntryId to_a = 0, to_b = 0, to_both = 0, dropped = 0;
  std::vector<Tx> sent;

 private:
  FlowEntryId add_rule(std::uint16_t dport, std::vector<FlowAction> actions) {
    FlowMatch match;
    match.in_port = in;
    match.tp_dst = dport;
    return lsi_.flow_table().add(10, match, std::move(actions));
  }

  Lsi lsi_;
};

std::uint64_t bytes_of(const packet::PacketBurst& burst) {
  std::uint64_t bytes = 0;
  for (const packet::PacketBuffer& frame : burst) bytes += frame.size();
  return bytes;
}

TEST(LsiBurst, SinglePortBurstLeavesInItsOwnStorage) {
  BurstLsi t;
  packet::PacketBurst burst;
  for (std::uint16_t seq = 1; seq <= 8; ++seq) {
    burst.push_back(BurstLsi::frame(seq, 1000));
  }
  const packet::PacketBuffer* storage = burst.data();
  const std::uint64_t bytes = bytes_of(burst);
  t.lsi().receive_burst(t.in, std::move(burst));

  ASSERT_EQ(t.sent.size(), 1u);
  EXPECT_EQ(t.sent[0].port, t.a);
  EXPECT_EQ(t.sent[0].storage, storage);
  EXPECT_EQ(t.received(t.a),
            (std::vector<std::uint16_t>{1, 2, 3, 4, 5, 6, 7, 8}));
  EXPECT_EQ(t.stats(t.in).rx_packets, 8u);
  EXPECT_EQ(t.stats(t.in).rx_bytes, bytes);
  EXPECT_EQ(t.stats(t.in).rx_bulk, 8u);
  EXPECT_EQ(t.stats(t.a).tx_packets, 8u);
  EXPECT_EQ(t.stats(t.a).tx_bytes, bytes);
  EXPECT_EQ(t.stats(t.b).tx_packets, 0u);
  EXPECT_EQ(t.entry(t.to_a).packets, 8u);
  EXPECT_EQ(t.entry(t.to_a).bytes, bytes);
  EXPECT_EQ(t.lsi().flow_table().cache_lookups(), 8u);
}

TEST(LsiBurst, RuntsAndDropsCompactAroundSurvivors) {
  BurstLsi t;
  packet::PacketBurst burst;
  burst.push_back(packet::PacketBuffer::copy_of(
      std::vector<std::uint8_t>(10, 0)));           // runt
  burst.push_back(BurstLsi::frame(1, 1000));
  burst.push_back(BurstLsi::frame(50, 9));          // drop rule
  burst.push_back(BurstLsi::frame(51, 9));          // drop rule
  burst.push_back(BurstLsi::frame(2, 1000));
  std::vector<std::uint8_t> cut_tag(16, 0);         // truncated 802.1Q tag
  cut_tag[12] = 0x81;
  burst.push_back(packet::PacketBuffer::copy_of(cut_tag));
  burst.push_back(BurstLsi::frame(3, 1000));
  burst.push_back(BurstLsi::frame(52, 9));          // drop rule, last
  const packet::PacketBuffer* storage = burst.data();
  const std::uint64_t in_bytes = bytes_of(burst);
  const std::uint64_t out_bytes = burst[1].size() * 3;
  const std::uint64_t drop_bytes = burst[2].size() * 3;
  t.lsi().receive_burst(t.in, std::move(burst));

  ASSERT_EQ(t.sent.size(), 1u);
  EXPECT_EQ(t.sent[0].storage, storage);
  EXPECT_EQ(t.received(t.a), (std::vector<std::uint16_t>{1, 2, 3}));
  EXPECT_EQ(t.stats(t.in).rx_packets, 8u);
  EXPECT_EQ(t.stats(t.in).rx_bytes, in_bytes);
  EXPECT_EQ(t.stats(t.in).rx_bulk, 6u);  // the two undecodable frames: none
  EXPECT_EQ(t.stats(t.a).tx_packets, 3u);
  EXPECT_EQ(t.stats(t.a).tx_bytes, out_bytes);
  EXPECT_EQ(t.entry(t.to_a).packets, 3u);
  EXPECT_EQ(t.entry(t.to_a).bytes, out_bytes);
  EXPECT_EQ(t.entry(t.dropped).packets, 3u);
  EXPECT_EQ(t.entry(t.dropped).bytes, drop_bytes);
  EXPECT_EQ(t.lsi().flow_table().cache_lookups(), 6u);
  EXPECT_EQ(t.lsi().flow_table().misses(), 0u);
}

TEST(LsiBurst, AllDroppedBurstSendsNothing) {
  BurstLsi t;
  packet::PacketBurst burst;
  burst.push_back(BurstLsi::frame(1, 9));
  burst.push_back(BurstLsi::frame(2, 9));
  t.lsi().receive_burst(t.in, std::move(burst));
  EXPECT_TRUE(t.sent.empty());
  EXPECT_EQ(t.entry(t.dropped).packets, 2u);
  EXPECT_EQ(t.stats(t.a).tx_packets + t.stats(t.b).tx_packets, 0u);
}

TEST(LsiBurst, InterleavedPortsKeepPerPortOrder) {
  BurstLsi t;
  packet::PacketBurst burst;
  burst.push_back(BurstLsi::frame(1, 1000));  // A
  burst.push_back(BurstLsi::frame(2, 1000));  // A
  burst.push_back(BurstLsi::frame(3, 2000));  // B
  burst.push_back(BurstLsi::frame(4, 1000));  // A
  burst.push_back(BurstLsi::frame(5, 2000));  // B
  burst.push_back(BurstLsi::frame(6, 1000));  // A
  const std::uint64_t frame_bytes = burst[0].size();
  t.lsi().receive_burst(t.in, std::move(burst));

  // One transmit per port, in first-seen order.
  ASSERT_EQ(t.sent.size(), 2u);
  EXPECT_EQ(t.sent[0].port, t.a);
  EXPECT_EQ(t.sent[1].port, t.b);
  EXPECT_EQ(t.received(t.a), (std::vector<std::uint16_t>{1, 2, 4, 6}));
  EXPECT_EQ(t.received(t.b), (std::vector<std::uint16_t>{3, 5}));
  EXPECT_EQ(t.stats(t.a).tx_packets, 4u);
  EXPECT_EQ(t.stats(t.a).tx_bytes, 4 * frame_bytes);
  EXPECT_EQ(t.stats(t.b).tx_packets, 2u);
  EXPECT_EQ(t.stats(t.b).tx_bytes, 2 * frame_bytes);
  EXPECT_EQ(t.entry(t.to_a).packets, 4u);
  EXPECT_EQ(t.entry(t.to_b).packets, 2u);
  EXPECT_EQ(t.stats(t.in).rx_packets, 6u);
}

TEST(LsiBurst, MidBurstReplicaSpillsTheCompactedPrefix) {
  BurstLsi t;
  packet::PacketBurst burst;
  burst.push_back(BurstLsi::frame(1, 1000));  // A
  burst.push_back(BurstLsi::frame(2, 1000));  // A
  burst.push_back(BurstLsi::frame(3, 3000));  // A + B replica
  burst.push_back(BurstLsi::frame(4, 1000));  // A
  const std::uint64_t frame_bytes = burst[0].size();
  t.lsi().receive_burst(t.in, std::move(burst));

  ASSERT_EQ(t.sent.size(), 2u);
  EXPECT_EQ(t.sent[0].port, t.a);
  EXPECT_EQ(t.received(t.a), (std::vector<std::uint16_t>{1, 2, 3, 4}));
  EXPECT_EQ(t.received(t.b), (std::vector<std::uint16_t>{3}));
  EXPECT_EQ(t.stats(t.a).tx_packets, 4u);
  EXPECT_EQ(t.stats(t.a).tx_bytes, 4 * frame_bytes);
  EXPECT_EQ(t.stats(t.b).tx_packets, 1u);
  EXPECT_EQ(t.stats(t.b).tx_bytes, frame_bytes);
  EXPECT_EQ(t.entry(t.to_a).packets, 3u);
  EXPECT_EQ(t.entry(t.to_both).packets, 1u);
  EXPECT_EQ(t.entry(t.to_both).bytes, frame_bytes);
}

packet::PacketBuffer station_frame(packet::MacAddress src,
                                   packet::MacAddress dst, std::uint16_t seq,
                                   std::uint16_t dport) {
  packet::UdpFrameSpec spec;
  spec.eth_src = src;
  spec.eth_dst = dst;
  spec.ip_src = *packet::Ipv4Address::parse("10.0.0.1");
  spec.ip_dst = *packet::Ipv4Address::parse("10.0.0.2");
  spec.src_port = seq;
  spec.dst_port = dport;
  return packet::build_udp_frame(spec);
}

TEST(LsiBurst, ControllerPacketOutDoesNotOvertakeEarlierFrames) {
  // Frame 1 hits a rule to p2; frame 2 misses, and the learning controller
  // knows its destination is behind p2, so it installs a rule and
  // packet-outs frame 2 to p2 from inside the burst; frame 3 then hits
  // that new rule. p2 must see 1, 2, 3.
  Lsi lsi(1, "punt-order");
  const PortId p1 = lsi.add_port("p1").value();
  const PortId p2 = lsi.add_port("p2").value();
  std::vector<std::uint16_t> at_p2;
  (void)lsi.set_port_peer(p2, [&](packet::PacketBurst&& burst) {
    for (const packet::PacketBuffer& frame : burst) {
      at_p2.push_back(seq_of(frame));
    }
  });
  (void)lsi.set_port_peer(p1, [](packet::PacketBurst&&) {});
  LearningController controller;
  lsi.set_controller(&controller);

  const auto host_a = packet::MacAddress::from_id(0xA);
  const auto host_b = packet::MacAddress::from_id(0xB);
  const auto frame = station_frame;
  // B talks first (from p2, to an unknown station): the controller learns
  // B behind p2 and floods.
  lsi.receive(p2, frame(host_b, packet::MacAddress::from_id(0xC), 100, 1));
  ASSERT_EQ(controller.known_stations(), 1u);
  FlowMatch static_rule;
  static_rule.in_port = p1;
  static_rule.tp_dst = 7;
  lsi.flow_table().add(20, static_rule, {FlowAction::output(p2)});
  at_p2.clear();

  packet::PacketBurst burst;
  burst.push_back(frame(host_a, host_b, 1, 7));  // static rule -> p2
  burst.push_back(frame(host_a, host_b, 2, 8));  // miss -> packet-out p2
  burst.push_back(frame(host_a, host_b, 3, 8));  // learned rule -> p2
  lsi.receive_burst(p1, std::move(burst));

  EXPECT_EQ(at_p2, (std::vector<std::uint16_t>{1, 2, 3}));
  EXPECT_EQ(controller.packet_ins(), 2u);
  EXPECT_EQ(controller.rules_installed(), 1u);
  EXPECT_EQ(lsi.port_stats(p2)->tx_packets, 3u);
  EXPECT_EQ(lsi.port_stats(p1)->rx_packets, 3u);
  EXPECT_EQ(lsi.flow_table().misses(), 2u);  // B's flood + frame 2
}

TEST(LsiBurst, PuntAfterSpillFlushesGroupsThenCompactsAgain) {
  // Each burst has already spilled into per-port groups (p2, p3) when a
  // frame misses and is packet-out. The groups must leave before the
  // packet-out, and the frames after the punt compact again into slots
  // whose frames already left: in burst 1 they spill a second time, in
  // burst 2 they leave in the input vector's own storage.
  Lsi lsi(1, "punt-after-spill");
  const PortId p1 = lsi.add_port("p1").value();
  const PortId p2 = lsi.add_port("p2").value();
  const PortId p3 = lsi.add_port("p3").value();
  struct Tx {
    PortId port;
    std::vector<std::uint16_t> seqs;
    const packet::PacketBuffer* storage;
  };
  std::vector<Tx> sent;
  for (PortId port : {p1, p2, p3}) {
    (void)lsi.set_port_peer(
        port, [&sent, port](packet::PacketBurst&& burst) {
          Tx tx{port, {}, burst.data()};
          for (const packet::PacketBuffer& frame : burst) {
            tx.seqs.push_back(seq_of(frame));
          }
          sent.push_back(std::move(tx));
        });
  }
  auto received = [&sent](PortId port) {
    std::vector<std::uint16_t> out;
    for (const Tx& tx : sent) {
      if (tx.port != port) continue;
      out.insert(out.end(), tx.seqs.begin(), tx.seqs.end());
    }
    return out;
  };
  LearningController controller;
  lsi.set_controller(&controller);

  const auto host_a = packet::MacAddress::from_id(0xA);
  const auto host_b = packet::MacAddress::from_id(0xB);
  const auto host_c = packet::MacAddress::from_id(0xC);
  // B talks from p2 and C from p3 (to an unknown station, flooded): the
  // controller learns B behind p2 and C behind p3.
  const auto nobody = packet::MacAddress::from_id(0xD);
  lsi.receive(p2, station_frame(host_b, nobody, 100, 1));
  lsi.receive(p3, station_frame(host_c, nobody, 101, 1));
  ASSERT_EQ(controller.known_stations(), 2u);
  FlowMatch to_p2;
  to_p2.in_port = p1;
  to_p2.tp_dst = 7;
  const FlowEntryId static_p2 =
      lsi.flow_table().add(20, to_p2, {FlowAction::output(p2)});
  FlowMatch to_p3;
  to_p3.in_port = p1;
  to_p3.tp_dst = 9;
  const FlowEntryId static_p3 =
      lsi.flow_table().add(20, to_p3, {FlowAction::output(p3)});
  sent.clear();
  const std::uint64_t p2_tx = lsi.port_stats(p2)->tx_packets;
  const std::uint64_t p3_tx = lsi.port_stats(p3)->tx_packets;

  packet::PacketBurst burst;
  burst.push_back(station_frame(host_a, host_b, 1, 7));  // p2
  burst.push_back(station_frame(host_a, host_b, 2, 9));  // p3: spill
  burst.push_back(station_frame(host_a, host_b, 3, 7));  // p2 group
  burst.push_back(station_frame(host_a, host_b, 4, 8));  // miss: out p2
  burst.push_back(station_frame(host_a, host_b, 5, 8));  // learned: p2
  burst.push_back(station_frame(host_a, host_b, 6, 9));  // p3: spill again
  burst.push_back(station_frame(host_a, host_b, 7, 7));  // p2 group
  const std::uint64_t frame_bytes = burst[0].size();
  lsi.receive_burst(p1, std::move(burst));

  EXPECT_EQ(received(p2), (std::vector<std::uint16_t>{1, 3, 4, 5, 7}));
  EXPECT_EQ(received(p3), (std::vector<std::uint16_t>{2, 6}));
  EXPECT_EQ(lsi.port_stats(p2)->tx_packets - p2_tx, 5u);
  EXPECT_EQ(lsi.port_stats(p3)->tx_packets - p3_tx, 2u);

  sent.clear();
  burst.clear();
  burst.push_back(station_frame(host_a, host_c, 11, 9));  // p3
  burst.push_back(station_frame(host_a, host_c, 12, 7));  // p2: spill
  burst.push_back(station_frame(host_a, host_c, 13, 8));  // miss: out p3
  burst.push_back(station_frame(host_a, host_c, 14, 8));  // learned: p3
  burst.push_back(station_frame(host_a, host_c, 15, 9));  // p3
  const packet::PacketBuffer* storage = burst.data();
  lsi.receive_burst(p1, std::move(burst));

  EXPECT_EQ(received(p2), (std::vector<std::uint16_t>{12}));
  EXPECT_EQ(received(p3), (std::vector<std::uint16_t>{11, 13, 14, 15}));
  ASSERT_FALSE(sent.empty());
  EXPECT_EQ(sent.back().port, p3);
  EXPECT_EQ(sent.back().seqs, (std::vector<std::uint16_t>{14, 15}));
  EXPECT_EQ(sent.back().storage, storage);

  EXPECT_EQ(lsi.port_stats(p2)->tx_packets - p2_tx, 6u);
  EXPECT_EQ(lsi.port_stats(p3)->tx_packets - p3_tx, 6u);
  EXPECT_EQ(lsi.port_stats(p1)->rx_packets, 12u);
  EXPECT_EQ(lsi.port_stats(p1)->rx_bytes, 12 * frame_bytes);
  EXPECT_EQ(controller.packet_ins(), 4u);  // two floods, frames 4 and 13
  EXPECT_EQ(controller.rules_installed(), 2u);
  EXPECT_EQ(lsi.flow_table().misses(), 4u);
  const FlowTable& table = lsi.flow_table();
  EXPECT_EQ(table.find(static_p2)->stats.packets, 4u);
  EXPECT_EQ(table.find(static_p2)->stats.bytes, 4 * frame_bytes);
  EXPECT_EQ(table.find(static_p3)->stats.packets, 4u);
  EXPECT_EQ(table.find(static_p3)->stats.bytes, 4 * frame_bytes);
  // The learned rules carried frames 5 and 14 only: 4 and 13 missed and
  // left by packet-out.
  std::uint64_t learned = 0;
  for (FlowEntryId id : table.entries_by_cookie(0xC0DE)) {
    learned += table.find(id)->stats.packets;
  }
  EXPECT_EQ(learned, 2u);
}

}  // namespace
}  // namespace nnfv::nfswitch
