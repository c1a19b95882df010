// NAT NF tests: SNAT translation, conntrack, checksum validity, timeouts,
// per-context isolation, unsolicited-inbound drops.
#include <gtest/gtest.h>

#include "nnf/nat.hpp"
#include "packet/builder.hpp"
#include "packet/checksum.hpp"
#include "packet/flow_key.hpp"

namespace nnfv::nnf {
namespace {

constexpr const char* kExternalIp = "203.0.113.1";

packet::PacketBuffer udp_from(const std::string& src_ip, std::uint16_t sport,
                              const std::string& dst_ip,
                              std::uint16_t dport) {
  packet::UdpFrameSpec spec;
  spec.eth_src = packet::MacAddress::from_id(1);
  spec.eth_dst = packet::MacAddress::from_id(2);
  spec.ip_src = *packet::Ipv4Address::parse(src_ip);
  spec.ip_dst = *packet::Ipv4Address::parse(dst_ip);
  spec.src_port = sport;
  spec.dst_port = dport;
  static const std::vector<std::uint8_t> payload(24, 3);
  spec.payload = payload;
  return packet::build_udp_frame(spec);
}

packet::FiveTuple tuple_of(const packet::PacketBuffer& frame) {
  auto eth = packet::parse_ethernet(frame.data());
  auto tuple =
      packet::extract_five_tuple(frame.data().subspan(eth->wire_size()));
  EXPECT_TRUE(tuple.is_ok());
  return tuple.value();
}

Nat make_nat() {
  Nat nat;
  EXPECT_TRUE(
      nat.configure(kDefaultContext, {{"external_ip", kExternalIp}}).is_ok());
  return nat;
}

TEST(Nat, OutboundRewritesSource) {
  Nat nat = make_nat();
  auto outs = nat.process(kDefaultContext, 0, 0,
                          udp_from("192.168.1.10", 5555, "8.8.8.8", 53));
  ASSERT_EQ(outs.size(), 1u);
  EXPECT_EQ(outs[0].port, 1u);
  const packet::FiveTuple tuple = tuple_of(outs[0].frame);
  EXPECT_EQ(tuple.src_ip.to_string(), kExternalIp);
  EXPECT_NE(tuple.src_port, 0);
  EXPECT_EQ(tuple.dst_ip.to_string(), "8.8.8.8");
  EXPECT_EQ(tuple.dst_port, 53);
  EXPECT_EQ(nat.session_count(kDefaultContext), 1u);
}

TEST(Nat, TranslationIsStablePerFlow) {
  Nat nat = make_nat();
  auto first = nat.process(kDefaultContext, 0, 0,
                           udp_from("192.168.1.10", 5555, "8.8.8.8", 53));
  auto second = nat.process(kDefaultContext, 0, 1000,
                            udp_from("192.168.1.10", 5555, "8.8.8.8", 53));
  EXPECT_EQ(tuple_of(first[0].frame).src_port,
            tuple_of(second[0].frame).src_port);
  EXPECT_EQ(nat.session_count(kDefaultContext), 1u);
}

TEST(Nat, DistinctFlowsGetDistinctPorts) {
  Nat nat = make_nat();
  auto a = nat.process(kDefaultContext, 0, 0,
                       udp_from("192.168.1.10", 1001, "8.8.8.8", 53));
  auto b = nat.process(kDefaultContext, 0, 0,
                       udp_from("192.168.1.11", 1001, "8.8.8.8", 53));
  EXPECT_NE(tuple_of(a[0].frame).src_port, tuple_of(b[0].frame).src_port);
  EXPECT_EQ(nat.session_count(kDefaultContext), 2u);
}

TEST(Nat, InboundReplyTranslatedBack) {
  Nat nat = make_nat();
  auto out = nat.process(kDefaultContext, 0, 0,
                         udp_from("192.168.1.10", 5555, "8.8.8.8", 53));
  const std::uint16_t ext_port = tuple_of(out[0].frame).src_port;

  auto reply = nat.process(kDefaultContext, 1, 1000,
                           udp_from("8.8.8.8", 53, kExternalIp, ext_port));
  ASSERT_EQ(reply.size(), 1u);
  EXPECT_EQ(reply[0].port, 0u);
  const packet::FiveTuple tuple = tuple_of(reply[0].frame);
  EXPECT_EQ(tuple.dst_ip.to_string(), "192.168.1.10");
  EXPECT_EQ(tuple.dst_port, 5555);
}

TEST(Nat, ChecksumsValidAfterTranslation) {
  Nat nat = make_nat();
  auto outs = nat.process(kDefaultContext, 0, 0,
                          udp_from("192.168.1.10", 5555, "8.8.8.8", 53));
  ASSERT_EQ(outs.size(), 1u);
  const auto& frame = outs[0].frame;
  auto eth = packet::parse_ethernet(frame.data());
  auto ip = packet::parse_ipv4(frame.data().subspan(eth->wire_size()));
  ASSERT_TRUE(ip.is_ok());
  // IP header checksum verifies to zero.
  EXPECT_EQ(packet::internet_checksum(frame.data().subspan(
                eth->wire_size(), ip->header_size())),
            0);
  // UDP checksum matches a fresh computation.
  const std::size_t l4_off = eth->wire_size() + ip->header_size();
  const std::size_t l4_len = ip->total_length - ip->header_size();
  auto udp = packet::parse_udp(frame.data().subspan(l4_off));
  EXPECT_EQ(udp->checksum,
            packet::l4_checksum(ip->src, ip->dst, packet::kIpProtoUdp,
                                frame.data().subspan(l4_off, l4_len), 6));
}

TEST(Nat, UnsolicitedInboundDropped) {
  Nat nat = make_nat();
  auto outs = nat.process(kDefaultContext, 1, 0,
                          udp_from("8.8.8.8", 53, kExternalIp, 3333));
  EXPECT_TRUE(outs.empty());
  EXPECT_EQ(nat.counters().dropped, 1u);
}

TEST(Nat, InboundToWrongAddressDropped) {
  Nat nat = make_nat();
  nat.process(kDefaultContext, 0, 0,
              udp_from("192.168.1.10", 5555, "8.8.8.8", 53));
  auto outs = nat.process(kDefaultContext, 1, 0,
                          udp_from("8.8.8.8", 53, "203.0.113.99", 1024));
  EXPECT_TRUE(outs.empty());
}

TEST(Nat, SessionsExpireAfterIdleTimeout) {
  Nat nat;
  ASSERT_TRUE(nat.configure(kDefaultContext,
                            {{"external_ip", kExternalIp},
                             {"idle_timeout_ms", "1000"}})
                  .is_ok());
  auto out = nat.process(kDefaultContext, 0, 0,
                         udp_from("192.168.1.10", 5555, "8.8.8.8", 53));
  const std::uint16_t ext_port = tuple_of(out[0].frame).src_port;
  EXPECT_EQ(nat.session_count(kDefaultContext), 1u);

  // 5 seconds later the session is gone; the late reply is unsolicited.
  auto reply = nat.process(kDefaultContext, 1, 5 * sim::kSecond,
                           udp_from("8.8.8.8", 53, kExternalIp, ext_port));
  EXPECT_TRUE(reply.empty());
  EXPECT_EQ(nat.session_count(kDefaultContext), 0u);
}

TEST(Nat, KeepaliveRefreshesTimeout) {
  Nat nat;
  ASSERT_TRUE(nat.configure(kDefaultContext,
                            {{"external_ip", kExternalIp},
                             {"idle_timeout_ms", "1000"}})
                  .is_ok());
  nat.process(kDefaultContext, 0, 0,
              udp_from("192.168.1.10", 5555, "8.8.8.8", 53));
  // Refresh at 0.8s, then check at 1.5s: still alive (idle only 0.7s).
  nat.process(kDefaultContext, 0, 800 * sim::kMillisecond,
              udp_from("192.168.1.10", 5555, "8.8.8.8", 53));
  nat.process(kDefaultContext, 0, 1500 * sim::kMillisecond,
              udp_from("192.168.1.99", 1, "8.8.8.8", 53));  // triggers expire
  EXPECT_EQ(nat.session_count(kDefaultContext), 2u);
}

TEST(Nat, DropsWithoutExternalIp) {
  Nat nat;  // not configured
  auto outs = nat.process(kDefaultContext, 0, 0,
                          udp_from("192.168.1.10", 5555, "8.8.8.8", 53));
  EXPECT_TRUE(outs.empty());
  EXPECT_EQ(nat.counters().dropped, 1u);
}

TEST(Nat, ContextsHaveIndependentSessionsAndIps) {
  Nat nat;
  ASSERT_TRUE(nat.add_context(1).is_ok());
  ASSERT_TRUE(
      nat.configure(0, {{"external_ip", "203.0.113.1"}}).is_ok());
  ASSERT_TRUE(
      nat.configure(1, {{"external_ip", "203.0.113.2"}}).is_ok());
  auto a = nat.process(0, 0, 0, udp_from("10.0.0.1", 100, "8.8.8.8", 53));
  auto b = nat.process(1, 0, 0, udp_from("10.0.0.1", 100, "8.8.8.8", 53));
  EXPECT_EQ(tuple_of(a[0].frame).src_ip.to_string(), "203.0.113.1");
  EXPECT_EQ(tuple_of(b[0].frame).src_ip.to_string(), "203.0.113.2");
  EXPECT_EQ(nat.session_count(0), 1u);
  EXPECT_EQ(nat.session_count(1), 1u);
}

TEST(Nat, TcpFlowsTranslated) {
  Nat nat = make_nat();
  packet::TcpFrameSpec spec;
  spec.eth_src = packet::MacAddress::from_id(1);
  spec.eth_dst = packet::MacAddress::from_id(2);
  spec.ip_src = *packet::Ipv4Address::parse("192.168.1.20");
  spec.ip_dst = *packet::Ipv4Address::parse("1.2.3.4");
  spec.src_port = 44000;
  spec.dst_port = 443;
  spec.flags = packet::TcpHeader::kSyn;
  auto outs =
      nat.process(kDefaultContext, 0, 0, packet::build_tcp_frame(spec));
  ASSERT_EQ(outs.size(), 1u);
  const packet::FiveTuple tuple = tuple_of(outs[0].frame);
  EXPECT_EQ(tuple.protocol, packet::kIpProtoTcp);
  EXPECT_EQ(tuple.src_ip.to_string(), kExternalIp);
}

std::string hex_of(const packet::PacketBuffer& frame) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (std::uint8_t byte : frame.data()) {
    out += kDigits[byte >> 4];
    out += kDigits[byte & 0xF];
  }
  return out;
}

// NAT output bytes, both directions of a UDP, a TCP and an ICMP echo flow,
// pinned as golden hex: every address, port, identifier and checksum the
// rewrite writes must match exactly.
TEST(Nat, RewrittenBytesMatchGolden) {
  static const char* const kGolden[] = {
      // UDP out, UDP reply in
      "020000000002020000000001080045000041000040004011d46fcb007101c6336407"
      "04000035002d1f2b01080f161d242b323940474e555c636a71787f868d949ba2a9b0"
      "b7bec5ccd3dae1e8eff6fd",
      "0200000000010200000000020800450000410000400040114eb5c6336407c0a80114"
      "00359c40002d013001080f161d242b323940474e555c636a71787f868d949ba2a9b0"
      "b7bec5ccd3dae1e8eff6fd",
      // TCP out, TCP reply in
      "02000000000202000000000108004500004d000040004006d46ecb007101c6336407"
      "040001bb000003e8000007d05010ffffc208000001080f161d242b323940474e555c"
      "636a71787f868d949ba2a9b0b7bec5ccd3dae1e8eff6fd",
      "02000000000102000000000208004500004d0000400040064eb4c6336407c0a80114"
      "01bbabe0000007d00000040d5010ffff9448000001080f161d242b323940474e555c"
      "636a71787f868d949ba2a9b0b7bec5ccd3dae1e8eff6fd",
      // ICMP echo request out, echo reply in
      "020000000002020000000001080045000041000040004001d47fcb007101c6336407"
      "08007e010400000701080f161d242b323940474e555c636a71787f868d949ba2a9b0"
      "b7bec5ccd3dae1e8eff6fd",
      "0200000000010200000000020800450000410000400040014ec5c6336407c0a80114"
      "000077cd1234000701080f161d242b323940474e555c636a71787f868d949ba2a9b0"
      "b7bec5ccd3dae1e8eff6fd",
  };
  Nat nat = make_nat();
  std::vector<std::uint8_t> payload(37);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  const auto inside = *packet::Ipv4Address::parse("192.168.1.20");
  const auto server = *packet::Ipv4Address::parse("198.51.100.7");
  const auto external = *packet::Ipv4Address::parse(kExternalIp);
  const auto lan_mac = packet::MacAddress::from_id(1);
  const auto wan_mac = packet::MacAddress::from_id(2);
  std::size_t next = 0;
  auto translate = [&](NfPortIndex port, packet::PacketBuffer frame) {
    auto outs = nat.process(kDefaultContext, port, 0, std::move(frame));
    EXPECT_EQ(outs.size(), 1u);
    if (outs.empty()) return packet::FiveTuple{};
    EXPECT_EQ(hex_of(outs[0].frame), kGolden[next]) << "frame " << next;
    ++next;
    return tuple_of(outs[0].frame);
  };

  packet::UdpFrameSpec udp;
  udp.eth_src = lan_mac;
  udp.eth_dst = wan_mac;
  udp.ip_src = inside;
  udp.ip_dst = server;
  udp.src_port = 40000;
  udp.dst_port = 53;
  udp.payload = payload;
  const std::uint16_t udp_port =
      translate(0, packet::build_udp_frame(udp)).src_port;
  std::swap(udp.eth_src, udp.eth_dst);
  udp.ip_src = server;
  udp.ip_dst = external;
  udp.src_port = 53;
  udp.dst_port = udp_port;
  translate(1, packet::build_udp_frame(udp));

  packet::TcpFrameSpec tcp;
  tcp.eth_src = lan_mac;
  tcp.eth_dst = wan_mac;
  tcp.ip_src = inside;
  tcp.ip_dst = server;
  tcp.src_port = 44000;
  tcp.dst_port = 443;
  tcp.seq = 1000;
  tcp.ack = 2000;
  tcp.payload = payload;
  const std::uint16_t tcp_port =
      translate(0, packet::build_tcp_frame(tcp)).src_port;
  std::swap(tcp.eth_src, tcp.eth_dst);
  tcp.ip_src = server;
  tcp.ip_dst = external;
  tcp.src_port = 443;
  tcp.dst_port = tcp_port;
  tcp.seq = 2000;
  tcp.ack = 1037;
  translate(1, packet::build_tcp_frame(tcp));

  packet::IcmpEchoSpec icmp;
  icmp.eth_src = lan_mac;
  icmp.eth_dst = wan_mac;
  icmp.ip_src = inside;
  icmp.ip_dst = server;
  icmp.identifier = 0x1234;
  icmp.sequence = 7;
  icmp.payload = payload;
  const std::uint16_t icmp_id =
      translate(0, packet::build_icmp_echo(icmp)).src_port;
  std::swap(icmp.eth_src, icmp.eth_dst);
  icmp.ip_src = server;
  icmp.ip_dst = external;
  icmp.is_reply = true;
  icmp.identifier = icmp_id;
  translate(1, packet::build_icmp_echo(icmp));
  EXPECT_EQ(next, std::size(kGolden));
}

TEST(Nat, NonIpPassesThrough) {
  Nat nat = make_nat();
  std::vector<std::uint8_t> arp(64, 0);
  arp[12] = 0x08;
  arp[13] = 0x06;
  auto outs =
      nat.process(kDefaultContext, 0, 0, packet::PacketBuffer::copy_of(arp));
  ASSERT_EQ(outs.size(), 1u);
  EXPECT_EQ(outs[0].port, 1u);
}

TEST(Nat, RejectsBadConfig) {
  Nat nat;
  EXPECT_FALSE(
      nat.configure(kDefaultContext, {{"external_ip", "999.1.1.1"}}).is_ok());
  EXPECT_FALSE(
      nat.configure(kDefaultContext, {{"idle_timeout_ms", "x"}}).is_ok());
  EXPECT_FALSE(nat.configure(kDefaultContext, {{"bogus", "1"}}).is_ok());
  EXPECT_FALSE(nat.configure(77, {}).is_ok());
}

}  // namespace
}  // namespace nnfv::nnf
