// NAT NF tests: SNAT translation, conntrack, checksum validity, timeouts,
// per-context isolation, unsolicited-inbound drops, the in-place rewrite
// against a full recompute, malformed-IPv4 drops, and the session table
// against a two-map reference model.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "exec/worker_slot.hpp"
#include "nnf/nat.hpp"
#include "packet/builder.hpp"
#include "packet/checksum.hpp"
#include "packet/flow_key.hpp"
#include "util/byteorder.hpp"
#include "util/rng.hpp"

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

// ---------------------------------------------------------------------------
// The in-place rewrite against a full recompute. The oracle writes the
// translated address and port (or ICMP identifier) into a copy of the
// input and recomputes every checksum from scratch; the NAT's RFC 1624
// IPv4 header update and its L4 sum must produce the same bytes.
// ---------------------------------------------------------------------------

using Bytes = std::vector<std::uint8_t>;

Bytes bytes_of(const packet::PacketBuffer& frame) {
  return Bytes(frame.data().begin(), frame.data().end());
}

Bytes full_recompute(Bytes frame, bool outbound, packet::Ipv4Address addr,
                     std::uint16_t port) {
  auto eth = packet::parse_ethernet(frame);
  const std::size_t l3_off = eth->wire_size();
  auto ip = packet::parse_ipv4(std::span(frame).subspan(l3_off));
  EXPECT_TRUE(ip.is_ok());
  std::uint8_t* l3 = frame.data() + l3_off;
  const std::size_t l4_off = l3_off + ip->header_size();
  std::uint8_t* l4 = frame.data() + l4_off;
  util::store_be32(l3 + (outbound ? 12 : 16), addr.value);
  util::store_be16(l3 + 10, 0);
  util::store_be16(l3 + 10, packet::internet_checksum(
                                {l3, ip->header_size()}));
  const packet::Ipv4Address src{util::load_be32(l3 + 12)};
  const packet::Ipv4Address dst{util::load_be32(l3 + 16)};
  const std::span<const std::uint8_t> segment(
      l4, ip->total_length - ip->header_size());
  switch (ip->protocol) {
    case packet::kIpProtoUdp:
      util::store_be16(l4 + (outbound ? 0 : 2), port);
      util::store_be16(l4 + 6, packet::l4_checksum(src, dst,
                                                   packet::kIpProtoUdp,
                                                   segment, 6));
      break;
    case packet::kIpProtoTcp:
      util::store_be16(l4 + (outbound ? 0 : 2), port);
      util::store_be16(l4 + 16, packet::l4_checksum(src, dst,
                                                    packet::kIpProtoTcp,
                                                    segment, 16));
      break;
    case packet::kIpProtoIcmp:
      util::store_be16(l4 + 4, port);
      util::store_be16(l4 + 2, 0);
      util::store_be16(l4 + 2, packet::internet_checksum(segment));
      break;
    default:
      ADD_FAILURE() << "untranslatable protocol";
  }
  return frame;
}

/// One inside host talking to one server over `proto`; `payload` fills
/// the segment after the transport header.
struct FlowSpec {
  std::uint8_t proto = packet::kIpProtoUdp;
  packet::Ipv4Address inside;
  std::uint16_t inside_port = 0;  ///< ICMP: the echo identifier
  packet::Ipv4Address server;
  std::uint16_t server_port = 0;
};

Bytes build_frame(const FlowSpec& flow, bool outbound,
                  packet::Ipv4Address external, std::uint16_t external_port,
                  std::span<const std::uint8_t> payload) {
  const packet::Ipv4Address src = outbound ? flow.inside : flow.server;
  const packet::Ipv4Address dst = outbound ? flow.server : external;
  const std::uint16_t sport = outbound ? flow.inside_port : flow.server_port;
  const std::uint16_t dport = outbound ? flow.server_port : external_port;
  const auto lan = packet::MacAddress::from_id(1);
  const auto wan = packet::MacAddress::from_id(2);
  if (flow.proto == packet::kIpProtoUdp) {
    packet::UdpFrameSpec spec;
    spec.eth_src = outbound ? lan : wan;
    spec.eth_dst = outbound ? wan : lan;
    spec.ip_src = src;
    spec.ip_dst = dst;
    spec.src_port = sport;
    spec.dst_port = dport;
    spec.payload = payload;
    return bytes_of(packet::build_udp_frame(spec));
  }
  if (flow.proto == packet::kIpProtoTcp) {
    packet::TcpFrameSpec spec;
    spec.eth_src = outbound ? lan : wan;
    spec.eth_dst = outbound ? wan : lan;
    spec.ip_src = src;
    spec.ip_dst = dst;
    spec.src_port = sport;
    spec.dst_port = dport;
    spec.payload = payload;
    return bytes_of(packet::build_tcp_frame(spec));
  }
  packet::IcmpEchoSpec spec;
  spec.eth_src = outbound ? lan : wan;
  spec.eth_dst = outbound ? wan : lan;
  spec.ip_src = src;
  spec.ip_dst = dst;
  spec.is_reply = !outbound;
  spec.identifier = outbound ? flow.inside_port : external_port;
  spec.payload = payload;
  return bytes_of(packet::build_icmp_echo(spec));
}

/// Sends `in` through the NAT on `port` and expects exactly the oracle's
/// bytes out.
void expect_translation(Nat& nat, NfPortIndex port, const Bytes& in,
                        const Bytes& want, const std::string& what) {
  auto outs = nat.process(kDefaultContext, port, 0,
                          packet::PacketBuffer::copy_of(in));
  ASSERT_EQ(outs.size(), 1u) << what;
  EXPECT_EQ(bytes_of(outs[0].frame), want) << what;
}

/// Establishes `flow`'s session and returns its external port.
std::uint16_t open_session(Nat& nat, const FlowSpec& flow) {
  const auto external = *packet::Ipv4Address::parse(kExternalIp);
  const Bytes probe = build_frame(flow, true, external, 0, {});
  auto outs = nat.process(kDefaultContext, 0, 0,
                          packet::PacketBuffer::copy_of(probe));
  EXPECT_EQ(outs.size(), 1u);
  return outs.empty() ? 0 : tuple_of(outs[0].frame).src_port;
}

TEST(Nat, RewriteMatchesFullRecomputeOnRandomFrames) {
  Nat nat = make_nat();
  const auto external = *packet::Ipv4Address::parse(kExternalIp);
  util::Rng rng(0x4A7);
  for (int round = 0; round < 1500; ++round) {
    FlowSpec flow;
    flow.proto = std::array<std::uint8_t, 3>{
        packet::kIpProtoUdp, packet::kIpProtoTcp,
        packet::kIpProtoIcmp}[static_cast<std::size_t>(round % 3)];
    flow.inside.value = 0xC0A80000u | static_cast<std::uint32_t>(
                                          rng.uniform(0, 0xFFFF));
    flow.inside_port = static_cast<std::uint16_t>(rng.next_u64());
    flow.server.value = static_cast<std::uint32_t>(rng.next_u64());
    flow.server_port = static_cast<std::uint16_t>(rng.next_u64());
    const Bytes payload = rng.bytes(rng.uniform(0, 80));
    const bool zero_udp_sum = flow.proto == packet::kIpProtoUdp &&
                              rng.uniform(0, 3) == 0;
    const std::string what = "round " + std::to_string(round);

    Bytes out = build_frame(flow, true, external, 0, payload);
    if (zero_udp_sum) util::store_be16(&out[14 + 20 + 6], 0);
    auto sent = nat.process(kDefaultContext, 0, 0,
                            packet::PacketBuffer::copy_of(out));
    ASSERT_EQ(sent.size(), 1u) << what;
    const std::uint16_t ext_port = tuple_of(sent[0].frame).src_port;
    EXPECT_EQ(bytes_of(sent[0].frame),
              full_recompute(out, true, external, ext_port))
        << what << " outbound";

    Bytes in = build_frame(flow, false, external, ext_port, payload);
    if (zero_udp_sum) util::store_be16(&in[14 + 20 + 6], 0);
    expect_translation(nat, 1, in,
                       full_recompute(in, false, flow.inside,
                                      flow.inside_port),
                       what + " inbound");
    if (HasFatalFailure()) return;
  }
}

TEST(Nat, RewriteMatchesFullRecomputeAtZeroSums) {
  // Payloads steered so that the output checksum, or the input one, is
  // the one's-complement zero: 0x0000 for TCP and ICMP, 0xFFFF (a
  // computed 0) for UDP.
  Nat nat = make_nat();
  const auto external = *packet::Ipv4Address::parse(kExternalIp);
  int flow_index = 0;
  for (std::uint8_t proto :
       {packet::kIpProtoUdp, packet::kIpProtoTcp, packet::kIpProtoIcmp}) {
    for (bool outbound : {true, false}) {
      for (bool steer_output : {true, false}) {
        FlowSpec flow;
        flow.proto = proto;
        flow.inside.value = 0xC0A80100u + static_cast<std::uint32_t>(
                                              ++flow_index);
        flow.inside_port = static_cast<std::uint16_t>(40000 + flow_index);
        flow.server = *packet::Ipv4Address::parse("198.51.100.7");
        flow.server_port = 443;
        const std::uint16_t ext_port = open_session(nat, flow);
        const packet::Ipv4Address addr = outbound ? external : flow.inside;
        const std::uint16_t port = outbound ? ext_port : flow.inside_port;
        const std::size_t sum_off =
            14 + 20 + (proto == packet::kIpProtoUdp   ? 6
                       : proto == packet::kIpProtoTcp ? 16
                                                      : 2);
        // With a zero payload word W the checksum is C; with W = C the
        // sum becomes -0.
        Bytes payload(10, 0x5A);
        payload[4] = payload[5] = 0;
        const Bytes base =
            build_frame(flow, outbound, external, ext_port, payload);
        const Bytes probe =
            steer_output ? full_recompute(base, outbound, addr, port) : base;
        payload[4] = probe[sum_off];
        payload[5] = probe[sum_off + 1];
        const Bytes in =
            build_frame(flow, outbound, external, ext_port, payload);
        const Bytes want = full_recompute(in, outbound, addr, port);
        const Bytes& landed = steer_output ? want : in;
        const std::uint16_t zero =
            proto == packet::kIpProtoUdp ? 0xFFFF : 0x0000;
        const std::string what = "proto " + std::to_string(proto) +
                                 (outbound ? " out" : " in") +
                                 (steer_output ? " output" : " input");
        ASSERT_EQ(util::load_be16(&landed[sum_off]), zero) << what;
        expect_translation(nat, outbound ? 0 : 1, in, want, what);
      }
    }
  }
}

TEST(Nat, IcmpReplyRewrittenToAllZeroMessageGetsFullSum) {
  // An echo reply translated back to identifier 0, with sequence 0 and a
  // zero payload, is an all-zero message: a full sum gives 0xFFFF, which
  // an RFC 1624 update of the old checksum would give as 0x0000.
  Nat nat = make_nat();
  const auto external = *packet::Ipv4Address::parse(kExternalIp);
  FlowSpec flow;
  flow.proto = packet::kIpProtoIcmp;
  flow.inside = *packet::Ipv4Address::parse("192.168.1.30");
  flow.inside_port = 0;
  flow.server = *packet::Ipv4Address::parse("198.51.100.7");
  const std::uint16_t ext_id = open_session(nat, flow);
  const Bytes zeros(16, 0);
  const Bytes in = build_frame(flow, false, external, ext_id, zeros);
  const Bytes want = full_recompute(in, false, flow.inside, 0);
  ASSERT_EQ(util::load_be16(&want[14 + 20 + 2]), 0xFFFF);
  expect_translation(nat, 1, in, want, "all-zero reply");
}

TEST(Nat, UdpZeroChecksumGetsFullChecksum) {
  Nat nat = make_nat();
  packet::PacketBuffer frame = udp_from("192.168.1.10", 5555, "8.8.8.8", 53);
  frame.unshare();
  util::store_be16(frame.data().data() + 14 + 20 + 6, 0);
  const Bytes in = bytes_of(frame);
  auto outs = nat.process(kDefaultContext, 0, 0, std::move(frame));
  ASSERT_EQ(outs.size(), 1u);
  const auto external = *packet::Ipv4Address::parse(kExternalIp);
  const Bytes want = full_recompute(in, true, external,
                                    tuple_of(outs[0].frame).src_port);
  EXPECT_NE(util::load_be16(&want[14 + 20 + 6]), 0);
  EXPECT_EQ(bytes_of(outs[0].frame), want);
}

// ---------------------------------------------------------------------------
// Header fields the NAT does not translate survive it
// ---------------------------------------------------------------------------

/// Translates `in` outbound and checks that only the source address, the
/// source port and the two checksums changed, to their recomputed values.
void expect_only_translated_bytes_change(const Bytes& in) {
  Nat nat = make_nat();
  auto outs = nat.process(kDefaultContext, 0, 0,
                          packet::PacketBuffer::copy_of(in));
  ASSERT_EQ(outs.size(), 1u);
  const Bytes out = bytes_of(outs[0].frame);
  ASSERT_EQ(out.size(), in.size());
  const std::size_t l3 = 14;
  const std::size_t l4 = l3 + static_cast<std::size_t>(in[l3] & 0x0F) * 4;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const bool translated = (i >= l3 + 10 && i < l3 + 16) ||  // sum, src
                            i == l4 || i == l4 + 1 ||         // sport
                            i == l4 + 6 || i == l4 + 7;       // UDP sum
    if (!translated) {
      EXPECT_EQ(out[i], in[i]) << "byte " << i;
    }
  }
  const auto external = *packet::Ipv4Address::parse(kExternalIp);
  EXPECT_EQ(out, full_recompute(in, true, external,
                                util::load_be16(&out[l4])));
}

Bytes udp_bytes() {
  return bytes_of(udp_from("192.168.1.10", 5555, "8.8.8.8", 53));
}

void fix_ip_checksum(Bytes& frame) {
  const std::size_t ihl = static_cast<std::size_t>(frame[14] & 0x0F) * 4;
  util::store_be16(&frame[14 + 10], 0);
  util::store_be16(&frame[14 + 10],
                   packet::internet_checksum({&frame[14], ihl}));
}

TEST(Nat, KeepsEcnBits) {
  Bytes frame = udp_bytes();
  frame[14 + 1] |= 0x03;  // ECN = CE
  fix_ip_checksum(frame);
  expect_only_translated_bytes_change(frame);
}

TEST(Nat, KeepsMoreFragmentsAndFragmentOffset) {
  Bytes frame = udp_bytes();
  util::store_be16(&frame[14 + 6], 0x2000 | 0x0123);  // MF, offset 0x123
  fix_ip_checksum(frame);
  expect_only_translated_bytes_change(frame);
}

TEST(Nat, KeepsIpOptions) {
  Bytes frame = udp_bytes();
  const std::uint8_t option[4] = {0x94, 0x04, 0x00, 0x00};  // router alert
  frame.insert(frame.begin() + 14 + 20, option, option + 4);
  frame[14] = 0x46;
  util::store_be16(&frame[14 + 2],
                   static_cast<std::uint16_t>(
                       util::load_be16(&frame[14 + 2]) + 4));
  fix_ip_checksum(frame);
  expect_only_translated_bytes_change(frame);
}

// ---------------------------------------------------------------------------
// Malformed IPv4 never leaves untranslated
// ---------------------------------------------------------------------------

TEST(Nat, MalformedIpv4IsDroppedNotForwarded) {
  struct Damage {
    const char* name;
    void (*apply)(Bytes&);
  };
  const Damage damages[] = {
      {"total_length 10", [](Bytes& f) { util::store_be16(&f[14 + 2], 10); }},
      {"ihl 4", [](Bytes& f) { f[14] = 0x44; }},
      {"version 6", [](Bytes& f) { f[14] = 0x65; }},
      {"truncated IPv4 header", [](Bytes& f) { f.resize(14 + 12); }},
      {"truncated UDP header", [](Bytes& f) { f.resize(14 + 20 + 4); }},
  };
  for (const Damage& damage : damages) {
    for (NfPortIndex port : {0u, 1u}) {
      Nat nat = make_nat();
      Bytes frame = udp_bytes();
      damage.apply(frame);
      auto outs = nat.process(kDefaultContext, port, 0,
                              packet::PacketBuffer::copy_of(frame));
      EXPECT_TRUE(outs.empty()) << damage.name << " on port " << port;
      EXPECT_EQ(nat.counters().dropped, 1u) << damage.name;
      EXPECT_EQ(nat.session_count(kDefaultContext), 0u) << damage.name;
    }
  }
}

TEST(Nat, RuntPassesThrough) {
  Nat nat = make_nat();
  const Bytes runt(10, 0x08);
  auto outs = nat.process(kDefaultContext, 0, 0,
                          packet::PacketBuffer::copy_of(runt));
  ASSERT_EQ(outs.size(), 1u);
  EXPECT_EQ(outs[0].port, 1u);
  EXPECT_EQ(bytes_of(outs[0].frame), runt);
}

// ---------------------------------------------------------------------------
// The session table against a reference model: the conntrack semantics as
// two ordered maps (inside tuple -> session, (protocol, external port) ->
// inside tuple) over per-protocol port-pool slices, fed the same random
// bursts. Output bytes, drops, session count and pool usage must agree
// after every burst.
// ---------------------------------------------------------------------------

class ReferenceNat {
 public:
  ReferenceNat(packet::Ipv4Address external, sim::SimTime idle_timeout,
               std::size_t workers)
      : external_(external), idle_timeout_(idle_timeout), workers_(workers) {}

  /// The frame the NAT must emit for `in` arriving on `port` at `now`, or
  /// nullopt when it must drop it.
  std::optional<Bytes> process(NfPortIndex port, sim::SimTime now,
                               const Bytes& in) {
    auto eth = packet::parse_ethernet(in);
    auto parsed =
        packet::extract_five_tuple(std::span(in).subspan(eth->wire_size()));
    EXPECT_TRUE(parsed.is_ok());
    const packet::FiveTuple t = parsed.value();
    if (now - last_sweep_ >= idle_timeout_) {
      for (auto it = by_original_.begin(); it != by_original_.end();) {
        auto next = std::next(it);
        if (stale(it->second, now)) evict(it);
        it = next;
      }
      last_sweep_ = now;
    }
    if (port == 0) {
      auto it = by_original_.find(t);
      if (it != by_original_.end() && stale(it->second, now)) {
        evict(it);
        it = by_original_.end();
      }
      if (it == by_original_.end()) {
        const std::uint16_t external_port = allocate(t.protocol);
        if (external_port == 0) return std::nullopt;
        it = by_original_.emplace(t, Session{external_port, now}).first;
        by_external_[{t.protocol, external_port}] = t;
      }
      it->second.last_seen = now;
      return full_recompute(in, true, external_, it->second.port);
    }
    if (!(t.dst_ip == external_)) return std::nullopt;
    const std::uint16_t key_port =
        t.protocol == packet::kIpProtoIcmp ? t.src_port : t.dst_port;
    auto ext = by_external_.find({t.protocol, key_port});
    if (ext == by_external_.end()) return std::nullopt;
    auto it = by_original_.find(ext->second);
    if (stale(it->second, now)) {
      evict(it);
      return std::nullopt;
    }
    it->second.last_seen = now;
    return full_recompute(in, false, it->first.src_ip, it->first.src_port);
  }

  [[nodiscard]] std::size_t session_count() const {
    return by_original_.size();
  }
  [[nodiscard]] std::size_t ports_in_use() const {
    std::size_t used = 0;
    for (const auto& [protocol, slices] : ports_) {
      for (const PortPool& pool : slices) used += pool.used();
    }
    return used;
  }

 private:
  struct Session {
    std::uint16_t port = 0;
    sim::SimTime last_seen = 0;
  };
  using Sessions = std::map<packet::FiveTuple, Session>;

  bool stale(const Session& session, sim::SimTime now) const {
    return now - session.last_seen > idle_timeout_;
  }

  void evict(Sessions::iterator it) {
    by_external_.erase({it->first.protocol, it->second.port});
    for (PortPool& pool : ports_[it->first.protocol]) {
      pool.release(it->second.port);
    }
    by_original_.erase(it);
  }

  /// The calling slot's slice first, then every slice in order; 0 when
  /// the protocol's whole range is in use.
  std::uint16_t allocate(std::uint8_t protocol) {
    std::vector<PortPool>& slices = ports_[protocol];
    if (slices.empty()) {
      const std::size_t n = workers_ + 1;
      const std::size_t per = PortPool::kPorts / n;
      for (std::size_t i = 0; i < n; ++i) {
        slices.emplace_back(
            static_cast<std::uint16_t>(PortPool::kFirstPort + per * i),
            i + 1 == n ? PortPool::kPorts - per * (n - 1) : per);
      }
    }
    const std::size_t slot =
        std::min(exec::current_worker_slot(), slices.size() - 1);
    if (const std::uint16_t port = slices[slot].allocate(); port != 0) {
      return port;
    }
    for (PortPool& pool : slices) {
      if (const std::uint16_t port = pool.allocate(); port != 0) return port;
    }
    return 0;
  }

  packet::Ipv4Address external_;
  sim::SimTime idle_timeout_;
  std::size_t workers_;
  Sessions by_original_;
  std::map<std::pair<std::uint8_t, std::uint16_t>, packet::FiveTuple>
      by_external_;
  std::map<std::uint8_t, std::vector<PortPool>> ports_;
  sim::SimTime last_sweep_ = 0;
};

/// A Nat and a ReferenceNat configured alike, fed the same bursts.
class SessionTableDiff {
 public:
  SessionTableDiff(sim::SimTime idle_timeout, std::size_t workers)
      : external_(*packet::Ipv4Address::parse(kExternalIp)),
        ref_(external_, idle_timeout, workers) {
    EXPECT_TRUE(nat_.configure(kDefaultContext,
                               {{"external_ip", kExternalIp},
                                {"idle_timeout_ms",
                                 std::to_string(idle_timeout /
                                                sim::kMillisecond)}})
                    .is_ok());
    nat_.set_worker_count(workers);
  }

  /// Sends `frames` as one burst on `port` at `now` through both NATs
  /// and expects the same outputs in the same order, the same drops,
  /// session count and pool usage. Returns the reference's output per
  /// input frame (nullopt = dropped).
  std::vector<std::optional<Bytes>> burst(NfPortIndex port, sim::SimTime now,
                                          const std::vector<Bytes>& frames) {
    std::vector<std::optional<Bytes>> want;
    packet::PacketBurst in;
    for (const Bytes& frame : frames) {
      want.push_back(ref_.process(port, now, frame));
      in.push_back(packet::PacketBuffer::copy_of(frame));
    }
    const std::uint64_t dropped = nat_.counters().dropped;
    auto outs = nat_.process_burst(kDefaultContext, port, now, std::move(in));
    std::size_t next = 0;
    for (std::size_t i = 0; i < want.size(); ++i) {
      if (!want[i]) continue;
      if (next == outs.size()) {
        ADD_FAILURE() << "frame " << i << " at t=" << now << " dropped";
        return want;
      }
      EXPECT_EQ(outs[next].port, port == 0 ? 1u : 0u);
      if (bytes_of(outs[next].frame) != *want[i]) {
        ADD_FAILURE() << "frame " << i << " at t=" << now << " differs";
        return want;
      }
      ++next;
    }
    EXPECT_EQ(next, outs.size()) << "extra output at t=" << now;
    EXPECT_EQ(nat_.counters().dropped - dropped, frames.size() - next);
    EXPECT_EQ(nat_.session_count(kDefaultContext), ref_.session_count());
    EXPECT_EQ(nat_.ports_in_use(kDefaultContext), ref_.ports_in_use());
    return want;
  }

  [[nodiscard]] std::size_t sessions() const {
    return nat_.session_count(kDefaultContext);
  }
  [[nodiscard]] packet::Ipv4Address external() const { return external_; }

 private:
  packet::Ipv4Address external_;
  Nat nat_;
  ReferenceNat ref_;
};

TEST(Nat, SessionTableMatchesTwoMapModelUnderChurn) {
  // More than 20 000 live sessions at the peak, so the indexes double
  // from 64 entries nine times; sweeps then evict thousands at once out
  // of long probe runs. One flow in two is new; the rest are outbound
  // hits, replies (some stale, some to a port reallocated since),
  // unsolicited inbound frames and frames to a foreign address.
  constexpr sim::SimTime kIdle = 1000 * sim::kMillisecond;
  constexpr int kBursts = 6000;
  SessionTableDiff diff(kIdle, 0);
  util::Rng rng(0x5E55);
  const std::uint8_t protos[] = {packet::kIpProtoUdp, packet::kIpProtoTcp,
                                 packet::kIpProtoIcmp};
  std::vector<FlowSpec> flows;
  std::vector<std::uint16_t> last_port;  ///< per flow, 0 = never out
  const Bytes payload(6, 0x42);
  auto pick_flow = [&]() -> std::size_t {
    const std::size_t n = flows.size();
    if (n > 512 && rng.chance(0.5)) return n - 1 - rng.uniform(0, 511);
    return rng.uniform(0, n - 1);
  };
  sim::SimTime now = 0;
  std::size_t peak = 0;
  for (int b = 0; b < kBursts && !HasFailure(); ++b) {
    // ~45 000 frames per idle timeout, so the live set tops 20 000; now
    // and then a jump across the timeout.
    now += static_cast<sim::SimTime>(rng.uniform(0, 2 * kIdle / 2800));
    if (rng.uniform(0, 1500) == 0) {
      now += static_cast<sim::SimTime>(rng.uniform(kIdle / 2, 2 * kIdle));
    }
    const NfPortIndex port = flows.size() < 64 || rng.chance(0.6) ? 0 : 1;
    const std::size_t size = rng.uniform(1, 32);
    std::vector<Bytes> frames;
    std::vector<std::size_t> flow_of;  ///< outbound: which flow
    for (std::size_t i = 0; i < size; ++i) {
      if (port == 0) {
        if (flows.empty() || rng.chance(0.75)) {
          FlowSpec flow;
          flow.proto = protos[rng.uniform(0, 2)];
          flow.inside.value = 0xC0A80000u | static_cast<std::uint32_t>(
                                                rng.uniform(0, 0xFFFF));
          flow.inside_port = static_cast<std::uint16_t>(rng.next_u64());
          flow.server.value = static_cast<std::uint32_t>(rng.next_u64());
          flow.server_port = static_cast<std::uint16_t>(rng.next_u64());
          flows.push_back(flow);
          last_port.push_back(0);
          flow_of.push_back(flows.size() - 1);
        } else {
          flow_of.push_back(pick_flow());
        }
        frames.push_back(
            build_frame(flows[flow_of.back()], true, diff.external(), 0,
                        payload));
        continue;
      }
      const std::uint64_t kind = rng.uniform(0, 9);
      const std::size_t f = pick_flow();
      if (kind < 8 && last_port[f] != 0) {  // reply, maybe stale
        frames.push_back(
            build_frame(flows[f], false, diff.external(), last_port[f],
                        payload));
      } else {  // unsolicited, or to a foreign address
        const auto to = kind == 9 ? *packet::Ipv4Address::parse("203.0.113.9")
                                  : diff.external();
        frames.push_back(build_frame(
            flows[f], false, to,
            static_cast<std::uint16_t>(rng.uniform(1024, 65535)), payload));
      }
    }
    const auto outs = diff.burst(port, now, frames);
    for (std::size_t i = 0; port == 0 && i < outs.size(); ++i) {
      if (outs[i]) {
        last_port[flow_of[i]] =
            tuple_of(packet::PacketBuffer::copy_of(*outs[i])).src_port;
      }
    }
    peak = std::max(peak, diff.sessions());
  }
  EXPECT_GT(peak, 20000u);
}

TEST(Nat, SessionTableMatchesTwoMapModelWhenPoolsRunDry) {
  // 3 workers: 4 slices of 16 128 ports. Slot 2 drains its own slice,
  // steals the others in order, then the UDP range runs out and new UDP
  // flows drop while TCP flows and UDP replies still pass.
  SessionTableDiff diff(30 * sim::kSecond, 3);
  exec::ScopedWorkerSlot slot(2);
  const Bytes payload(6, 0x42);
  auto udp_flow = [](std::uint32_t i) {
    FlowSpec flow;
    flow.inside.value = 0xC0A80000u + (i >> 8);
    flow.inside_port = static_cast<std::uint16_t>(1000 + (i & 0xFF));
    flow.server = *packet::Ipv4Address::parse("198.51.100.7");
    flow.server_port = 53;
    return flow;
  };
  constexpr std::uint32_t kFlows = PortPool::kPorts + 40;
  std::uint16_t first_port = 0;
  for (std::uint32_t i = 0; i < kFlows && !HasFailure(); i += 32) {
    std::vector<Bytes> out;
    for (std::uint32_t j = i; j < std::min(i + 32, kFlows); ++j) {
      out.push_back(build_frame(udp_flow(j), true, diff.external(), 0,
                                payload));
    }
    if (i % 4096 == 0) {
      FlowSpec tcp = udp_flow(i);
      tcp.proto = packet::kIpProtoTcp;
      out.push_back(build_frame(tcp, true, diff.external(), 0, payload));
    }
    const auto sent = diff.burst(0, sim::kMillisecond, out);
    if (i == 0) {
      first_port = tuple_of(packet::PacketBuffer::copy_of(*sent[0])).src_port;
    }
  }
  EXPECT_EQ(first_port, PortPool::kFirstPort + 2 * (PortPool::kPorts / 4));
  EXPECT_EQ(diff.sessions(), PortPool::kPorts + 16);  // UDP + 16 TCP
  // A reply to the first flow still finds its session.
  const auto reply = diff.burst(
      1, 2 * sim::kMillisecond,
      {build_frame(udp_flow(0), false, diff.external(), first_port,
                   payload)});
  EXPECT_TRUE(reply[0].has_value());
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
