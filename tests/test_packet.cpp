// Packet layer tests: buffer headroom mechanics, header codecs, checksums,
// flow-key extraction and the frame builders.
#include <gtest/gtest.h>

#include <algorithm>

#include "packet/buffer.hpp"
#include "packet/builder.hpp"
#include "packet/checksum.hpp"
#include "packet/flow_key.hpp"
#include "packet/headers.hpp"
#include "util/rng.hpp"

namespace nnfv::packet {
namespace {

// ---------------------------------------------------------------------------
// PacketBuffer
// ---------------------------------------------------------------------------

TEST(PacketBuffer, ConstructFromBytes) {
  const std::vector<std::uint8_t> data = {1, 2, 3, 4};
  PacketBuffer buf = PacketBuffer::copy_of(data);
  EXPECT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf[0], 1);
  EXPECT_EQ(buf[3], 4);
  EXPECT_EQ(buf.headroom(), PacketBuffer::kDefaultHeadroom);
}

TEST(PacketBuffer, PushFrontUsesHeadroom) {
  const std::vector<std::uint8_t> data = {9, 9};
  PacketBuffer buf = PacketBuffer::copy_of(data);
  auto hdr = buf.push_front(4);
  EXPECT_EQ(hdr.size(), 4u);
  hdr[0] = 1;
  hdr[3] = 4;
  EXPECT_EQ(buf.size(), 6u);
  EXPECT_EQ(buf[0], 1);
  EXPECT_EQ(buf[4], 9);
  EXPECT_EQ(buf.headroom(), PacketBuffer::kDefaultHeadroom - 4);
}

TEST(PacketBuffer, PushFrontBeyondHeadroomReallocates) {
  const std::vector<std::uint8_t> data = {7};
  PacketBuffer buf =
      PacketBuffer::copy_of(data, /*headroom=*/2);
  buf.push_front(10);  // exceeds the 2-byte headroom
  EXPECT_EQ(buf.size(), 11u);
  EXPECT_EQ(buf[10], 7);  // payload intact
}

TEST(PacketBuffer, PullFrontDecapsulates) {
  const std::vector<std::uint8_t> data = {1, 2, 3, 4, 5};
  PacketBuffer buf = PacketBuffer::copy_of(data);
  buf.pull_front(2);
  EXPECT_EQ(buf.size(), 3u);
  EXPECT_EQ(buf[0], 3);
  // Headroom regained: a later push_front reuses it.
  auto hdr = buf.push_front(2);
  hdr[0] = 0xAA;
  EXPECT_EQ(buf.size(), 5u);
  EXPECT_EQ(buf[0], 0xAA);
}

TEST(PacketBuffer, PushBackAndTrim) {
  PacketBuffer buf;
  EXPECT_TRUE(buf.empty());
  auto tail = buf.push_back(3);
  tail[0] = 1;
  tail[2] = 3;
  EXPECT_EQ(buf.size(), 3u);
  buf.trim(1);
  EXPECT_EQ(buf.size(), 1u);
  EXPECT_EQ(buf[0], 1);
}

// ---------------------------------------------------------------------------
// Addresses
// ---------------------------------------------------------------------------

TEST(MacAddress, ParseAndFormatRoundTrip) {
  auto mac = MacAddress::parse("02:00:5e:10:00:ff");
  ASSERT_TRUE(mac.has_value());
  EXPECT_EQ(mac->to_string(), "02:00:5e:10:00:ff");
}

TEST(MacAddress, ParseRejectsGarbage) {
  EXPECT_FALSE(MacAddress::parse("02:00:5e:10:00").has_value());
  EXPECT_FALSE(MacAddress::parse("02:00:5e:10:00:zz").has_value());
  EXPECT_FALSE(MacAddress::parse("0200:5e:10:00:ff:aa").has_value());
  EXPECT_FALSE(MacAddress::parse("").has_value());
}

TEST(MacAddress, Properties) {
  EXPECT_TRUE(MacAddress::broadcast().is_broadcast());
  EXPECT_TRUE(MacAddress::broadcast().is_multicast());
  auto unicast = MacAddress::from_id(7);
  EXPECT_FALSE(unicast.is_broadcast());
  EXPECT_FALSE(unicast.is_multicast());
  EXPECT_EQ(unicast, MacAddress::from_id(7));
  EXPECT_NE(unicast, MacAddress::from_id(8));
}

TEST(Ipv4Address, ParseAndFormat) {
  auto addr = Ipv4Address::parse("192.168.1.7");
  ASSERT_TRUE(addr.has_value());
  EXPECT_EQ(addr->value, 0xC0A80107u);
  EXPECT_EQ(addr->to_string(), "192.168.1.7");
  EXPECT_EQ(Ipv4Address{0}.to_string(), "0.0.0.0");
  EXPECT_EQ(Ipv4Address{0xFFFFFFFF}.to_string(), "255.255.255.255");
}

TEST(Ipv4Address, ParseRejectsGarbage) {
  EXPECT_FALSE(Ipv4Address::parse("1.2.3").has_value());
  EXPECT_FALSE(Ipv4Address::parse("1.2.3.4.5").has_value());
  EXPECT_FALSE(Ipv4Address::parse("1.2.3.256").has_value());
  EXPECT_FALSE(Ipv4Address::parse("1.2.3.x").has_value());
  EXPECT_FALSE(Ipv4Address::parse("").has_value());
}

// ---------------------------------------------------------------------------
// Ethernet / VLAN
// ---------------------------------------------------------------------------

TEST(Ethernet, UntaggedRoundTrip) {
  EthernetHeader hdr;
  hdr.dst = MacAddress::from_id(1);
  hdr.src = MacAddress::from_id(2);
  hdr.ether_type = kEtherTypeIpv4;
  EXPECT_EQ(hdr.wire_size(), kEthernetHeaderSize);
  std::vector<std::uint8_t> wire(hdr.wire_size());
  write_ethernet(hdr, wire);
  auto parsed = parse_ethernet(wire);
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed->dst, hdr.dst);
  EXPECT_EQ(parsed->src, hdr.src);
  EXPECT_EQ(parsed->ether_type, kEtherTypeIpv4);
  EXPECT_FALSE(parsed->vlan.has_value());
}

TEST(Ethernet, TaggedRoundTrip) {
  EthernetHeader hdr;
  hdr.dst = MacAddress::from_id(1);
  hdr.src = MacAddress::from_id(2);
  hdr.ether_type = kEtherTypeIpv4;
  hdr.vlan = 3001;
  hdr.pcp = 5;
  EXPECT_EQ(hdr.wire_size(), kEthernetHeaderSize + kVlanTagSize);
  std::vector<std::uint8_t> wire(hdr.wire_size());
  write_ethernet(hdr, wire);
  auto parsed = parse_ethernet(wire);
  ASSERT_TRUE(parsed.is_ok());
  ASSERT_TRUE(parsed->vlan.has_value());
  EXPECT_EQ(*parsed->vlan, 3001);
  EXPECT_EQ(parsed->pcp, 5);
  EXPECT_EQ(parsed->ether_type, kEtherTypeIpv4);
}

TEST(Ethernet, RejectsTruncated) {
  std::vector<std::uint8_t> tiny(13);
  EXPECT_FALSE(parse_ethernet(tiny).is_ok());
  // Tagged frame cut before the inner ethertype.
  std::vector<std::uint8_t> cut(16, 0);
  cut[12] = 0x81;
  cut[13] = 0x00;
  EXPECT_FALSE(parse_ethernet(cut).is_ok());
}

// ---------------------------------------------------------------------------
// IPv4
// ---------------------------------------------------------------------------

TEST(Ipv4, RoundTripWithChecksum) {
  Ipv4Header hdr;
  hdr.total_length = 40;
  hdr.identification = 0x1234;
  hdr.ttl = 61;
  hdr.protocol = kIpProtoUdp;
  hdr.src = *Ipv4Address::parse("10.0.0.1");
  hdr.dst = *Ipv4Address::parse("10.0.0.2");
  std::vector<std::uint8_t> wire(hdr.header_size());
  write_ipv4(hdr, wire);
  // Checksumming the written header (checksum field included) yields 0.
  EXPECT_EQ(internet_checksum(wire), 0);
  auto parsed = parse_ipv4(wire);
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed->total_length, 40);
  EXPECT_EQ(parsed->ttl, 61);
  EXPECT_EQ(parsed->protocol, kIpProtoUdp);
  EXPECT_EQ(parsed->src, hdr.src);
  EXPECT_EQ(parsed->dst, hdr.dst);
  EXPECT_TRUE(parsed->dont_fragment);
}

TEST(Ipv4, RejectsMalformed) {
  std::vector<std::uint8_t> wire(20, 0);
  wire[0] = 0x60;  // version 6
  EXPECT_FALSE(parse_ipv4(wire).is_ok());
  wire[0] = 0x43;  // IHL 3 (< 5)
  EXPECT_FALSE(parse_ipv4(wire).is_ok());
  wire[0] = 0x4F;  // IHL 15 > buffer
  EXPECT_FALSE(parse_ipv4(wire).is_ok());
  EXPECT_FALSE(parse_ipv4({wire.data(), 10}).is_ok());
  // total_length smaller than header.
  wire[0] = 0x45;
  wire[2] = 0;
  wire[3] = 10;
  EXPECT_FALSE(parse_ipv4(wire).is_ok());
}

// ---------------------------------------------------------------------------
// Checksums
// ---------------------------------------------------------------------------

TEST(Checksum, Rfc1071Example) {
  // Classic example: verifying a checksummed buffer gives zero.
  const std::vector<std::uint8_t> data = {0x45, 0x00, 0x00, 0x3c, 0x1c,
                                          0x46, 0x40, 0x00, 0x40, 0x06};
  const std::uint16_t sum = internet_checksum(data);
  std::vector<std::uint8_t> with_sum = data;
  with_sum.push_back(static_cast<std::uint8_t>(sum >> 8));
  with_sum.push_back(static_cast<std::uint8_t>(sum & 0xFF));
  EXPECT_EQ(internet_checksum(with_sum), 0);
}

TEST(Checksum, OddLengthPadsWithZero) {
  const std::vector<std::uint8_t> odd = {0x01, 0x02, 0x03};
  const std::vector<std::uint8_t> even = {0x01, 0x02, 0x03, 0x00};
  EXPECT_EQ(internet_checksum(odd), internet_checksum(even));
}

TEST(Checksum, UdpFrameVerifies) {
  // A frame produced by the builder must carry a valid UDP checksum:
  // recomputing over the received segment (skipping the checksum field)
  // reproduces the stored value.
  util::Rng rng(1);
  auto payload = rng.bytes(100);
  UdpFrameSpec spec;
  spec.eth_src = MacAddress::from_id(1);
  spec.eth_dst = MacAddress::from_id(2);
  spec.ip_src = *Ipv4Address::parse("10.0.0.1");
  spec.ip_dst = *Ipv4Address::parse("10.0.0.2");
  spec.src_port = 1111;
  spec.dst_port = 2222;
  spec.payload = payload;
  PacketBuffer frame = build_udp_frame(spec);

  auto eth = parse_ethernet(frame.data());
  ASSERT_TRUE(eth.is_ok());
  auto ip = parse_ipv4(frame.data().subspan(eth->wire_size()));
  ASSERT_TRUE(ip.is_ok());
  const std::size_t l4_off = eth->wire_size() + ip->header_size();
  const std::size_t l4_len = ip->total_length - ip->header_size();
  auto udp = parse_udp(frame.data().subspan(l4_off));
  ASSERT_TRUE(udp.is_ok());
  const std::uint16_t expected =
      l4_checksum(ip->src, ip->dst, kIpProtoUdp,
                  frame.data().subspan(l4_off, l4_len), 6);
  EXPECT_EQ(udp->checksum, expected);
}

// Differential tests of the word-wise checksum kernel: the byte-wise sum it
// replaced is kept here as the oracle, and every public result must be
// bit-identical to it.

std::uint32_t bytewise_sum(std::span<const std::uint8_t> data,
                           std::size_t skip_offset, std::size_t skip_len) {
  std::uint32_t sum = 0;
  const std::size_t n = data.size();
  for (std::size_t i = 0; i + 1 < n + 1; i += 2) {
    std::uint16_t word;
    const bool skip_hi = i >= skip_offset && i < skip_offset + skip_len;
    const std::uint8_t hi = skip_hi ? 0 : data[i];
    if (i + 1 < n) {
      const bool skip_lo =
          (i + 1) >= skip_offset && (i + 1) < skip_offset + skip_len;
      const std::uint8_t lo = skip_lo ? 0 : data[i + 1];
      word = static_cast<std::uint16_t>((hi << 8) | lo);
    } else {
      word = static_cast<std::uint16_t>(hi << 8);
    }
    sum += word;
  }
  return sum;
}

std::uint16_t bytewise_fold(std::uint32_t sum) {
  while ((sum >> 16) != 0) sum = (sum & 0xFFFF) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum & 0xFFFF);
}

std::uint16_t bytewise_internet_checksum(std::span<const std::uint8_t> data) {
  return bytewise_fold(bytewise_sum(data, data.size(), 0));
}

std::uint16_t bytewise_l4_checksum(Ipv4Address src, Ipv4Address dst,
                                   std::uint8_t protocol,
                                   std::span<const std::uint8_t> segment,
                                   std::size_t checksum_offset) {
  std::uint32_t sum = (src.value >> 16) + (src.value & 0xFFFF) +
                      (dst.value >> 16) + (dst.value & 0xFFFF) + protocol +
                      static_cast<std::uint32_t>(segment.size());
  sum += bytewise_sum(segment, checksum_offset, 2);
  std::uint16_t result = bytewise_fold(sum);
  if (result == 0 && protocol == kIpProtoUdp) result = 0xFFFF;
  return result;
}

/// `n` bytes from `rng`, drawn so that runs of 0x00 and 0xFF (the bytes
/// that make one's-complement carries and zero sums) are common.
std::vector<std::uint8_t> checksum_data(util::Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> data(n);
  const std::uint64_t style = rng.uniform(0, 3);
  for (std::uint8_t& byte : data) {
    const std::uint64_t pick = rng.uniform(0, 3);
    if (style == 0 || pick == 0) {
      byte = static_cast<std::uint8_t>(rng.next_u64());
    } else {
      byte = style == 1 || pick == 1 ? 0x00 : 0xFF;
    }
  }
  return data;
}

TEST(Checksum, WordKernelMatchesBytewiseAtEveryLength) {
  util::Rng rng(0xC5C5);
  for (std::size_t n = 0; n <= 1500; ++n) {
    const std::vector<std::uint8_t> data = checksum_data(rng, n);
    ASSERT_EQ(internet_checksum(data), bytewise_internet_checksum(data))
        << n << " B";
    // Unaligned starts, so the native loads straddle word boundaries.
    const std::size_t shift = n % 8;
    const std::span<const std::uint8_t> tail(data.data() + shift, n - shift);
    ASSERT_EQ(internet_checksum(tail), bytewise_internet_checksum(tail))
        << n << " B from +" << shift;
  }
}

TEST(Checksum, WordKernelMatchesBytewiseAtEverySkipOffset) {
  util::Rng rng(0x5C1F);
  const Ipv4Address src{0x0A000001};
  const Ipv4Address dst{0xC0A80102};
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 72; ++n) lengths.push_back(n);
  for (std::size_t n : {255u, 1407u, 1408u, 1499u, 1500u}) {
    lengths.push_back(n);
  }
  for (std::size_t n : lengths) {
    const std::vector<std::uint8_t> data = checksum_data(rng, n);
    for (std::size_t skip = 0; skip <= n + 2; ++skip) {
      for (std::uint8_t proto : {kIpProtoUdp, kIpProtoTcp}) {
        ASSERT_EQ(l4_checksum(src, dst, proto, data, skip),
                  bytewise_l4_checksum(src, dst, proto, data, skip))
            << n << " B, skip " << skip << ", proto " << int{proto};
      }
    }
  }
}

TEST(Checksum, WordKernelMatchesBytewiseOnZeroSums) {
  // All-zero data sums to +0, and data summing to a multiple of 0xFFFF
  // to -0; the kernel must keep the two apart exactly as the oracle does.
  for (std::size_t n : {0u, 1u, 2u, 7u, 8u, 9u, 64u, 1407u, 1408u}) {
    const std::vector<std::uint8_t> zeros(n, 0x00);
    const std::vector<std::uint8_t> ones(n, 0xFF);
    EXPECT_EQ(internet_checksum(zeros), bytewise_internet_checksum(zeros));
    EXPECT_EQ(internet_checksum(ones), bytewise_internet_checksum(ones));
    for (std::size_t skip = 0; skip <= n; ++skip) {
      // Only the skipped field non-zero: the counted bytes sum to +0.
      std::vector<std::uint8_t> field_only(n, 0x00);
      for (std::size_t k = skip; k < std::min(n, skip + 2); ++k) {
        field_only[k] = 0xAB;
      }
      EXPECT_EQ(l4_checksum({}, {}, 0, field_only, skip),
                bytewise_l4_checksum({}, {}, 0, field_only, skip))
          << n << " B, skip " << skip;
    }
  }
  const std::vector<std::uint8_t> minus_zero = {0x12, 0x34, 0xED, 0xCB};
  EXPECT_EQ(internet_checksum(minus_zero),
            bytewise_internet_checksum(minus_zero));
  EXPECT_EQ(internet_checksum(minus_zero), 0x0000);
}

TEST(Checksum, WordKernelMatchesBytewiseOnRandomData) {
  util::Rng rng(0xDA7A);
  for (int round = 0; round < 20000; ++round) {
    const std::size_t n = rng.uniform(0, 200);
    const std::vector<std::uint8_t> data = checksum_data(rng, n);
    const std::size_t skip = rng.uniform(0, n + 1);
    const Ipv4Address src{static_cast<std::uint32_t>(rng.next_u64())};
    const Ipv4Address dst{static_cast<std::uint32_t>(rng.next_u64())};
    const auto proto = static_cast<std::uint8_t>(rng.uniform(0, 255));
    ASSERT_EQ(internet_checksum(data), bytewise_internet_checksum(data));
    ASSERT_EQ(l4_checksum(src, dst, proto, data, skip),
              bytewise_l4_checksum(src, dst, proto, data, skip))
        << n << " B, skip " << skip << ", proto " << int{proto};
  }
}

TEST(Checksum, IncrementalUpdateMatchesFullRecompute) {
  // A stored checksum updated for a changed 32-bit field equals a full
  // recompute over the changed data, whenever that data is not all zero
  // (the only case where a full sum gives 0xFFFF).
  util::Rng rng(0x1624);
  int landed_zero = 0;
  for (int round = 0; round < 50000; ++round) {
    const std::size_t words = rng.uniform(3, 24);
    std::vector<std::uint8_t> data = checksum_data(rng, 2 * words);
    const std::size_t at = 2 * rng.uniform(0, words - 2);
    const std::uint32_t old_value =
        (std::uint32_t{data[at]} << 24) | (data[at + 1] << 16) |
        (data[at + 2] << 8) | data[at + 3];
    const std::uint16_t before = internet_checksum(data);
    auto new_value = static_cast<std::uint32_t>(rng.next_u64());
    if (round % 4 == 0) {
      // Steer the result onto 0x0000: pick the new field so the changed
      // data sums to -0.
      std::vector<std::uint8_t> probe = data;
      std::fill_n(probe.begin() + static_cast<std::ptrdiff_t>(at), 4, 0);
      new_value = internet_checksum(probe);
    }
    for (std::size_t b = 0; b < 4; ++b) {
      data[at + b] = static_cast<std::uint8_t>(new_value >> (8 * (3 - b)));
    }
    const bool all_zero =
        std::all_of(data.begin(), data.end(), [](auto v) { return v == 0; });
    if (all_zero) continue;
    const std::uint16_t full = internet_checksum(data);
    ASSERT_EQ(checksum_update32(before, old_value, new_value), full)
        << "round " << round;
    landed_zero += full == 0;
  }
  EXPECT_GT(landed_zero, 1000);

  // -0 in, field of all ones replaced by zeros: the one's-complement sum
  // stays -0, so the checksum is 0x0000. A plain ~HC + ~m + m' adds up to
  // 0 here, which would fold to +0 and give 0xFFFF.
  EXPECT_EQ(checksum_update32(0xFFFF, 0xFFFFFFFF, 0), 0x0000);
}

// ---------------------------------------------------------------------------
// Flow keys
// ---------------------------------------------------------------------------

PacketBuffer make_udp(std::uint16_t sport, std::uint16_t dport) {
  UdpFrameSpec spec;
  spec.eth_src = MacAddress::from_id(1);
  spec.eth_dst = MacAddress::from_id(2);
  spec.ip_src = *Ipv4Address::parse("10.1.0.1");
  spec.ip_dst = *Ipv4Address::parse("10.2.0.1");
  spec.src_port = sport;
  spec.dst_port = dport;
  static const std::vector<std::uint8_t> payload(32, 0xAB);
  spec.payload = payload;
  return build_udp_frame(spec);
}

TEST(FlowKey, ExtractsUdpFields) {
  PacketBuffer frame = make_udp(1234, 5678);
  auto fields = extract_flow_fields(frame.data());
  ASSERT_TRUE(fields.is_ok());
  EXPECT_EQ(fields->eth.ether_type, kEtherTypeIpv4);
  ASSERT_TRUE(fields->ipv4.has_value());
  EXPECT_EQ(fields->ipv4->protocol, kIpProtoUdp);
  ASSERT_TRUE(fields->l4_src.has_value());
  EXPECT_EQ(*fields->l4_src, 1234);
  EXPECT_EQ(*fields->l4_dst, 5678);
}

TEST(FlowKey, FiveTupleReverse) {
  PacketBuffer frame = make_udp(1000, 2000);
  auto eth = parse_ethernet(frame.data());
  auto tuple = extract_five_tuple(frame.data().subspan(eth->wire_size()));
  ASSERT_TRUE(tuple.is_ok());
  const FiveTuple reversed = tuple->reversed();
  EXPECT_EQ(reversed.src_ip, tuple->dst_ip);
  EXPECT_EQ(reversed.src_port, 2000);
  EXPECT_EQ(reversed.dst_port, 1000);
  EXPECT_EQ(reversed.reversed(), tuple.value());
}

TEST(FlowKey, HashSpreadsAndMatchesEquality) {
  FiveTupleHash hasher;
  PacketBuffer a = make_udp(1, 2);
  PacketBuffer b = make_udp(1, 2);
  auto ta = extract_five_tuple(a.data().subspan(14));
  auto tb = extract_five_tuple(b.data().subspan(14));
  EXPECT_EQ(hasher(ta.value()), hasher(tb.value()));
  auto tc = ta.value();
  tc.src_port = 3;
  EXPECT_NE(hasher(ta.value()), hasher(tc));
}

TEST(FlowKey, TcpAndIcmpExtraction) {
  TcpFrameSpec tcp_spec;
  tcp_spec.eth_src = MacAddress::from_id(1);
  tcp_spec.eth_dst = MacAddress::from_id(2);
  tcp_spec.ip_src = *Ipv4Address::parse("1.1.1.1");
  tcp_spec.ip_dst = *Ipv4Address::parse("2.2.2.2");
  tcp_spec.src_port = 443;
  tcp_spec.dst_port = 55000;
  PacketBuffer tcp_frame = build_tcp_frame(tcp_spec);
  auto tcp_tuple = extract_five_tuple(tcp_frame.data().subspan(14));
  ASSERT_TRUE(tcp_tuple.is_ok());
  EXPECT_EQ(tcp_tuple->protocol, kIpProtoTcp);
  EXPECT_EQ(tcp_tuple->src_port, 443);

  IcmpEchoSpec icmp_spec;
  icmp_spec.eth_src = MacAddress::from_id(1);
  icmp_spec.eth_dst = MacAddress::from_id(2);
  icmp_spec.ip_src = *Ipv4Address::parse("1.1.1.1");
  icmp_spec.ip_dst = *Ipv4Address::parse("2.2.2.2");
  icmp_spec.identifier = 777;
  PacketBuffer icmp_frame = build_icmp_echo(icmp_spec);
  auto icmp_tuple = extract_five_tuple(icmp_frame.data().subspan(14));
  ASSERT_TRUE(icmp_tuple.is_ok());
  EXPECT_EQ(icmp_tuple->protocol, kIpProtoIcmp);
  EXPECT_EQ(icmp_tuple->src_port, 777);  // identifier in src_port slot
}

// ---------------------------------------------------------------------------
// VLAN rewriting + checksum fixing
// ---------------------------------------------------------------------------

TEST(SetVlan, PushSetPopSequence) {
  PacketBuffer frame = make_udp(1, 2);
  const std::size_t untagged = frame.size();

  set_vlan(frame, 100);
  EXPECT_EQ(frame.size(), untagged + kVlanTagSize);
  auto tagged = parse_ethernet(frame.data());
  ASSERT_TRUE(tagged.is_ok());
  EXPECT_EQ(tagged->vlan.value_or(0), 100);

  set_vlan(frame, 200);  // rewrite in place, no growth
  EXPECT_EQ(frame.size(), untagged + kVlanTagSize);
  EXPECT_EQ(parse_ethernet(frame.data())->vlan.value_or(0), 200);

  set_vlan(frame, std::nullopt);
  EXPECT_EQ(frame.size(), untagged);
  EXPECT_FALSE(parse_ethernet(frame.data())->vlan.has_value());
}

TEST(SetVlan, TagDoesNotCorruptPayload) {
  PacketBuffer frame = make_udp(7, 8);
  const std::vector<std::uint8_t> before(frame.data().begin() + 14,
                                         frame.data().end());
  set_vlan(frame, 300);
  set_vlan(frame, std::nullopt);
  const std::vector<std::uint8_t> after(frame.data().begin() + 14,
                                        frame.data().end());
  EXPECT_EQ(before, after);
}

TEST(FixChecksums, RepairsAfterRewrite) {
  PacketBuffer frame = make_udp(1234, 80);
  // Corrupt the destination address directly (as NAT would).
  auto eth = parse_ethernet(frame.data());
  auto ip = parse_ipv4(frame.data().subspan(eth->wire_size()));
  Ipv4Header rewritten = ip.value();
  rewritten.dst = *Ipv4Address::parse("99.99.99.99");
  write_ipv4(rewritten, frame.data().subspan(eth->wire_size(),
                                             rewritten.header_size()));
  fix_checksums(frame);

  auto ip2 = parse_ipv4(frame.data().subspan(eth->wire_size()));
  ASSERT_TRUE(ip2.is_ok());
  // IP header checksum valid:
  EXPECT_EQ(internet_checksum(frame.data().subspan(eth->wire_size(),
                                                   ip2->header_size())),
            0);
  // UDP checksum valid:
  const std::size_t l4_off = eth->wire_size() + ip2->header_size();
  const std::size_t l4_len = ip2->total_length - ip2->header_size();
  auto udp = parse_udp(frame.data().subspan(l4_off));
  const std::uint16_t expected =
      l4_checksum(ip2->src, ip2->dst, kIpProtoUdp,
                  frame.data().subspan(l4_off, l4_len), 6);
  EXPECT_EQ(udp->checksum, expected);
}

// ---------------------------------------------------------------------------
// ESP header
// ---------------------------------------------------------------------------

TEST(Esp, RoundTrip) {
  EspHeader hdr{0xDEADBEEF, 42};
  std::vector<std::uint8_t> wire(kEspHeaderSize);
  write_esp(hdr, wire);
  auto parsed = parse_esp(wire);
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed->spi, 0xDEADBEEFu);
  EXPECT_EQ(parsed->sequence, 42u);
  EXPECT_FALSE(parse_esp({wire.data(), 7}).is_ok());
}

// ---------------------------------------------------------------------------
// Builders
// ---------------------------------------------------------------------------

TEST(Builder, UdpFrameLengthsConsistent) {
  util::Rng rng(2);
  for (std::size_t payload_size : {0u, 1u, 100u, 1408u}) {
    auto payload = rng.bytes(payload_size);
    UdpFrameSpec spec;
    spec.ip_src = *Ipv4Address::parse("10.0.0.1");
    spec.ip_dst = *Ipv4Address::parse("10.0.0.2");
    spec.payload = payload;
    PacketBuffer frame = build_udp_frame(spec);
    EXPECT_EQ(frame.size(), 14 + 20 + 8 + payload_size);
    auto ip = parse_ipv4(frame.data().subspan(14));
    EXPECT_EQ(ip->total_length, 28 + payload_size);
    auto udp = parse_udp(frame.data().subspan(34));
    EXPECT_EQ(udp->length, 8 + payload_size);
  }
}

TEST(Builder, VlanTaggedUdpFrame) {
  UdpFrameSpec spec;
  spec.vlan = 42;
  spec.ip_src = *Ipv4Address::parse("10.0.0.1");
  spec.ip_dst = *Ipv4Address::parse("10.0.0.2");
  PacketBuffer frame = build_udp_frame(spec);
  auto eth = parse_ethernet(frame.data());
  ASSERT_TRUE(eth.is_ok());
  EXPECT_EQ(eth->vlan.value_or(0), 42);
  EXPECT_EQ(frame.size(), 18u + 28u);
}

TEST(Builder, IcmpChecksumVerifies) {
  IcmpEchoSpec spec;
  spec.ip_src = *Ipv4Address::parse("10.0.0.1");
  spec.ip_dst = *Ipv4Address::parse("10.0.0.2");
  spec.identifier = 1;
  spec.sequence = 2;
  PacketBuffer frame = build_icmp_echo(spec);
  auto ip = parse_ipv4(frame.data().subspan(14));
  const std::size_t l4_off = 14 + ip->header_size();
  const std::size_t l4_len = ip->total_length - ip->header_size();
  EXPECT_EQ(internet_checksum(frame.data().subspan(l4_off, l4_len)), 0);
}

}  // namespace
}  // namespace nnfv::packet
