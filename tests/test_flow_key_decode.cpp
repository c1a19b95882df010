// Differential tests of the flat flow-key decoder: over a corpus of well-
// formed and damaged frames, packet::decode_flow_key must agree with the
// extract_flow_fields + FlowKeyView::from_context pipeline it replaces on
// the datapath, and the priority split and RSS hash built on it must give
// the values the FlowFields-based rules gave. The same corpus checks the
// NFs' flat decode, packet::decode_ipv4 / decode_ipv4_tuple, against the
// parse_ethernet + parse_ipv4 + extract_five_tuple chain it replaces.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "exec/priority.hpp"
#include "exec/rss.hpp"
#include "packet/builder.hpp"
#include "switch/flow_classifier.hpp"
#include "util/byteorder.hpp"
#include "util/rng.hpp"

namespace nnfv {
namespace {

using Bytes = std::vector<std::uint8_t>;

// ---------------------------------------------------------------------------
// Oracles: the FlowFields-based priority rule and RSS hash as they were
// before both moved onto the decoded key.
// ---------------------------------------------------------------------------

exec::FramePriority oracle_priority(const packet::FlowFields& fields,
                                    std::span<const std::uint8_t> frame) {
  auto dhcp = [](std::uint16_t port) { return port == 67 || port == 68; };
  if (fields.eth.ether_type == packet::kEtherTypeArp) {
    return exec::FramePriority::kControl;
  }
  if (!fields.ipv4) return exec::FramePriority::kBulk;
  if (fields.ipv4->protocol == packet::kIpProtoUdp) {
    return (fields.l4_src && dhcp(*fields.l4_src)) ||
                   (fields.l4_dst && dhcp(*fields.l4_dst))
               ? exec::FramePriority::kControl
               : exec::FramePriority::kBulk;
  }
  if (fields.ipv4->protocol == packet::kIpProtoEsp) {
    const auto& registry = exec::ControlSpiRegistry::instance();
    const std::size_t l3_off = fields.eth.wire_size();
    if (frame.size() > l3_off && !registry.empty()) {
      auto l3 = frame.subspan(l3_off);
      if (l3.size() >= fields.ipv4->header_size()) {
        auto esp = packet::parse_esp(l3.subspan(fields.ipv4->header_size()));
        if (esp && registry.contains(esp->spi)) {
          return exec::FramePriority::kControl;
        }
      }
    }
  }
  return exec::FramePriority::kBulk;
}

std::uint64_t oracle_rss(const packet::FlowFields& fields) {
  if (fields.ipv4.has_value()) {
    std::uint64_t key =
        (static_cast<std::uint64_t>(fields.ipv4->src.value) << 32) |
        fields.ipv4->dst.value;
    std::uint64_t ports = fields.ipv4->protocol;
    if (fields.l4_src.has_value()) ports = (ports << 16) | *fields.l4_src;
    if (fields.l4_dst.has_value()) ports = (ports << 16) | *fields.l4_dst;
    return exec::mix64(key ^ exec::mix64(ports));
  }
  std::uint64_t l2 = fields.eth.ether_type;
  for (std::uint8_t b : fields.eth.src.bytes) l2 = (l2 << 8) | b;
  std::uint64_t l2b = 0;
  for (std::uint8_t b : fields.eth.dst.bytes) l2b = (l2b << 8) | b;
  return exec::mix64(l2 ^ exec::mix64(l2b));
}

/// Checks one frame against every oracle. The frame is copied into an
/// allocation of exactly its size, so a decoder read past its end is an
/// ASan report.
void expect_agrees(const Bytes& frame, const std::string& what) {
  SCOPED_TRACE(what + " (" + std::to_string(frame.size()) + " B)");
  const Bytes exact(frame.begin(), frame.end());
  const std::span<const std::uint8_t> bytes(exact);
  auto fields = packet::extract_flow_fields(bytes);
  nfswitch::FlowKeyView key;
  key.in_port = 7;
  const bool decoded = packet::decode_flow_key(bytes, key);
  ASSERT_EQ(decoded, fields.is_ok());
  if (decoded) {
    const auto want =
        nfswitch::FlowKeyView::from_context({7, fields.value()});
    EXPECT_TRUE(key == want);
    EXPECT_EQ(key.hash(), want.hash());
    EXPECT_EQ(exec::classify_priority(key, bytes),
              oracle_priority(fields.value(), bytes));
  }
  EXPECT_EQ(exec::classify_priority(bytes),
            decoded ? oracle_priority(fields.value(), bytes)
                    : exec::FramePriority::kBulk);
  EXPECT_EQ(exec::rss_hash_frame(bytes),
            decoded ? oracle_rss(fields.value()) : 0u);
}

/// Checks decode_ipv4 and decode_ipv4_tuple on one frame against the
/// parse chain the NFs used before, in an exactly-sized allocation.
void expect_tuple_agrees(const Bytes& frame, const std::string& what) {
  SCOPED_TRACE(what + " (" + std::to_string(frame.size()) + " B)");
  const Bytes exact(frame.begin(), frame.end());
  const std::span<const std::uint8_t> bytes(exact);
  packet::Ipv4Tuple l3;
  packet::Ipv4Tuple full;
  const packet::Ipv4Decode l3_verdict = packet::decode_ipv4(bytes, l3);
  const packet::Ipv4Decode verdict = packet::decode_ipv4_tuple(bytes, full);

  auto eth = packet::parse_ethernet(bytes);
  if (!eth) {
    EXPECT_EQ(l3_verdict, packet::Ipv4Decode::kRunt);
    EXPECT_EQ(verdict, packet::Ipv4Decode::kRunt);
    return;
  }
  if (eth->ether_type != packet::kEtherTypeIpv4) {
    EXPECT_EQ(l3_verdict, packet::Ipv4Decode::kNotIpv4);
    EXPECT_EQ(verdict, packet::Ipv4Decode::kNotIpv4);
    return;
  }
  const auto ip_packet = bytes.subspan(eth->wire_size());
  auto ip = packet::parse_ipv4(ip_packet);
  if (!ip) {
    EXPECT_EQ(l3_verdict, packet::Ipv4Decode::kMalformed);
    EXPECT_EQ(verdict, packet::Ipv4Decode::kMalformed);
    return;
  }
  ASSERT_EQ(l3_verdict, packet::Ipv4Decode::kOk);
  EXPECT_EQ(l3.l3_off, eth->wire_size());
  EXPECT_EQ(l3.header_size, ip->header_size());
  EXPECT_EQ(l3.total_length, ip->total_length);
  const packet::FiveTuple addresses{ip->src, ip->dst, ip->protocol, 0, 0};
  EXPECT_EQ(l3.tuple, addresses);

  auto tuple = packet::extract_five_tuple(ip_packet);
  if (!tuple) {
    EXPECT_EQ(verdict, packet::Ipv4Decode::kMalformed);
    return;
  }
  ASSERT_EQ(verdict, packet::Ipv4Decode::kOk);
  EXPECT_EQ(full.l3_off, l3.l3_off);
  EXPECT_EQ(full.header_size, l3.header_size);
  EXPECT_EQ(full.total_length, l3.total_length);
  EXPECT_EQ(full.tuple, tuple.value());
}

// ---------------------------------------------------------------------------
// Corpus
// ---------------------------------------------------------------------------

constexpr std::uint32_t kRekeySpi = 0x5eed0001;

Bytes to_bytes(const packet::PacketBuffer& frame) {
  auto data = frame.data();
  return Bytes(data.begin(), data.end());
}

const std::vector<std::uint8_t>& payload() {
  static const std::vector<std::uint8_t> bytes(24, 0xA5);
  return bytes;
}

Bytes udp_frame(std::uint16_t sport, std::uint16_t dport) {
  packet::UdpFrameSpec spec;
  spec.eth_src = packet::MacAddress::from_id(0x11);
  spec.eth_dst = packet::MacAddress::from_id(0x22);
  spec.ip_src = *packet::Ipv4Address::parse("10.1.2.3");
  spec.ip_dst = *packet::Ipv4Address::parse("192.168.7.9");
  spec.src_port = sport;
  spec.dst_port = dport;
  spec.payload = payload();
  return to_bytes(packet::build_udp_frame(spec));
}

Bytes tcp_frame() {
  packet::TcpFrameSpec spec;
  spec.eth_src = packet::MacAddress::from_id(0x33);
  spec.eth_dst = packet::MacAddress::from_id(0x44);
  spec.ip_src = *packet::Ipv4Address::parse("172.16.0.1");
  spec.ip_dst = *packet::Ipv4Address::parse("172.16.0.2");
  spec.src_port = 40000;
  spec.dst_port = 443;
  spec.payload = payload();
  return to_bytes(packet::build_tcp_frame(spec));
}

Bytes icmp_frame() {
  packet::IcmpEchoSpec spec;
  spec.eth_src = packet::MacAddress::from_id(0x55);
  spec.eth_dst = packet::MacAddress::from_id(0x66);
  spec.ip_src = *packet::Ipv4Address::parse("10.0.0.1");
  spec.ip_dst = *packet::Ipv4Address::parse("10.0.0.2");
  spec.identifier = 0x1234;
  spec.payload = payload();
  return to_bytes(packet::build_icmp_echo(spec));
}

/// ESP in IPv4: a UDP frame's IP protocol rewritten, its L4 bytes now the
/// SPI and sequence number.
Bytes esp_frame(std::uint32_t spi) {
  Bytes frame = udp_frame(1, 2);
  frame[packet::kEthernetHeaderSize + 9] = packet::kIpProtoEsp;
  util::store_be32(&frame[packet::kEthernetHeaderSize + 20], spi);
  util::store_be32(&frame[packet::kEthernetHeaderSize + 24], 1);
  return frame;
}

Bytes arp_frame() {
  Bytes frame(packet::kEthernetHeaderSize + 28, 0);
  for (int i = 0; i < 6; ++i) frame[i] = 0xFF;
  frame[6] = 0x02;
  frame[11] = 0x77;
  util::store_be16(&frame[12], packet::kEtherTypeArp);
  util::store_be16(&frame[14], 1);       // htype Ethernet
  util::store_be16(&frame[16], 0x0800);  // ptype IPv4
  frame[18] = 6;
  frame[19] = 4;
  util::store_be16(&frame[20], 1);  // request
  return frame;
}

/// Inserts an 802.1Q tag (VID `vid`, PCP 5) after the MAC addresses.
Bytes tagged(Bytes frame, std::uint16_t vid) {
  const std::uint16_t tci = static_cast<std::uint16_t>((5u << 13) | vid);
  const std::uint8_t tag[4] = {0x81, 0x00, static_cast<std::uint8_t>(tci >> 8),
                               static_cast<std::uint8_t>(tci)};
  frame.insert(frame.begin() + 12, tag, tag + 4);
  return frame;
}

struct Sample {
  std::string name;
  Bytes frame;
  std::size_t l3_off;
};

std::vector<Sample> base_corpus() {
  std::vector<Sample> untagged = {
      {"udp", udp_frame(5000, 6000), 0},
      {"dhcp", udp_frame(68, 67), 0},
      {"tcp", tcp_frame(), 0},
      {"icmp", icmp_frame(), 0},
      {"arp", arp_frame(), 0},
      {"esp", esp_frame(0x1000), 0},
      {"esp-rekey", esp_frame(kRekeySpi), 0},
  };
  std::vector<Sample> corpus;
  for (const Sample& s : untagged) {
    corpus.push_back({s.name, s.frame, packet::kEthernetHeaderSize});
    corpus.push_back({s.name + "/vlan", tagged(s.frame, 0x123),
                      packet::kEthernetHeaderSize + packet::kVlanTagSize});
    corpus.push_back({s.name + "/vid0", tagged(s.frame, 0),
                      packet::kEthernetHeaderSize + packet::kVlanTagSize});
  }
  return corpus;
}

/// Registers the corpus' rekey SPI for the test's lifetime, so the ESP
/// peek of the priority split is exercised too.
class FlowKeyDecode : public ::testing::Test {
 protected:
  void SetUp() override { exec::ControlSpiRegistry::instance().add(kRekeySpi); }
  void TearDown() override {
    exec::ControlSpiRegistry::instance().remove(kRekeySpi);
  }
};

// ---------------------------------------------------------------------------
// Corpus variants, each run through a decoder check
// ---------------------------------------------------------------------------

using Check = void (*)(const Bytes&, const std::string&);

void well_formed(Check check) {
  for (const Sample& s : base_corpus()) check(s.frame, s.name);
}

void cut_at_every_length(Check check) {
  for (const Sample& s : base_corpus()) {
    for (std::size_t n = 0; n <= s.frame.size(); ++n) {
      check(Bytes(s.frame.begin(), s.frame.begin() + n), s.name + " cut");
    }
  }
}

void every_ihl(Check check) {
  for (const Sample& s : base_corpus()) {
    if (s.name.rfind("arp", 0) == 0) continue;
    for (std::uint8_t ihl = 0; ihl < 16; ++ihl) {
      Bytes frame = s.frame;
      frame[s.l3_off] = static_cast<std::uint8_t>(0x40 | ihl);
      check(frame, s.name + " ihl " + std::to_string(ihl));
    }
  }
}

void total_length_below_header(Check check) {
  for (const Sample& s : base_corpus()) {
    if (s.name.rfind("arp", 0) == 0) continue;
    for (std::uint16_t total : {0, 1, 19, 20, 21}) {
      Bytes frame = s.frame;
      util::store_be16(&frame[s.l3_off + 2], total);
      check(frame, s.name + " total_length " + std::to_string(total));
    }
    // With options (IHL 6), 20..23 is now shorter than the header.
    Bytes frame = s.frame;
    frame[s.l3_off] = 0x46;
    util::store_be16(&frame[s.l3_off + 2], 23);
    check(frame, s.name + " ihl 6 total_length 23");
  }
}

void ip_version_other_than_four(Check check) {
  for (const Sample& s : base_corpus()) {
    if (s.name.rfind("arp", 0) == 0) continue;
    for (std::uint8_t version = 0; version < 16; ++version) {
      Bytes frame = s.frame;
      frame[s.l3_off] =
          static_cast<std::uint8_t>((version << 4) | (frame[s.l3_off] & 0x0F));
      check(frame, s.name + " version " + std::to_string(version));
    }
  }
}

void every_tcp_data_offset(Check check) {
  for (const Sample& s : base_corpus()) {
    if (s.name.rfind("tcp", 0) != 0) continue;
    for (std::uint8_t offset = 0; offset < 16; ++offset) {
      Bytes frame = s.frame;
      std::uint8_t& byte = frame[s.l3_off + 20 + 12];
      byte = static_cast<std::uint8_t>((offset << 4) | (byte & 0x0F));
      check(frame, s.name + " data offset " + std::to_string(offset));
    }
  }
}

void udp_length_below_header(Check check) {
  for (const Sample& s : base_corpus()) {
    if (s.name.rfind("udp", 0) != 0 && s.name.rfind("dhcp", 0) != 0) continue;
    for (std::uint16_t length = 0; length <= 9; ++length) {
      Bytes frame = s.frame;
      util::store_be16(&frame[s.l3_off + 20 + 4], length);
      check(frame, s.name + " udp length " + std::to_string(length));
    }
  }
}

void random_damage(Check check) {
  // Byte flips in the headers of every corpus frame, then a cut: covers
  // combinations the targeted variants above do not enumerate.
  util::Rng rng(0xF10E);
  const std::vector<Sample> corpus = base_corpus();
  for (int round = 0; round < 4000; ++round) {
    const Sample& s = corpus[rng.uniform(0, corpus.size() - 1)];
    Bytes frame = s.frame;
    const int flips = static_cast<int>(rng.uniform(1, 3));
    const std::size_t last = std::min(frame.size() - 1, s.l3_off + 40);
    for (int f = 0; f < flips; ++f) {
      frame[rng.uniform(0, last)] = static_cast<std::uint8_t>(rng.next_u64());
    }
    frame.resize(rng.uniform(0, frame.size()));
    check(frame, s.name + " damaged");
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// Cases
// ---------------------------------------------------------------------------

TEST_F(FlowKeyDecode, WellFormedFramesDecodeLikeTheFieldsPipeline) {
  well_formed(expect_agrees);
}

TEST_F(FlowKeyDecode, DecodedFieldsAreTheFramesHeaders) {
  nfswitch::FlowKeyView key;
  ASSERT_TRUE(packet::decode_flow_key(tagged(udp_frame(5000, 6000), 0x123),
                                      key));
  EXPECT_EQ(key.vlan, 0x123);
  EXPECT_EQ(key.eth_type, packet::kEtherTypeIpv4);
  EXPECT_TRUE(key.has_ipv4);
  EXPECT_EQ(key.ip_src, packet::Ipv4Address::parse("10.1.2.3")->value);
  EXPECT_EQ(key.ip_proto, packet::kIpProtoUdp);
  EXPECT_TRUE(key.has_l4_src && key.has_l4_dst);
  EXPECT_EQ(key.l4_src, 5000);
  EXPECT_EQ(key.l4_dst, 6000);

  // A reused key carries nothing over from the previous frame.
  ASSERT_TRUE(packet::decode_flow_key(arp_frame(), key));
  EXPECT_EQ(key.vlan, packet::kVlanUntagged);
  EXPECT_FALSE(key.has_ipv4 || key.has_l4_src || key.has_l4_dst);
  EXPECT_EQ(key.ip_src | key.ip_dst | key.ip_proto | key.l4_src | key.l4_dst,
            0u);
}

TEST_F(FlowKeyDecode, CutAtEveryLength) { cut_at_every_length(expect_agrees); }

TEST_F(FlowKeyDecode, EveryIhl) { every_ihl(expect_agrees); }

TEST_F(FlowKeyDecode, TotalLengthBelowHeader) {
  total_length_below_header(expect_agrees);
}

TEST_F(FlowKeyDecode, IpVersionOtherThanFour) {
  ip_version_other_than_four(expect_agrees);
}

TEST_F(FlowKeyDecode, EveryTcpDataOffset) {
  every_tcp_data_offset(expect_agrees);
}

TEST_F(FlowKeyDecode, UdpLengthBelowHeader) {
  udp_length_below_header(expect_agrees);
}

TEST_F(FlowKeyDecode, KeyPairedWithAShorterFrameStaysInBounds) {
  // classify_priority(key, frame) peeks the SPI at offsets the key
  // implies; a key decoded from a longer frame must not make it read past
  // the end of the frame it is paired with.
  const Bytes full = esp_frame(kRekeySpi);
  nfswitch::FlowKeyView key;
  ASSERT_TRUE(packet::decode_flow_key(full, key));
  ASSERT_EQ(exec::classify_priority(key, full),
            exec::FramePriority::kControl);
  const std::size_t spi_end =
      packet::kEthernetHeaderSize + packet::kIpv4MinHeaderSize + 4;
  for (std::size_t n = 0; n < spi_end; ++n) {
    const Bytes cut(full.begin(), full.begin() + n);
    EXPECT_EQ(exec::classify_priority(key, cut), exec::FramePriority::kBulk)
        << n << " B";
  }
}

TEST_F(FlowKeyDecode, RandomDamage) { random_damage(expect_agrees); }

// ---------------------------------------------------------------------------
// TupleDecode: the NFs' flat decode over the same corpus
// ---------------------------------------------------------------------------

TEST(TupleDecode, WellFormedFramesDecodeLikeTheParseChain) {
  well_formed(expect_tuple_agrees);
}

TEST(TupleDecode, DecodedFieldsAreTheFramesHeaders) {
  packet::Ipv4Tuple d;
  ASSERT_EQ(packet::decode_ipv4_tuple(tagged(udp_frame(5000, 6000), 0x123), d),
            packet::Ipv4Decode::kOk);
  EXPECT_EQ(d.l3_off, packet::kEthernetHeaderSize + packet::kVlanTagSize);
  EXPECT_EQ(d.header_size, packet::kIpv4MinHeaderSize);
  EXPECT_EQ(d.total_length, 20 + 8 + payload().size());
  EXPECT_EQ(d.tuple.src_ip.to_string(), "10.1.2.3");
  EXPECT_EQ(d.tuple.dst_ip.to_string(), "192.168.7.9");
  EXPECT_EQ(d.tuple.protocol, packet::kIpProtoUdp);
  EXPECT_EQ(d.tuple.src_port, 5000);
  EXPECT_EQ(d.tuple.dst_port, 6000);

  // ICMP: the echo identifier in src_port; and a reused output carries
  // no port over from the previous frame.
  ASSERT_EQ(packet::decode_ipv4_tuple(icmp_frame(), d),
            packet::Ipv4Decode::kOk);
  EXPECT_EQ(d.l3_off, packet::kEthernetHeaderSize);
  EXPECT_EQ(d.tuple.src_port, 0x1234);
  EXPECT_EQ(d.tuple.dst_port, 0);
  ASSERT_EQ(packet::decode_ipv4_tuple(esp_frame(0x1000), d),
            packet::Ipv4Decode::kOk);
  EXPECT_EQ(d.tuple.protocol, packet::kIpProtoEsp);
  EXPECT_EQ(d.tuple.src_port | d.tuple.dst_port, 0);

  EXPECT_EQ(packet::decode_ipv4_tuple(arp_frame(), d),
            packet::Ipv4Decode::kNotIpv4);
  EXPECT_EQ(packet::decode_ipv4_tuple(Bytes(13, 0), d),
            packet::Ipv4Decode::kRunt);
}

TEST(TupleDecode, CutAtEveryLength) { cut_at_every_length(expect_tuple_agrees); }

TEST(TupleDecode, EveryIhl) { every_ihl(expect_tuple_agrees); }

TEST(TupleDecode, TotalLengthBelowHeader) {
  total_length_below_header(expect_tuple_agrees);
}

TEST(TupleDecode, IpVersionOtherThanFour) {
  ip_version_other_than_four(expect_tuple_agrees);
}

TEST(TupleDecode, EveryTcpDataOffset) {
  every_tcp_data_offset(expect_tuple_agrees);
}

TEST(TupleDecode, UdpLengthBelowHeader) {
  udp_length_below_header(expect_tuple_agrees);
}

TEST(TupleDecode, RandomDamage) { random_damage(expect_tuple_agrees); }

}  // namespace
}  // namespace nnfv
