#include "packet/flow_key.hpp"

#include <cstring>

#include "util/byteorder.hpp"

namespace nnfv::packet {

using util::Result;

std::string FiveTuple::to_string() const {
  std::string out = src_ip.to_string() + ":" + std::to_string(src_port) +
                    " -> " + dst_ip.to_string() + ":" +
                    std::to_string(dst_port) + " proto " +
                    std::to_string(protocol);
  return out;
}

std::size_t FiveTupleHash::operator()(const FiveTuple& t) const noexcept {
  // FNV-1a over the tuple fields.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  };
  mix(t.src_ip.value);
  mix(t.dst_ip.value);
  mix((static_cast<std::uint64_t>(t.protocol) << 32) |
      (static_cast<std::uint64_t>(t.src_port) << 16) | t.dst_port);
  return static_cast<std::size_t>(h);
}

Result<FlowFields> extract_flow_fields(std::span<const std::uint8_t> frame) {
  FlowFields fields;
  auto eth = parse_ethernet(frame);
  if (!eth) return eth.status();
  fields.eth = eth.value();

  if (fields.eth.ether_type != kEtherTypeIpv4) return fields;
  auto l3 = frame.subspan(fields.eth.wire_size());
  auto ip = parse_ipv4(l3);
  if (!ip) return fields;  // tolerate short/garbled L3: match on L2 only
  fields.ipv4 = ip.value();

  auto l4 = l3.subspan(ip->header_size());
  if (ip->protocol == kIpProtoUdp) {
    if (auto udp = parse_udp(l4)) {
      fields.l4_src = udp->src_port;
      fields.l4_dst = udp->dst_port;
    }
  } else if (ip->protocol == kIpProtoTcp) {
    if (auto tcp = parse_tcp(l4)) {
      fields.l4_src = tcp->src_port;
      fields.l4_dst = tcp->dst_port;
    }
  }
  return fields;
}

bool decode_flow_key(std::span<const std::uint8_t> frame, FlowKey& key) {
  // The checks below are parse_ethernet, parse_ipv4, parse_udp and
  // parse_tcp's, in the order extract_flow_fields applies them, reading
  // each field straight from the frame into the key.
  using util::load_be16;
  using util::load_be32;
  const std::uint8_t* p = frame.data();
  const std::size_t n = frame.size();
  if (n < kEthernetHeaderSize) return false;
  std::uint16_t type = load_be16(p + 12);
  std::size_t l3_off = kEthernetHeaderSize;
  key.vlan = kVlanUntagged;
  if (type == kEtherTypeVlan) {
    if (n < kEthernetHeaderSize + kVlanTagSize) return false;
    key.vlan = static_cast<std::uint16_t>(load_be16(p + 14) & 0x0FFF);
    type = load_be16(p + 16);
    l3_off += kVlanTagSize;
  }
  std::memcpy(key.eth_dst.data(), p, 6);
  std::memcpy(key.eth_src.data(), p + 6, 6);
  key.eth_type = type;
  key.has_ipv4 = key.has_l4_src = key.has_l4_dst = false;
  key.ip_src = key.ip_dst = 0;
  key.ip_proto = 0;
  key.l4_src = key.l4_dst = 0;
  if (type != kEtherTypeIpv4) return true;

  // Short or garbled L3 leaves the key L2-only.
  const std::uint8_t* l3 = p + l3_off;
  const std::size_t l3_len = n - l3_off;
  if (l3_len < kIpv4MinHeaderSize || (l3[0] >> 4) != 4) return true;
  const std::size_t ihl = static_cast<std::size_t>(l3[0] & 0x0F) * 4;
  if (ihl < kIpv4MinHeaderSize || ihl > l3_len || load_be16(l3 + 2) < ihl) {
    return true;
  }
  key.has_ipv4 = true;
  key.ip_proto = l3[9];
  key.ip_src = load_be32(l3 + 12);
  key.ip_dst = load_be32(l3 + 16);

  const std::uint8_t* l4 = l3 + ihl;
  const std::size_t l4_len = l3_len - ihl;
  bool ports = false;
  if (key.ip_proto == kIpProtoUdp) {
    ports = l4_len >= kUdpHeaderSize && load_be16(l4 + 4) >= kUdpHeaderSize;
  } else if (key.ip_proto == kIpProtoTcp && l4_len >= kTcpMinHeaderSize) {
    const std::size_t data_offset = static_cast<std::size_t>(l4[12] >> 4) * 4;
    ports = data_offset >= kTcpMinHeaderSize && data_offset <= l4_len;
  }
  if (ports) {
    key.has_l4_src = key.has_l4_dst = true;
    key.l4_src = load_be16(l4);
    key.l4_dst = load_be16(l4 + 2);
  }
  return true;
}

Result<FiveTuple> extract_five_tuple(std::span<const std::uint8_t> ip_packet) {
  auto ip = parse_ipv4(ip_packet);
  if (!ip) return ip.status();
  FiveTuple tuple;
  tuple.src_ip = ip->src;
  tuple.dst_ip = ip->dst;
  tuple.protocol = ip->protocol;
  auto l4 = ip_packet.subspan(ip->header_size());
  switch (ip->protocol) {
    case kIpProtoUdp: {
      auto udp = parse_udp(l4);
      if (!udp) return udp.status();
      tuple.src_port = udp->src_port;
      tuple.dst_port = udp->dst_port;
      break;
    }
    case kIpProtoTcp: {
      auto tcp = parse_tcp(l4);
      if (!tcp) return tcp.status();
      tuple.src_port = tcp->src_port;
      tuple.dst_port = tcp->dst_port;
      break;
    }
    case kIpProtoIcmp: {
      auto icmp = parse_icmp(l4);
      if (!icmp) return icmp.status();
      tuple.src_port = icmp->identifier;
      tuple.dst_port = 0;
      break;
    }
    default:
      break;  // ports stay zero (e.g. ESP)
  }
  return tuple;
}

}  // namespace nnfv::packet
