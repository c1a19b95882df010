#include "packet/flow_key.hpp"

#include <cstring>

#include "util/byteorder.hpp"

namespace nnfv::packet {

using util::Result;

namespace {

/// parse_ethernet's checks: false for a runt (short frame or truncated
/// 802.1Q tag); otherwise the ethertype after any tag and the offset of
/// the L3 header.
bool locate_l3(std::span<const std::uint8_t> frame, std::uint16_t& type,
               std::size_t& l3_off) {
  if (frame.size() < kEthernetHeaderSize) return false;
  type = util::load_be16(frame.data() + 12);
  l3_off = kEthernetHeaderSize;
  if (type == kEtherTypeVlan) {
    if (frame.size() < kEthernetHeaderSize + kVlanTagSize) return false;
    type = util::load_be16(frame.data() + 16);
    l3_off += kVlanTagSize;
  }
  return true;
}

/// parse_ipv4's checks on the `l3_len` bytes at `l3`: the IHL in bytes,
/// or 0 when the header is rejected.
std::size_t ipv4_header_size(const std::uint8_t* l3, std::size_t l3_len) {
  if (l3_len < kIpv4MinHeaderSize || (l3[0] >> 4) != 4) return 0;
  const std::size_t ihl = static_cast<std::size_t>(l3[0] & 0x0F) * 4;
  if (ihl < kIpv4MinHeaderSize || ihl > l3_len ||
      util::load_be16(l3 + 2) < ihl) {
    return 0;
  }
  return ihl;
}

/// parse_udp's (for UDP) or parse_tcp's (for TCP) checks on the `l4_len`
/// bytes at `l4`: whether the header holding the ports is accepted.
bool ports_header_ok(std::uint8_t protocol, const std::uint8_t* l4,
                     std::size_t l4_len) {
  if (protocol == kIpProtoUdp) {
    return l4_len >= kUdpHeaderSize &&
           util::load_be16(l4 + 4) >= kUdpHeaderSize;
  }
  if (l4_len < kTcpMinHeaderSize) return false;
  const std::size_t data_offset = static_cast<std::size_t>(l4[12] >> 4) * 4;
  return data_offset >= kTcpMinHeaderSize && data_offset <= l4_len;
}

}  // namespace

std::string FiveTuple::to_string() const {
  std::string out = src_ip.to_string() + ":" + std::to_string(src_port) +
                    " -> " + dst_ip.to_string() + ":" +
                    std::to_string(dst_port) + " proto " +
                    std::to_string(protocol);
  return out;
}

std::size_t FiveTupleHash::operator()(const FiveTuple& t) const noexcept {
  // The tuple as two words, each folded in by a multiply and an
  // xor-shift that carries the high product bits down to the low ones a
  // bucket index uses.
  const std::uint64_t addrs =
      (static_cast<std::uint64_t>(t.src_ip.value) << 32) | t.dst_ip.value;
  const std::uint64_t rest = (static_cast<std::uint64_t>(t.protocol) << 32) |
                             (static_cast<std::uint64_t>(t.src_port) << 16) |
                             t.dst_port;
  std::uint64_t h = addrs * 0x9E3779B97F4A7C15ULL;
  h = ((h ^ (h >> 32)) ^ rest) * 0xC2B2AE3D27D4EB4FULL;
  return static_cast<std::size_t>(h ^ (h >> 32));
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
  std::uint16_t type = 0;
  std::size_t l3_off = 0;
  if (!locate_l3(frame, type, l3_off)) return false;
  const std::uint8_t* p = frame.data();
  key.vlan = l3_off == kEthernetHeaderSize
                 ? kVlanUntagged
                 : static_cast<std::uint16_t>(load_be16(p + 14) & 0x0FFF);
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
  const std::size_t l3_len = frame.size() - l3_off;
  const std::size_t ihl = ipv4_header_size(l3, l3_len);
  if (ihl == 0) return true;
  key.has_ipv4 = true;
  key.ip_proto = l3[9];
  key.ip_src = load_be32(l3 + 12);
  key.ip_dst = load_be32(l3 + 16);

  const std::uint8_t* l4 = l3 + ihl;
  if ((key.ip_proto == kIpProtoUdp || key.ip_proto == kIpProtoTcp) &&
      ports_header_ok(key.ip_proto, l4, l3_len - ihl)) {
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

Ipv4Decode decode_ipv4(std::span<const std::uint8_t> frame, Ipv4Tuple& out) {
  // parse_ethernet's and parse_ipv4's checks, in their order.
  std::uint16_t type = 0;
  std::size_t l3_off = 0;
  if (!locate_l3(frame, type, l3_off)) return Ipv4Decode::kRunt;
  if (type != kEtherTypeIpv4) return Ipv4Decode::kNotIpv4;
  const std::uint8_t* l3 = frame.data() + l3_off;
  const std::size_t ihl = ipv4_header_size(l3, frame.size() - l3_off);
  if (ihl == 0) return Ipv4Decode::kMalformed;
  out.l3_off = static_cast<std::uint16_t>(l3_off);
  out.header_size = static_cast<std::uint16_t>(ihl);
  out.total_length = util::load_be16(l3 + 2);
  out.tuple.src_ip.value = util::load_be32(l3 + 12);
  out.tuple.dst_ip.value = util::load_be32(l3 + 16);
  out.tuple.protocol = l3[9];
  out.tuple.src_port = out.tuple.dst_port = 0;
  return Ipv4Decode::kOk;
}

Ipv4Decode decode_ipv4_tuple(std::span<const std::uint8_t> frame,
                             Ipv4Tuple& out) {
  // Then parse_udp's, parse_tcp's and parse_icmp's checks, as
  // extract_five_tuple applies them.
  const Ipv4Decode l3 = decode_ipv4(frame, out);
  if (l3 != Ipv4Decode::kOk) return l3;
  const std::size_t l4_off =
      static_cast<std::size_t>(out.l3_off) + out.header_size;
  const std::uint8_t* l4 = frame.data() + l4_off;
  const std::size_t l4_len = frame.size() - l4_off;
  FiveTuple& t = out.tuple;
  switch (t.protocol) {
    case kIpProtoUdp:
    case kIpProtoTcp:
      if (!ports_header_ok(t.protocol, l4, l4_len)) {
        return Ipv4Decode::kMalformed;
      }
      t.src_port = util::load_be16(l4);
      t.dst_port = util::load_be16(l4 + 2);
      return Ipv4Decode::kOk;
    case kIpProtoIcmp:
      if (l4_len < kIcmpHeaderSize) return Ipv4Decode::kMalformed;
      t.src_port = util::load_be16(l4 + 4);
      return Ipv4Decode::kOk;
    default:
      return Ipv4Decode::kOk;  // ports stay zero (e.g. ESP)
  }
}

}  // namespace nnfv::packet
