#include "packet/builder.hpp"

#include <cstring>
#include <utility>

#include "packet/checksum.hpp"
#include "util/byteorder.hpp"

namespace nnfv::packet {

namespace {

/// Lays out Ethernet + IPv4 and returns the offset of the L3 header.
/// `buf` may be empty (lazily pool-allocated) or a recycled buffer
/// whose segment is rebuilt in place.
std::size_t write_l2_l3(PacketBuffer& buf, const EthernetHeader& eth,
                        Ipv4Header& ip, std::size_t l4_size) {
  const std::size_t eth_size = eth.wire_size();
  const std::size_t total = eth_size + ip.header_size() + l4_size;
  buf.reset();
  buf.push_back(total);
  write_ethernet(eth, buf.data().subspan(0, eth_size));
  ip.total_length =
      static_cast<std::uint16_t>(ip.header_size() + l4_size);
  write_ipv4(ip, buf.data().subspan(eth_size, ip.header_size()));
  return eth_size;
}

}  // namespace

PacketBuffer build_udp_frame(const UdpFrameSpec& spec,
                             PacketBuffer&& reuse) {
  PacketBuffer buf = std::move(reuse);
  EthernetHeader eth{.dst = spec.eth_dst,
                     .src = spec.eth_src,
                     .ether_type = kEtherTypeIpv4,
                     .vlan = spec.vlan};
  Ipv4Header ip;
  ip.protocol = kIpProtoUdp;
  ip.ttl = spec.ttl;
  ip.src = spec.ip_src;
  ip.dst = spec.ip_dst;

  const std::size_t l4_size = kUdpHeaderSize + spec.payload.size();
  const std::size_t l3_off = write_l2_l3(buf, eth, ip, l4_size);
  const std::size_t l4_off = l3_off + ip.header_size();

  UdpHeader udp{.src_port = spec.src_port,
                .dst_port = spec.dst_port,
                .length = static_cast<std::uint16_t>(l4_size),
                .checksum = 0};
  write_udp(udp, buf.data().subspan(l4_off, kUdpHeaderSize));
  if (!spec.payload.empty()) {
    std::memcpy(buf.data().data() + l4_off + kUdpHeaderSize,
                spec.payload.data(), spec.payload.size());
  }
  const std::uint16_t sum =
      l4_checksum(spec.ip_src, spec.ip_dst, kIpProtoUdp,
                  buf.data().subspan(l4_off, l4_size), 6);
  util::store_be16(buf.data().data() + l4_off + 6, sum);
  return buf;
}

PacketBuffer build_tcp_frame(const TcpFrameSpec& spec) {
  PacketBuffer buf;
  EthernetHeader eth{.dst = spec.eth_dst,
                     .src = spec.eth_src,
                     .ether_type = kEtherTypeIpv4,
                     .vlan = spec.vlan};
  Ipv4Header ip;
  ip.protocol = kIpProtoTcp;
  ip.src = spec.ip_src;
  ip.dst = spec.ip_dst;

  const std::size_t l4_size = kTcpMinHeaderSize + spec.payload.size();
  const std::size_t l3_off = write_l2_l3(buf, eth, ip, l4_size);
  const std::size_t l4_off = l3_off + ip.header_size();

  TcpHeader tcp;
  tcp.src_port = spec.src_port;
  tcp.dst_port = spec.dst_port;
  tcp.seq = spec.seq;
  tcp.ack = spec.ack;
  tcp.flags = spec.flags;
  write_tcp(tcp, buf.data().subspan(l4_off, kTcpMinHeaderSize));
  if (!spec.payload.empty()) {
    std::memcpy(buf.data().data() + l4_off + kTcpMinHeaderSize,
                spec.payload.data(), spec.payload.size());
  }
  const std::uint16_t sum =
      l4_checksum(spec.ip_src, spec.ip_dst, kIpProtoTcp,
                  buf.data().subspan(l4_off, l4_size), 16);
  util::store_be16(buf.data().data() + l4_off + 16, sum);
  return buf;
}

PacketBuffer build_icmp_echo(const IcmpEchoSpec& spec) {
  PacketBuffer buf;
  EthernetHeader eth{.dst = spec.eth_dst,
                     .src = spec.eth_src,
                     .ether_type = kEtherTypeIpv4,
                     .vlan = std::nullopt};
  Ipv4Header ip;
  ip.protocol = kIpProtoIcmp;
  ip.src = spec.ip_src;
  ip.dst = spec.ip_dst;

  const std::size_t l4_size = kIcmpHeaderSize + spec.payload.size();
  const std::size_t l3_off = write_l2_l3(buf, eth, ip, l4_size);
  const std::size_t l4_off = l3_off + ip.header_size();

  IcmpHeader icmp;
  icmp.type = spec.is_reply ? 0 : 8;
  icmp.identifier = spec.identifier;
  icmp.sequence = spec.sequence;
  icmp.checksum = 0;
  write_icmp(icmp, buf.data().subspan(l4_off, kIcmpHeaderSize));
  if (!spec.payload.empty()) {
    std::memcpy(buf.data().data() + l4_off + kIcmpHeaderSize,
                spec.payload.data(), spec.payload.size());
  }
  const std::uint16_t sum =
      internet_checksum(buf.data().subspan(l4_off, l4_size));
  util::store_be16(buf.data().data() + l4_off + 2, sum);
  return buf;
}

void set_vlan(PacketBuffer& frame, std::optional<std::uint16_t> vlan) {
  frame.unshare();
  auto eth = parse_ethernet(frame.data());
  if (!eth) return;
  EthernetHeader hdr = eth.value();
  const std::size_t old_size = hdr.wire_size();
  hdr.vlan = vlan;
  const std::size_t new_size = hdr.wire_size();
  if (new_size > old_size) {
    frame.push_front(new_size - old_size);
  } else if (new_size < old_size) {
    frame.pull_front(old_size - new_size);
  }
  write_ethernet(hdr, frame.data().subspan(0, new_size));
}

void fix_checksums(PacketBuffer& frame) {
  frame.unshare();
  auto eth = parse_ethernet(frame.data());
  if (!eth || eth->ether_type != kEtherTypeIpv4) return;
  const std::size_t l3_off = eth->wire_size();
  auto ip = parse_ipv4(frame.data().subspan(l3_off));
  if (!ip) return;
  // Rewrite the IP header (write_ipv4 recomputes its checksum).
  write_ipv4(ip.value(),
             frame.data().subspan(l3_off, ip->header_size()));
  fix_l4_checksum(frame.data(), l3_off, ip.value());
}

void fix_l4_checksum(std::span<std::uint8_t> frame, std::size_t l3_off,
                     const Ipv4Header& ip) {
  const std::size_t l4_off = l3_off + ip.header_size();
  const std::size_t l4_size = ip.total_length - ip.header_size();
  if (l4_off + l4_size > frame.size()) return;
  auto l4 = frame.subspan(l4_off, l4_size);
  if (ip.protocol == kIpProtoUdp && l4_size >= kUdpHeaderSize) {
    const std::uint16_t sum =
        l4_checksum(ip.src, ip.dst, kIpProtoUdp, l4, 6);
    util::store_be16(l4.data() + 6, sum);
  } else if (ip.protocol == kIpProtoTcp && l4_size >= kTcpMinHeaderSize) {
    const std::uint16_t sum =
        l4_checksum(ip.src, ip.dst, kIpProtoTcp, l4, 16);
    util::store_be16(l4.data() + 16, sum);
  } else if (ip.protocol == kIpProtoIcmp && l4_size >= kIcmpHeaderSize) {
    util::store_be16(l4.data() + 2, 0);
    const std::uint16_t sum = internet_checksum(l4);
    util::store_be16(l4.data() + 2, sum);
  }
}

}  // namespace nnfv::packet
