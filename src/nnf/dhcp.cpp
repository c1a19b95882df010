#include "nnf/dhcp.hpp"

#include <cstring>

#include "packet/builder.hpp"
#include "packet/checksum.hpp"
#include "packet/flow_key.hpp"
#include "util/byteorder.hpp"
#include "util/strings.hpp"

namespace nnfv::nnf {

namespace {

// BOOTP fixed header (RFC 2131 §2): 236 bytes before options.
constexpr std::size_t kBootpFixedSize = 236;
constexpr std::uint32_t kDhcpMagic = 0x63825363;

constexpr std::uint8_t kOptPad = 0;
constexpr std::uint8_t kOptSubnetMask = 1;
constexpr std::uint8_t kOptRouter = 3;
constexpr std::uint8_t kOptRequestedIp = 50;
constexpr std::uint8_t kOptLeaseTime = 51;
constexpr std::uint8_t kOptMessageType = 53;
constexpr std::uint8_t kOptServerId = 54;
constexpr std::uint8_t kOptEnd = 255;

util::Status parse_ip_config(const NfConfig& config, const std::string& key,
                             packet::Ipv4Address& out, bool& present) {
  auto it = config.find(key);
  if (it == config.end()) {
    present = false;
    return util::Status::ok();
  }
  auto addr = packet::Ipv4Address::parse(it->second);
  if (!addr.has_value()) {
    return util::invalid_argument("dhcp: bad " + key + " '" + it->second +
                                  "'");
  }
  out = *addr;
  present = true;
  return util::Status::ok();
}

}  // namespace

util::Result<DhcpMessage> parse_dhcp(std::span<const std::uint8_t> payload) {
  if (payload.size() < kBootpFixedSize + 4 + 3) {
    return util::invalid_argument("DHCP message too short");
  }
  DhcpMessage msg;
  msg.op = payload[0];
  // htype must be Ethernet (1), hlen 6.
  if (payload[1] != 1 || payload[2] != 6) {
    return util::invalid_argument("DHCP: unsupported hardware type");
  }
  msg.xid = util::load_be32(payload.data() + 4);
  msg.ciaddr.value = util::load_be32(payload.data() + 12);
  msg.yiaddr.value = util::load_be32(payload.data() + 16);
  std::copy_n(payload.data() + 28, 6, msg.client_mac.bytes.begin());
  if (util::load_be32(payload.data() + kBootpFixedSize) != kDhcpMagic) {
    return util::invalid_argument("DHCP: bad magic cookie");
  }
  // Options.
  std::size_t pos = kBootpFixedSize + 4;
  while (pos < payload.size()) {
    const std::uint8_t code = payload[pos++];
    if (code == kOptEnd) break;
    if (code == kOptPad) continue;
    if (pos >= payload.size()) {
      return util::invalid_argument("DHCP: truncated option");
    }
    const std::uint8_t len = payload[pos++];
    if (pos + len > payload.size()) {
      return util::invalid_argument("DHCP: option overruns message");
    }
    switch (code) {
      case kOptMessageType:
        if (len != 1) return util::invalid_argument("DHCP: bad option 53");
        msg.message_type = payload[pos];
        break;
      case kOptRequestedIp:
        if (len != 4) return util::invalid_argument("DHCP: bad option 50");
        msg.requested_ip =
            packet::Ipv4Address{util::load_be32(payload.data() + pos)};
        break;
      case kOptServerId:
        if (len != 4) return util::invalid_argument("DHCP: bad option 54");
        msg.server_id =
            packet::Ipv4Address{util::load_be32(payload.data() + pos)};
        break;
      default:
        break;  // ignore unknown options
    }
    pos += len;
  }
  if (msg.message_type == 0) {
    return util::invalid_argument("DHCP: missing message type option");
  }
  return msg;
}

util::Status DhcpServer::configure(ContextId ctx, const NfConfig& config) {
  NNFV_RETURN_IF_ERROR(require_context(ctx));
  ContextState& state = state_[ctx];
  bool present = false;
  for (const auto& [key, value] : config) {
    if (key == "server_ip" || key == "pool_start" || key == "pool_end" ||
        key == "subnet_mask") {
      continue;  // handled below (order-independent)
    }
    if (key == "lease_time_ms") {
      std::uint64_t ms = 0;
      if (!util::parse_u64(value, ms) || ms == 0) {
        return util::invalid_argument("dhcp: bad lease_time_ms '" + value +
                                      "'");
      }
      state.lease_time = static_cast<sim::SimTime>(ms) * sim::kMillisecond;
    } else {
      return util::invalid_argument("dhcp: unknown config key '" + key + "'");
    }
  }
  NNFV_RETURN_IF_ERROR(
      parse_ip_config(config, "server_ip", state.server_ip, present));
  NNFV_RETURN_IF_ERROR(
      parse_ip_config(config, "pool_start", state.pool_start, present));
  NNFV_RETURN_IF_ERROR(
      parse_ip_config(config, "pool_end", state.pool_end, present));
  NNFV_RETURN_IF_ERROR(
      parse_ip_config(config, "subnet_mask", state.subnet_mask, present));

  if (state.pool_start.value != 0 || state.pool_end.value != 0) {
    if (state.pool_start.value == 0 || state.pool_end.value == 0 ||
        state.pool_end < state.pool_start) {
      return util::invalid_argument("dhcp: bad pool range");
    }
  }
  state.configured = state.server_ip.value != 0 &&
                     state.pool_start.value != 0 &&
                     state.pool_end.value != 0;
  return util::Status::ok();
}

util::Result<packet::Ipv4Address> DhcpServer::allocate(
    ContextState& state, const packet::MacAddress& mac, sim::SimTime now,
    std::optional<packet::Ipv4Address> requested) {
  // Expire stale leases.
  for (auto it = state.leases.begin(); it != state.leases.end();) {
    if (it->second.expires <= now) {
      it = state.leases.erase(it);
    } else {
      ++it;
    }
  }
  // Sticky: a client keeps its lease.
  for (const auto& [ip, lease] : state.leases) {
    if (lease.mac == mac) return packet::Ipv4Address{ip};
  }
  // Honour a requested address inside the pool when free.
  if (requested.has_value() && state.pool_start <= *requested &&
      *requested <= state.pool_end &&
      !state.leases.contains(requested->value)) {
    return *requested;
  }
  // First free address.
  for (std::uint32_t ip = state.pool_start.value; ip <= state.pool_end.value;
       ++ip) {
    if (!state.leases.contains(ip)) return packet::Ipv4Address{ip};
  }
  ++stats_.pool_exhausted;
  return util::resource_exhausted("dhcp pool exhausted");
}

packet::PacketBuffer DhcpServer::build_reply(const ContextState& state,
                                             const DhcpMessage& request,
                                             std::uint8_t reply_type,
                                             packet::Ipv4Address yiaddr) {
  // BOOTP fixed part + cookie + options (53,54,1,3,51,255 < 32 bytes).
  std::vector<std::uint8_t> payload(kBootpFixedSize + 4 + 32, 0);
  payload[0] = 2;  // BOOTREPLY
  payload[1] = 1;  // Ethernet
  payload[2] = 6;
  util::store_be32(payload.data() + 4, request.xid);
  util::store_be32(payload.data() + 16, yiaddr.value);
  util::store_be32(payload.data() + 20, state.server_ip.value);  // siaddr
  std::copy(request.client_mac.bytes.begin(), request.client_mac.bytes.end(),
            payload.begin() + 28);
  util::store_be32(payload.data() + kBootpFixedSize, kDhcpMagic);

  std::size_t pos = kBootpFixedSize + 4;
  auto put_option = [&](std::uint8_t code, std::uint32_t value,
                        std::uint8_t len) {
    payload[pos++] = code;
    payload[pos++] = len;
    if (len == 4) {
      util::store_be32(payload.data() + pos, value);
    } else {
      payload[pos] = static_cast<std::uint8_t>(value);
    }
    pos += len;
  };
  put_option(kOptMessageType, reply_type, 1);
  put_option(kOptServerId, state.server_ip.value, 4);
  if (reply_type != kDhcpNak) {
    put_option(kOptSubnetMask, state.subnet_mask.value, 4);
    put_option(kOptRouter, state.server_ip.value, 4);
    put_option(kOptLeaseTime,
               static_cast<std::uint32_t>(state.lease_time / sim::kSecond),
               4);
  }
  payload[pos++] = kOptEnd;
  payload.resize(pos);

  packet::UdpFrameSpec spec;
  spec.eth_src = packet::MacAddress::from_id(0xD0);  // server NIC
  spec.eth_dst = request.client_mac;
  spec.ip_src = state.server_ip;
  spec.ip_dst = reply_type == kDhcpNak ? packet::Ipv4Address{0xFFFFFFFF}
                                       : yiaddr;
  spec.src_port = 67;
  spec.dst_port = 68;
  spec.payload = payload;
  return packet::build_udp_frame(spec);
}

std::vector<NfOutput> DhcpServer::process_burst(ContextId ctx,
                                                NfPortIndex in_port,
                                                sim::SimTime now,
                                                packet::PacketBurst&& burst) {
  std::vector<NfOutput> out;
  auto it = state_.find(ctx);
  if (has_context(ctx) && in_port == 0 && it != state_.end() &&
      it->second.configured) {
    for (const packet::PacketBuffer& frame : burst) {
      if (auto reply = serve(it->second, now, frame)) {
        out.push_back(NfOutput{0, std::move(*reply)});
      }
    }
  }
  burst.clear();
  return out;
}

std::optional<packet::PacketBuffer> DhcpServer::serve(
    ContextState& state, sim::SimTime now,
    const packet::PacketBuffer& frame) {
  // Must be UDP to port 67.
  auto fields = packet::extract_flow_fields(frame.data());
  if (!fields || !fields->ipv4.has_value() ||
      fields->ipv4->protocol != packet::kIpProtoUdp ||
      fields->l4_dst.value_or(0) != 67) {
    return std::nullopt;  // not for us; DHCP NF consumes only server traffic
  }
  const std::size_t payload_off = fields->eth.wire_size() +
                                  fields->ipv4->header_size() +
                                  packet::kUdpHeaderSize;
  if (payload_off >= frame.size()) {
    ++stats_.malformed;
    return std::nullopt;
  }
  auto msg = parse_dhcp(frame.data().subspan(payload_off));
  if (!msg || msg->op != 1) {
    ++stats_.malformed;
    return std::nullopt;
  }

  switch (msg->message_type) {
    case kDhcpDiscover: {
      ++stats_.discovers;
      auto ip = allocate(state, msg->client_mac, now, msg->requested_ip);
      if (!ip) return std::nullopt;
      // Offers are tentative: reserve briefly so parallel discovers do not
      // collide, but let REQUEST set the real lease.
      state.leases[ip->value] =
          Lease{msg->client_mac, now + 10 * sim::kSecond};
      ++stats_.offers;
      return build_reply(state, *msg, kDhcpOffer, *ip);
    }
    case kDhcpRequest: {
      ++stats_.requests;
      // A request for another server's offer is none of our business.
      if (msg->server_id.has_value() &&
          !(msg->server_id == state.server_ip)) {
        return std::nullopt;
      }
      packet::Ipv4Address wanted =
          msg->requested_ip.value_or(msg->ciaddr);
      const bool ours = state.pool_start <= wanted &&
                        wanted <= state.pool_end;
      bool free_or_mine = true;
      auto lease = state.leases.find(wanted.value);
      if (lease != state.leases.end() && lease->second.expires > now &&
          !(lease->second.mac == msg->client_mac)) {
        free_or_mine = false;
      }
      if (!ours || !free_or_mine) {
        ++stats_.naks;
        return build_reply(state, *msg, kDhcpNak, packet::Ipv4Address{});
      }
      state.leases[wanted.value] =
          Lease{msg->client_mac, now + state.lease_time};
      ++stats_.acks;
      return build_reply(state, *msg, kDhcpAck, wanted);
    }
    case kDhcpRelease: {
      ++stats_.releases;
      auto lease = state.leases.find(msg->ciaddr.value);
      if (lease != state.leases.end() &&
          lease->second.mac == msg->client_mac) {
        state.leases.erase(lease);
      }
      return std::nullopt;
    }
    default:
      return std::nullopt;  // INFORM/DECLINE etc. ignored here
  }
}

util::Status DhcpServer::remove_context(ContextId ctx) {
  NNFV_RETURN_IF_ERROR(NetworkFunction::remove_context(ctx));
  state_.erase(ctx);
  return util::Status::ok();
}

std::size_t DhcpServer::active_leases(ContextId ctx, sim::SimTime now) const {
  auto it = state_.find(ctx);
  if (it == state_.end()) return 0;
  std::size_t count = 0;
  for (const auto& [ip, lease] : it->second.leases) {
    if (lease.expires > now) ++count;
  }
  return count;
}

}  // namespace nnfv::nnf
