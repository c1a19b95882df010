// DHCP server NF — the dnsmasq-style address service every Linux CPE
// ships, one of the "native" functions the paper's premise builds on.
//
// Implements the BOOTP/DHCP wire format (RFC 2131/2132) far enough for a
// full DORA handshake: DISCOVER -> OFFER, REQUEST -> ACK (or NAK when the
// requested address is not ours to give), plus RELEASE. Leases come from
// a per-context pool with expiry, so the server is sharable across
// service graphs (isolated pools per internal path).
//
// Single logical port (port 0 = LAN side): this NF exercises the
// single_interface / adaptation-layer machinery.
#pragma once

#include <map>
#include <optional>

#include "nnf/network_function.hpp"
#include "packet/headers.hpp"

namespace nnfv::nnf {

/// Decoded subset of a DHCP message (fixed header + the options we use).
struct DhcpMessage {
  std::uint8_t op = 0;  ///< 1 = BOOTREQUEST, 2 = BOOTREPLY
  std::uint32_t xid = 0;
  packet::MacAddress client_mac;
  packet::Ipv4Address ciaddr;  ///< client's current address (renew)
  packet::Ipv4Address yiaddr;  ///< "your" address (server -> client)
  std::uint8_t message_type = 0;  ///< option 53
  std::optional<packet::Ipv4Address> requested_ip;   ///< option 50
  std::optional<packet::Ipv4Address> server_id;      ///< option 54
};

inline constexpr std::uint8_t kDhcpDiscover = 1;
inline constexpr std::uint8_t kDhcpOffer = 2;
inline constexpr std::uint8_t kDhcpRequest = 3;
inline constexpr std::uint8_t kDhcpAck = 5;
inline constexpr std::uint8_t kDhcpNak = 6;
inline constexpr std::uint8_t kDhcpRelease = 7;

/// Parses a DHCP payload (UDP payload, starting at the BOOTP `op` byte).
util::Result<DhcpMessage> parse_dhcp(std::span<const std::uint8_t> payload);

struct DhcpStats {
  std::uint64_t discovers = 0;
  std::uint64_t offers = 0;
  std::uint64_t requests = 0;
  std::uint64_t acks = 0;
  std::uint64_t naks = 0;
  std::uint64_t releases = 0;
  std::uint64_t malformed = 0;
  std::uint64_t pool_exhausted = 0;
};

class DhcpServer : public NetworkFunction {
 public:
  DhcpServer() = default;

  [[nodiscard]] std::string_view type() const override { return "dhcp"; }
  [[nodiscard]] std::size_t num_ports() const override { return 1; }

  /// Config keys (per context):
  ///   server_ip      e.g. "192.168.1.1"   (also the offered router)
  ///   pool_start     e.g. "192.168.1.100"
  ///   pool_end       e.g. "192.168.1.199"
  ///   subnet_mask    default "255.255.255.0"
  ///   lease_time_ms  default 3600000
  util::Status configure(ContextId ctx, const NfConfig& config) override;

  std::vector<NfOutput> process_burst(ContextId ctx, NfPortIndex in_port,
                                      sim::SimTime now,
                                      packet::PacketBurst&& burst) override;

  util::Status remove_context(ContextId ctx) override;

  [[nodiscard]] std::size_t active_leases(ContextId ctx,
                                          sim::SimTime now) const;
  [[nodiscard]] const DhcpStats& stats() const { return stats_; }

 private:
  struct Lease {
    packet::MacAddress mac;
    sim::SimTime expires = 0;
  };

  struct ContextState {
    packet::Ipv4Address server_ip;
    packet::Ipv4Address pool_start;
    packet::Ipv4Address pool_end;
    packet::Ipv4Address subnet_mask{0xFFFFFF00};
    sim::SimTime lease_time = 3600 * sim::kSecond;
    bool configured = false;
    std::map<std::uint32_t, Lease> leases;  ///< ip -> lease
  };

  util::Result<packet::Ipv4Address> allocate(ContextState& state,
                                             const packet::MacAddress& mac,
                                             sim::SimTime now,
                                             std::optional<packet::Ipv4Address>
                                                 requested);

  /// Answers one client frame; nullopt when it needs no reply.
  std::optional<packet::PacketBuffer> serve(ContextState& state,
                                            sim::SimTime now,
                                            const packet::PacketBuffer& frame);

  packet::PacketBuffer build_reply(const ContextState& state,
                                   const DhcpMessage& request,
                                   std::uint8_t reply_type,
                                   packet::Ipv4Address yiaddr);

  std::map<ContextId, ContextState> state_;
  DhcpStats stats_;
};

}  // namespace nnfv::nnf
