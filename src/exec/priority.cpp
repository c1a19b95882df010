#include "exec/priority.hpp"

#include "packet/headers.hpp"

namespace nnfv::exec {

namespace {

constexpr std::uint16_t kDhcpServerPort = 67;
constexpr std::uint16_t kDhcpClientPort = 68;

bool is_dhcp_port(std::uint16_t port) {
  return port == kDhcpServerPort || port == kDhcpClientPort;
}

/// True when the ESP frame's SPI belongs to an in-flight rekey. `l3` is
/// the frame payload starting at the IPv4 header. The size checks keep a
/// key that was not decoded from this frame from reading past its end.
bool esp_is_control(std::span<const std::uint8_t> l3) {
  if (ControlSpiRegistry::instance().empty()) return false;
  if (l3.empty()) return false;
  const std::size_t ihl = static_cast<std::size_t>(l3[0] & 0x0F) * 4;
  if (ihl < packet::kIpv4MinHeaderSize || l3.size() < ihl) return false;
  auto esp = packet::parse_esp(l3.subspan(ihl));
  if (!esp) return false;
  return ControlSpiRegistry::instance().contains(esp.value().spi);
}

}  // namespace

ControlSpiRegistry& ControlSpiRegistry::instance() {
  static ControlSpiRegistry* registry = new ControlSpiRegistry();  // leaked
  return *registry;
}

void ControlSpiRegistry::add(std::uint32_t spi) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++spis_[spi];
  count_.fetch_add(1, std::memory_order_relaxed);
}

void ControlSpiRegistry::remove(std::uint32_t spi) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = spis_.find(spi);
  if (it == spis_.end()) return;
  if (--it->second == 0) spis_.erase(it);
  count_.fetch_sub(1, std::memory_order_relaxed);
}

bool ControlSpiRegistry::contains(std::uint32_t spi) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spis_.contains(spi);
}

FramePriority classify_priority(const packet::FlowKey& key,
                                std::span<const std::uint8_t> frame) {
  if (key.eth_type == packet::kEtherTypeArp) return FramePriority::kControl;
  if (!key.has_ipv4) return FramePriority::kBulk;
  if (key.ip_proto == packet::kIpProtoUdp) {
    if ((key.has_l4_src && is_dhcp_port(key.l4_src)) ||
        (key.has_l4_dst && is_dhcp_port(key.l4_dst))) {
      return FramePriority::kControl;
    }
    return FramePriority::kBulk;
  }
  if (key.ip_proto == packet::kIpProtoEsp) {
    const std::size_t l3_off =
        packet::kEthernetHeaderSize +
        (key.vlan == packet::kVlanUntagged ? 0 : packet::kVlanTagSize);
    if (frame.size() > l3_off && esp_is_control(frame.subspan(l3_off))) {
      return FramePriority::kControl;
    }
  }
  return FramePriority::kBulk;
}

FramePriority classify_priority(std::span<const std::uint8_t> frame) {
  packet::FlowKey key;
  if (!packet::decode_flow_key(frame, key)) return FramePriority::kBulk;
  return classify_priority(key, frame);
}

}  // namespace nnfv::exec
