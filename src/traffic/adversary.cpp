#include "traffic/adversary.hpp"

#include <algorithm>
#include <cassert>

namespace nnfv::traffic {

std::size_t EspAdversary::esp_offset(const packet::PacketBuffer& frame) {
  auto eth = packet::parse_ethernet(frame.data());
  assert(eth && eth->ether_type == packet::kEtherTypeIpv4);
  auto ip = packet::parse_ipv4(frame.data().subspan(eth->wire_size()));
  assert(ip && ip->protocol == packet::kIpProtoEsp);
  return eth->wire_size() + ip->header_size();
}

void EspAdversary::fix_outer_length(packet::PacketBuffer& frame) {
  auto eth = packet::parse_ethernet(frame.data());
  auto l3 = frame.data().subspan(eth->wire_size());
  auto ip = packet::parse_ipv4(l3);
  packet::Ipv4Header hdr = *ip;
  hdr.total_length = static_cast<std::uint16_t>(l3.size());
  packet::write_ipv4(hdr, l3.subspan(0, hdr.header_size()));
}

packet::PacketBurst EspAdversary::replay_flood(
    const packet::PacketBuffer& frame, std::size_t copies) {
  packet::PacketBurst burst;
  burst.reserve(copies);
  for (std::size_t i = 0; i < copies; ++i) {
    burst.push_back(frame.copy());
  }
  counters_.replayed += copies;
  return burst;
}

packet::PacketBuffer EspAdversary::corrupt_ciphertext(
    const packet::PacketBuffer& frame, std::size_t icv_size) {
  packet::PacketBuffer out = frame.copy();
  const std::size_t lo = esp_offset(frame) + packet::kEspHeaderSize;
  const std::size_t hi = out.size() - icv_size;  // exclusive
  assert(hi > lo);
  const std::size_t pos = rng_.uniform(lo, hi - 1);
  out[pos] ^= static_cast<std::uint8_t>(1U << rng_.uniform(0, 7));
  ++counters_.ciphertext_corrupted;
  return out;
}

packet::PacketBuffer EspAdversary::corrupt_icv(
    const packet::PacketBuffer& frame, std::size_t icv_size) {
  packet::PacketBuffer out = frame.copy();
  assert(out.size() > icv_size);
  const std::size_t pos =
      rng_.uniform(out.size() - icv_size, out.size() - 1);
  out[pos] ^= static_cast<std::uint8_t>(1U << rng_.uniform(0, 7));
  ++counters_.icv_corrupted;
  return out;
}

packet::PacketBuffer EspAdversary::truncate_esp(
    const packet::PacketBuffer& frame, std::size_t esp_bytes) {
  packet::PacketBuffer out = frame.copy();
  const std::size_t offset = esp_offset(frame);
  assert(offset + esp_bytes <= out.size());
  out.trim(offset + esp_bytes);
  fix_outer_length(out);
  ++counters_.truncated;
  return out;
}

packet::PacketBurst EspAdversary::truncation_sweep(
    const packet::PacketBuffer& frame, std::size_t iv_size) {
  const std::size_t esp_total = frame.size() - esp_offset(frame);
  const std::size_t cuts[] = {
      0,                                       // no ESP area at all
      packet::kEspHeaderSize / 2,              // half an ESP header
      packet::kEspHeaderSize,                  // header, nothing after
      packet::kEspHeaderSize + iv_size / 2,    // mid-IV
      esp_total - 1,                           // one byte short of valid
  };
  packet::PacketBurst burst;
  for (std::size_t cut : cuts) {
    if (cut >= esp_total) continue;  // tiny frames: skip degenerate cuts
    burst.push_back(truncate_esp(frame, cut));
  }
  return burst;
}

packet::PacketBuffer EspAdversary::garbage_esp(
    const packet::PacketBuffer& prototype, std::size_t esp_bytes) {
  const std::size_t offset = esp_offset(prototype);
  packet::PacketBuffer out = packet::PacketBuffer::copy_of(
      prototype.data().subspan(0, std::min(offset, prototype.size())));
  auto area = out.push_back(esp_bytes);
  const auto junk = rng_.bytes(esp_bytes);
  std::copy(junk.begin(), junk.end(), area.begin());
  fix_outer_length(out);
  ++counters_.garbage;
  return out;
}

}  // namespace nnfv::traffic
