#include "packet/checksum.hpp"

#include <bit>
#include <cstring>

namespace nnfv::packet {

namespace {

/// One's-complement sum of `data` as big-endian 16-bit words (an odd
/// length padded with a zero byte), counting bytes [skip_offset,
/// skip_offset + skip_len) as zero. Folded to 16 bits; 0 only when every
/// counted byte is 0.
std::uint16_t sum_bytes(std::span<const std::uint8_t> data,
                        std::size_t skip_offset, std::size_t skip_len) {
  // The sum is byte-order independent (RFC 1071 §2(B)): add native 32-bit
  // words into a 64-bit accumulator and swap the folded result once. A
  // byte lands in lane k % 4 of its word (3 - k % 4 on a big-endian
  // host); the skipped bytes are subtracted from those lanes, before
  // any fold, so the accumulator is 0 exactly when the counted bytes are.
  constexpr bool kLittle = std::endian::native == std::endian::little;
  auto lane_shift = [](std::size_t k) {
    return 8 * (kLittle ? k % 4 : 3 - k % 4);
  };
  const std::uint8_t* p = data.data();
  const std::size_t n = data.size();
  std::uint64_t sum = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, 8);
    sum += (w & 0xFFFFFFFFu) + (w >> 32);
  }
  if (n - i >= 4) {
    std::uint32_t w;
    std::memcpy(&w, p + i, 4);
    sum += w;
    i += 4;
  }
  std::uint32_t tail = 0;  // the last 0..3 bytes, each in its lane
  for (; i < n; ++i) tail |= std::uint32_t{p[i]} << lane_shift(i);
  sum += tail;
  if (skip_offset < n) {
    const std::size_t end =
        skip_len < n - skip_offset ? skip_offset + skip_len : n;
    for (std::size_t k = skip_offset; k < end; ++k) {
      sum -= static_cast<std::uint64_t>(p[k]) << lane_shift(k);
    }
  }
  while ((sum >> 16) != 0) sum = (sum & 0xFFFF) + (sum >> 16);
  const auto folded = static_cast<std::uint16_t>(sum);
  if constexpr (kLittle) {
    return static_cast<std::uint16_t>((folded << 8) | (folded >> 8));
  }
  return folded;
}

std::uint16_t fold(std::uint32_t sum) {
  while ((sum >> 16) != 0) {
    sum = (sum & 0xFFFF) + (sum >> 16);
  }
  return static_cast<std::uint16_t>(~sum & 0xFFFF);
}

}  // namespace

std::uint16_t internet_checksum(std::span<const std::uint8_t> data) {
  return fold(sum_bytes(data, data.size(), 0));
}

std::uint16_t l4_checksum(Ipv4Address src, Ipv4Address dst,
                          std::uint8_t protocol,
                          std::span<const std::uint8_t> l4_segment,
                          std::size_t checksum_offset) {
  std::uint32_t sum = 0;
  // Pseudo-header: src, dst, zero+proto, length.
  sum += (src.value >> 16) & 0xFFFF;
  sum += src.value & 0xFFFF;
  sum += (dst.value >> 16) & 0xFFFF;
  sum += dst.value & 0xFFFF;
  sum += protocol;
  sum += static_cast<std::uint32_t>(l4_segment.size());
  sum += sum_bytes(l4_segment, checksum_offset, 2);
  std::uint16_t result = fold(sum);
  // Per RFC 768, a computed UDP checksum of zero is transmitted as 0xFFFF.
  if (result == 0 && protocol == kIpProtoUdp) result = 0xFFFF;
  return result;
}

}  // namespace nnfv::packet
