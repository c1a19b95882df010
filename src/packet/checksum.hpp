// RFC 1071 internet checksum, plus the IPv4 pseudo-header sums used by
// UDP/TCP (which NAT must recompute after rewriting addresses/ports).
#pragma once

#include <cstdint>
#include <span>

#include "packet/headers.hpp"

namespace nnfv::packet {

/// One's-complement sum over `data`, folded to 16 bits and complemented.
/// Returned in host order; store with store_be16.
std::uint16_t internet_checksum(std::span<const std::uint8_t> data);

/// UDP/TCP checksum including the IPv4 pseudo-header.
/// `l4_segment` covers the transport header (checksum field zeroed by the
/// caller or ignored via `checksum_offset`) and payload.
std::uint16_t l4_checksum(Ipv4Address src, Ipv4Address dst,
                          std::uint8_t protocol,
                          std::span<const std::uint8_t> l4_segment,
                          std::size_t checksum_offset);

/// RFC 1624 eqn. 3 incremental update, HC' = ~(~HC + ~m + m'): the
/// checksum `check` of data in which the 32-bit field `old_value` became
/// `new_value` (an IPv4 address the NAT rewrote in the header). A 32-bit
/// value is congruent mod 0xFFFF to the sum of its 16-bit halves, so it
/// is added whole. The sum starts at 0xFFFF (one's-complement -0) so it
/// never folds to +0: for any data that is not all zero, the result
/// equals a full recompute over the updated data.
inline std::uint16_t checksum_update32(std::uint16_t check,
                                       std::uint32_t old_value,
                                       std::uint32_t new_value) {
  std::uint64_t sum = 0xFFFFu + static_cast<std::uint16_t>(~check) +
                      static_cast<std::uint64_t>(~old_value) + new_value;
  while ((sum >> 16) != 0) sum = (sum & 0xFFFF) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum);
}

}  // namespace nnfv::packet
