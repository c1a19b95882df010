// HMAC (RFC 2104) over any hash with the Sha256-style interface.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "crypto/sha256.hpp"

namespace nnfv::crypto {

/// Generic HMAC. H must expose kDigestSize, kBlockSize, reset/update/final.
template <typename H>
class Hmac {
 public:
  static constexpr std::size_t kDigestSize = H::kDigestSize;

  explicit Hmac(std::span<const std::uint8_t> key) {
    std::array<std::uint8_t, H::kBlockSize> k{};
    if (key.size() > H::kBlockSize) {
      H h;
      h.update(key);
      auto d = h.final();
      std::copy(d.begin(), d.end(), k.begin());
    } else {
      std::copy(key.begin(), key.end(), k.begin());
    }
    for (std::size_t i = 0; i < H::kBlockSize; ++i) {
      ipad_[i] = static_cast<std::uint8_t>(k[i] ^ 0x36);
      opad_[i] = static_cast<std::uint8_t>(k[i] ^ 0x5c);
    }
    reset();
  }

  void reset() {
    inner_.reset();
    inner_.update({ipad_.data(), ipad_.size()});
  }

  void update(std::span<const std::uint8_t> data) { inner_.update(data); }

  std::array<std::uint8_t, kDigestSize> final() {
    auto inner_digest = inner_.final();
    H outer;
    outer.update({opad_.data(), opad_.size()});
    outer.update({inner_digest.data(), inner_digest.size()});
    return outer.final();
  }

  /// One-shot MAC.
  static std::array<std::uint8_t, kDigestSize> mac(
      std::span<const std::uint8_t> key, std::span<const std::uint8_t> data) {
    Hmac h(key);
    h.update(data);
    return h.final();
  }

 private:
  std::array<std::uint8_t, H::kBlockSize> ipad_{};
  std::array<std::uint8_t, H::kBlockSize> opad_{};
  H inner_;
};

using HmacSha256 = Hmac<Sha256>;

/// Constant-time comparison for MAC verification (no early exit).
bool constant_time_equal(std::span<const std::uint8_t> a,
                         std::span<const std::uint8_t> b);

}  // namespace nnfv::crypto
