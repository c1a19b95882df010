#include "crypto/cipher_modes.hpp"

#include <algorithm>
#include <cstring>
#include <mutex>

#include "crypto/backend.hpp"
#include "crypto/hmac.hpp"
#include "util/byteorder.hpp"

namespace nnfv::crypto {

using util::invalid_argument;
using util::Result;

// All bulk block work dispatches through the active CryptoBackend; this
// file keeps the argument checking and padding policy. Backends are
// bit-identical, so callers never see a behavioural difference.

Result<std::vector<std::uint8_t>> aes_cbc_encrypt(
    const Aes& aes, std::span<const std::uint8_t> iv,
    std::span<const std::uint8_t> plaintext) {
  if (iv.size() != Aes::kBlockSize) {
    return invalid_argument("CBC IV must be 16 bytes");
  }
  const std::size_t pad =
      Aes::kBlockSize - plaintext.size() % Aes::kBlockSize;  // 1..16
  std::vector<std::uint8_t> padded(plaintext.begin(), plaintext.end());
  padded.insert(padded.end(), pad, static_cast<std::uint8_t>(pad));

  std::vector<std::uint8_t> out(padded.size());
  active_backend().cbc_encrypt(aes, iv.data(), padded.data(), out.data(),
                               padded.size());
  return out;
}

Result<std::vector<std::uint8_t>> aes_cbc_decrypt(
    const Aes& aes, std::span<const std::uint8_t> iv,
    std::span<const std::uint8_t> ciphertext) {
  if (iv.size() != Aes::kBlockSize) {
    return invalid_argument("CBC IV must be 16 bytes");
  }
  if (ciphertext.empty() || ciphertext.size() % Aes::kBlockSize != 0) {
    return invalid_argument("CBC ciphertext must be a positive multiple of 16");
  }
  std::vector<std::uint8_t> out(ciphertext.size());
  active_backend().cbc_decrypt(aes, iv.data(), ciphertext.data(), out.data(),
                               ciphertext.size());
  const std::uint8_t pad = out.back();
  if (pad == 0 || pad > Aes::kBlockSize || pad > out.size()) {
    return invalid_argument("bad PKCS#7 padding");
  }
  for (std::size_t i = out.size() - pad; i < out.size(); ++i) {
    if (out[i] != pad) return invalid_argument("bad PKCS#7 padding");
  }
  out.resize(out.size() - pad);
  return out;
}

Result<std::vector<std::uint8_t>> aes_cbc_encrypt_raw(
    const Aes& aes, std::span<const std::uint8_t> iv,
    std::span<const std::uint8_t> plaintext) {
  if (iv.size() != Aes::kBlockSize) {
    return invalid_argument("CBC IV must be 16 bytes");
  }
  if (plaintext.size() % Aes::kBlockSize != 0) {
    return invalid_argument("raw CBC plaintext must be a multiple of 16");
  }
  std::vector<std::uint8_t> out(plaintext.size());
  active_backend().cbc_encrypt(aes, iv.data(), plaintext.data(), out.data(),
                               plaintext.size());
  return out;
}

Result<std::vector<std::uint8_t>> aes_cbc_decrypt_raw(
    const Aes& aes, std::span<const std::uint8_t> iv,
    std::span<const std::uint8_t> ciphertext) {
  if (iv.size() != Aes::kBlockSize) {
    return invalid_argument("CBC IV must be 16 bytes");
  }
  if (ciphertext.empty() || ciphertext.size() % Aes::kBlockSize != 0) {
    return invalid_argument("raw CBC ciphertext must be a positive multiple of 16");
  }
  std::vector<std::uint8_t> out(ciphertext.size());
  active_backend().cbc_decrypt(aes, iv.data(), ciphertext.data(), out.data(),
                               ciphertext.size());
  return out;
}

Result<std::vector<std::uint8_t>> aes_ctr_crypt(
    const Aes& aes, std::span<const std::uint8_t> counter_block,
    std::span<const std::uint8_t> data) {
  if (counter_block.size() != Aes::kBlockSize) {
    return invalid_argument("CTR counter block must be 16 bytes");
  }
  const std::size_t nblocks =
      (data.size() + Aes::kBlockSize - 1) / Aes::kBlockSize;
  std::vector<std::uint8_t> out(data.size());
  if (nblocks == 0) return out;

  // Materialise every counter, then one backend call generates the whole
  // keystream — AES-NI runs the independent blocks 4 deep.
  std::vector<std::uint8_t> keystream(nblocks * Aes::kBlockSize);
  std::uint8_t counter[Aes::kBlockSize];
  std::memcpy(counter, counter_block.data(), Aes::kBlockSize);
  for (std::size_t b = 0; b < nblocks; ++b) {
    std::memcpy(keystream.data() + b * Aes::kBlockSize, counter,
                Aes::kBlockSize);
    for (int i = Aes::kBlockSize - 1; i >= 0; --i) {  // big-endian increment
      if (++counter[i] != 0) break;
    }
  }
  active_backend().aes_encrypt_blocks(aes, keystream.data(), keystream.data(),
                                      nblocks);
  for (std::size_t i = 0; i < data.size(); ++i) {
    out[i] = static_cast<std::uint8_t>(data[i] ^ keystream[i]);
  }
  return out;
}

// ---------------------------------------------------------------------------
// AES-GCM
// ---------------------------------------------------------------------------

GcmContext::GcmContext(Aes aes) : aes_(aes) {
  // H = AES_K(0^128). The single-block T-table path is bit-identical
  // across backends, so the raw subkey can be derived here once; the
  // backend-specific table is filled lazily by hkey().
  const std::uint8_t zero[16] = {};
  aes_.encrypt_block(zero, hkey_.h);
}

util::Result<GcmContext> GcmContext::create(
    std::span<const std::uint8_t> key) {
  auto aes = Aes::create(key);
  if (!aes) return aes.status();
  return GcmContext(aes.value());
}

const GhashKey& GcmContext::hkey() const {
  // Datapath workers sealing on a shared SA race to the first use;
  // double-checked locking keeps the table write single-threaded while
  // the hot path stays one acquire load. ghash_init() release-stores
  // `owner` after writing the table, so passing the acquire check means
  // the table is fully visible.
  const CryptoBackend* backend = &active_backend();
  if (hkey_.owner.load(std::memory_order_acquire) != backend) {
    const std::lock_guard<std::mutex> lock(hkey_init_mutex_);
    if (hkey_.owner.load(std::memory_order_relaxed) != backend) {
      backend->ghash_init(hkey_);
    }
  }
  return hkey_;
}

void GcmContext::ghash_absorb_padded(std::span<const std::uint8_t> data,
                                     std::uint8_t state[16]) const {
  const GhashKey& key = hkey();
  const CryptoBackend& backend = active_backend();
  const std::size_t full = data.size() / 16;
  backend.ghash(key, state, data.data(), full);
  if (data.size() % 16 != 0) {
    std::uint8_t padded[16] = {};
    std::memcpy(padded, data.data() + 16 * full, data.size() % 16);
    backend.ghash(key, state, padded, 1);
  }
}

void GcmContext::ghash_lengths(std::size_t aad_len, std::size_t ct_len,
                               std::uint8_t state[16]) const {
  std::uint8_t lengths[16];
  util::store_be64(lengths, static_cast<std::uint64_t>(aad_len) * 8);
  util::store_be64(lengths + 8, static_cast<std::uint64_t>(ct_len) * 8);
  active_backend().ghash(hkey(), state, lengths, 1);
}

util::Status GcmContext::seal(std::span<const std::uint8_t> iv,
                              std::span<const std::uint8_t> aad,
                              std::span<const std::uint8_t> plaintext,
                              std::uint8_t* ciphertext,
                              std::uint8_t tag[kTagSize]) const {
  if (iv.size() != kIvSize) {
    return invalid_argument("GCM IV must be 12 bytes");
  }
  // J0 = IV || 0^31 || 1; the payload keystream starts at inc32(J0).
  std::uint8_t j0[16];
  std::memcpy(j0, iv.data(), kIvSize);
  util::store_be32(j0 + 12, 1);
  std::uint8_t counter[16];
  std::memcpy(counter, j0, 16);
  util::store_be32(counter + 12, 2);

  const CryptoBackend& backend = active_backend();
  std::uint8_t s[16] = {};
  ghash_absorb_padded(aad, s);
  // The fused pass: CTR encryption and the GHASH over the produced
  // ciphertext in one walk over the payload.
  backend.gcm_crypt(aes_, hkey(), counter, plaintext.data(), ciphertext,
                    plaintext.size(), s, /*encrypt=*/true);
  ghash_lengths(aad.size(), plaintext.size(), s);
  // T = E_K(J0) ^ S — one more CTR block, over the raw GHASH output.
  backend.aes_ctr_xor(aes_, j0, s, tag, 16);
  return util::Status::ok();
}

bool GcmContext::open(std::span<const std::uint8_t> iv,
                      std::span<const std::uint8_t> aad,
                      std::span<const std::uint8_t> ciphertext,
                      std::span<const std::uint8_t> tag,
                      std::uint8_t* plaintext) const {
  if (iv.size() != kIvSize || tag.size() != kTagSize) return false;
  std::uint8_t j0[16];
  std::memcpy(j0, iv.data(), kIvSize);
  util::store_be32(j0 + 12, 1);
  std::uint8_t counter[16];
  std::memcpy(counter, j0, 16);
  util::store_be32(counter + 12, 2);

  const CryptoBackend& backend = active_backend();
  std::uint8_t s[16] = {};
  ghash_absorb_padded(aad, s);
  // Fused decrypt: GHASH over the ciphertext and the CTR pass share one
  // walk, so plaintext exists before the tag verdict — it is wiped, not
  // released, when authentication fails below.
  backend.gcm_crypt(aes_, hkey(), counter, ciphertext.data(), plaintext,
                    ciphertext.size(), s, /*encrypt=*/false);
  ghash_lengths(aad.size(), ciphertext.size(), s);
  std::uint8_t expected[kTagSize];
  backend.aes_ctr_xor(aes_, j0, s, expected, 16);
  if (!constant_time_equal({expected, kTagSize}, tag)) {
    if (!ciphertext.empty()) std::memset(plaintext, 0, ciphertext.size());
    return false;
  }
  return true;
}

util::Status GcmContext::seal_mb(const GcmMbOp* ops, std::size_t nops) const {
  // A lone lane has nothing to interleave with; the single-buffer kernel
  // skips the lane scheduler and is faster at every size.
  if (nops == 1) {
    return seal(ops[0].iv, ops[0].aad, ops[0].input, ops[0].output,
                ops[0].tag);
  }
  for (std::size_t i = 0; i < nops; ++i) {
    if (ops[i].iv.size() != kIvSize) {
      return invalid_argument("GCM IV must be 12 bytes");
    }
  }
  const CryptoBackend& backend = active_backend();
  const GhashKey& key = hkey();
  constexpr std::size_t kGroup = CryptoBackend::kMaxMbLanes;
  for (std::size_t base = 0; base < nops; base += kGroup) {
    const std::size_t n = std::min(kGroup, nops - base);
    std::uint8_t j0[kGroup][16];
    std::uint8_t counter[kGroup][16];
    std::uint8_t s[kGroup][16];
    std::uint8_t aadblk[kGroup][16];
    std::uint8_t lenblk[kGroup][16];
    GcmMbLane lanes[kGroup];
    for (std::size_t i = 0; i < n; ++i) {
      const GcmMbOp& op = ops[base + i];
      std::memcpy(j0[i], op.iv.data(), kIvSize);
      util::store_be32(j0[i] + 12, 1);
      std::memcpy(counter[i], j0[i], 16);
      util::store_be32(counter[i] + 12, 2);
      std::memset(s[i], 0, 16);
      lanes[i] = GcmMbLane{counter[i], op.input.data(), op.output,
                           op.input.size(), s[i], /*encrypt=*/true};
      // The AAD (<= 16 bytes for RFC 4106 ESP: SPI + sequence number)
      // and the lengths block ride into the batched kernel as the
      // lane's pre/post GHASH blocks — folded inside its aggregated
      // reductions instead of costing two ghash() round trips per lane.
      if (op.aad.size() <= 16) {
        if (!op.aad.empty()) {
          std::memset(aadblk[i], 0, 16);
          std::memcpy(aadblk[i], op.aad.data(), op.aad.size());
          lanes[i].pre_block = aadblk[i];
        }
      } else {
        ghash_absorb_padded(op.aad, s[i]);
      }
      util::store_be64(lenblk[i], static_cast<std::uint64_t>(op.aad.size()) * 8);
      util::store_be64(lenblk[i] + 8,
                       static_cast<std::uint64_t>(op.input.size()) * 8);
      lanes[i].post_block = lenblk[i];
    }
    // All lanes encrypt, n is in range: the batched kernel cannot refuse.
    if (!backend.gcm_crypt_mb(aes_, key, lanes, n)) {
      return util::internal_error("gcm_crypt_mb rejected a uniform batch");
    }
    // One AES call masks every lane's tag: T_i = E_K(J0_i) ^ S_i.
    std::uint8_t ekj0[kGroup][16];
    backend.aes_encrypt_blocks(aes_, j0[0], ekj0[0], n);
    for (std::size_t i = 0; i < n; ++i) {
      const GcmMbOp& op = ops[base + i];
      for (std::size_t b = 0; b < kTagSize; ++b) {
        op.tag[b] = static_cast<std::uint8_t>(ekj0[i][b] ^ s[i][b]);
      }
    }
  }
  return util::Status::ok();
}

bool GcmContext::open_mb(const GcmMbOp* ops, std::size_t nops,
                         bool* ok) const {
  if (nops == 1) {  // as in seal_mb
    ok[0] = open(ops[0].iv, ops[0].aad, ops[0].input, {ops[0].tag, kTagSize},
                 ops[0].output);
    return ok[0];
  }
  const CryptoBackend& backend = active_backend();
  const GhashKey& key = hkey();
  constexpr std::size_t kGroup = CryptoBackend::kMaxMbLanes;
  bool all_ok = true;
  for (std::size_t base = 0; base < nops; base += kGroup) {
    const std::size_t n = std::min(kGroup, nops - base);
    std::uint8_t j0[kGroup][16];
    std::uint8_t counter[kGroup][16];
    std::uint8_t s[kGroup][16];
    std::uint8_t aadblk[kGroup][16];
    std::uint8_t lenblk[kGroup][16];
    GcmMbLane lanes[kGroup];
    std::size_t nlanes = 0;
    std::size_t lane_op[kGroup];
    for (std::size_t i = 0; i < n; ++i) {
      const GcmMbOp& op = ops[base + i];
      if (op.iv.size() != kIvSize) {
        ok[base + i] = false;
        all_ok = false;
        continue;
      }
      const std::size_t l = nlanes++;
      lane_op[l] = base + i;
      std::memcpy(j0[l], op.iv.data(), kIvSize);
      util::store_be32(j0[l] + 12, 1);
      std::memcpy(counter[l], j0[l], 16);
      util::store_be32(counter[l] + 12, 2);
      std::memset(s[l], 0, 16);
      lanes[l] = GcmMbLane{counter[l], op.input.data(), op.output,
                           op.input.size(), s[l], /*encrypt=*/false};
      // Same pre/post folding as seal_mb: short AAD and the lengths
      // block travel inside the batched kernel pass.
      if (op.aad.size() <= 16) {
        if (!op.aad.empty()) {
          std::memset(aadblk[l], 0, 16);
          std::memcpy(aadblk[l], op.aad.data(), op.aad.size());
          lanes[l].pre_block = aadblk[l];
        }
      } else {
        ghash_absorb_padded(op.aad, s[l]);
      }
      util::store_be64(lenblk[l], static_cast<std::uint64_t>(op.aad.size()) * 8);
      util::store_be64(lenblk[l] + 8,
                       static_cast<std::uint64_t>(op.input.size()) * 8);
      lanes[l].post_block = lenblk[l];
    }
    if (nlanes > 0) {
      if (!backend.gcm_crypt_mb(aes_, key, lanes, nlanes)) {
        return false;
      }
      std::uint8_t ekj0[kGroup][16];
      backend.aes_encrypt_blocks(aes_, j0[0], ekj0[0], nlanes);
      for (std::size_t l = 0; l < nlanes; ++l) {
        const GcmMbOp& op = ops[lane_op[l]];
        std::uint8_t expected[kTagSize];
        for (std::size_t b = 0; b < kTagSize; ++b) {
          expected[b] = static_cast<std::uint8_t>(ekj0[l][b] ^ s[l][b]);
        }
        const bool good = constant_time_equal({expected, kTagSize},
                                              {op.tag, kTagSize});
        ok[lane_op[l]] = good;
        if (!good) {
          if (!op.input.empty()) {
            std::memset(op.output, 0, op.input.size());
          }
          all_ok = false;
        }
      }
    }
  }
  return all_ok;
}

}  // namespace nnfv::crypto
