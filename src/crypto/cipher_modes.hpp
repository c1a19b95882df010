// Block cipher modes used by the ESP datapath: AES-GCM (SP 800-38D, the
// RFC 4106 ESP default), CBC with PKCS#7 padding (RFC 3602 AES-CBC for
// ESP) and CTR (RFC 3686).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "crypto/aes.hpp"
#include "crypto/backend.hpp"
#include "util/status.hpp"
#include "util/sync.hpp"

namespace nnfv::crypto {

/// One lane of a GcmContext::seal_mb()/open_mb() batch: an independent
/// (iv, aad, payload) triple under the context's key. `input` is the
/// plaintext for seal_mb and the ciphertext for open_mb; `output` is the
/// same length (in-place allowed). `tag` is written (seal) or verified
/// (open), kTagSize bytes.
struct GcmMbOp {
  std::span<const std::uint8_t> iv;
  std::span<const std::uint8_t> aad;
  std::span<const std::uint8_t> input;
  std::uint8_t* output = nullptr;
  std::uint8_t* tag = nullptr;
};

/// AES-GCM authenticated encryption (SP 800-38D) with a 96-bit IV and a
/// full 128-bit tag — the shape RFC 4106 uses for ESP.
///
/// The expensive key-dependent state is computed once at create():
/// the AES key schedule (inside Aes) and the GHASH subkey H = AES_K(0)
/// with its backend-specific multiplication table (Shoup 4-bit table on
/// the portable backend, H^1..H^4 powers for PCLMUL). seal()/open() are
/// then pure bulk work, which is what lets IpsecEndpoint reuse one
/// context for every packet of a burst. The GHASH table is lazily
/// re-derived if the active backend changes between calls
/// (ScopedBackendOverride in tests), so a context is never tied to the
/// backend that created it.
class GcmContext {
 public:
  static constexpr std::size_t kIvSize = 12;   ///< 96-bit GCM IV
  static constexpr std::size_t kTagSize = 16;  ///< full 128-bit tag

  /// Key must be 16, 24 or 32 bytes.
  static util::Result<GcmContext> create(std::span<const std::uint8_t> key);

  /// Encrypts `plaintext` into `ciphertext` (same length; in-place
  /// allowed) and writes the tag over `aad` + ciphertext. `iv` must be
  /// 12 bytes and unique per key (RFC 4106 uses the ESP sequence
  /// number).
  util::Status seal(std::span<const std::uint8_t> iv,
                    std::span<const std::uint8_t> aad,
                    std::span<const std::uint8_t> plaintext,
                    std::uint8_t* ciphertext,
                    std::uint8_t tag[kTagSize]) const;

  /// Decrypts and authenticates in one fused pass (same length as
  /// ciphertext; in-place allowed). The tag is still compared in
  /// constant time, and on authentication failure the already-produced
  /// plaintext bytes are wiped to zero before returning false — never
  /// released to the caller.
  [[nodiscard]] bool open(std::span<const std::uint8_t> iv,
                          std::span<const std::uint8_t> aad,
                          std::span<const std::uint8_t> ciphertext,
                          std::span<const std::uint8_t> tag,
                          std::uint8_t* plaintext) const;

  /// Multi-buffer seal: `nops` independent lanes pushed through the
  /// backend's batched gcm_crypt_mb kernel in groups of up to
  /// CryptoBackend::kMaxMbLanes, with the per-lane E_K(J0) tag masks
  /// batched into one AES call per group. Bit-identical to calling
  /// seal() once per lane — the batching is pure scheduling; a one-lane
  /// call (and likewise for open_mb) runs seal() itself. Fails (and
  /// touches nothing) if any lane's IV is not kIvSize bytes.
  util::Status seal_mb(const GcmMbOp* ops, std::size_t nops) const;

  /// Multi-buffer open. `ok[i]` receives the per-lane verdict: false on
  /// a malformed lane (bad IV size) or tag mismatch, in which case that
  /// lane's output is wiped to zero, exactly like open(). Lanes fail
  /// independently — one forged packet does not poison its batch.
  /// Returns true iff every lane authenticated.
  [[nodiscard]] bool open_mb(const GcmMbOp* ops, std::size_t nops,
                             bool* ok) const;

 private:
  explicit GcmContext(Aes aes);

  /// The cached GHASH key, re-initialised (thread-safely — workers may
  /// share one context) if the active backend changed.
  const GhashKey& hkey() const;

  /// GHASH-absorbs `data` into `state`, zero-padding the final partial
  /// block (the AAD half of the tag input; the ciphertext half is
  /// absorbed by the fused gcm_crypt pass).
  void ghash_absorb_padded(std::span<const std::uint8_t> data,
                           std::uint8_t state[16]) const;

  /// Absorbs the closing len64(aad) || len64(ciphertext) block.
  void ghash_lengths(std::size_t aad_len, std::size_t ct_len,
                     std::uint8_t state[16]) const;

  Aes aes_;
  mutable GhashKey hkey_;
  /// Serialises the lazy backend-table fill in hkey(); held only on the
  /// miss path (first use per backend), never per packet.
  mutable util::Mutex hkey_init_mutex_;
};

/// CBC-encrypts `plaintext` with PKCS#7 padding. `iv` must be 16 bytes.
/// Output length = plaintext length rounded up to the next multiple of 16
/// (always at least one padding byte).
util::Result<std::vector<std::uint8_t>> aes_cbc_encrypt(
    const Aes& aes, std::span<const std::uint8_t> iv,
    std::span<const std::uint8_t> plaintext);

/// Inverse of aes_cbc_encrypt; rejects bad lengths and bad padding.
util::Result<std::vector<std::uint8_t>> aes_cbc_decrypt(
    const Aes& aes, std::span<const std::uint8_t> iv,
    std::span<const std::uint8_t> ciphertext);

/// CTR keystream XOR (encryption == decryption). `counter_block` is the
/// initial 16-byte counter; incremented big-endian per block.
util::Result<std::vector<std::uint8_t>> aes_ctr_crypt(
    const Aes& aes, std::span<const std::uint8_t> counter_block,
    std::span<const std::uint8_t> data);

/// Raw CBC without padding — the caller guarantees data.size() % 16 == 0.
/// Allocating reference variants for tests and benches; the IPsec NF pads
/// its own ESP trailer (RFC 4303 §2.4) and runs the backend's in-place
/// cbc_encrypt/cbc_decrypt.
util::Result<std::vector<std::uint8_t>> aes_cbc_encrypt_raw(
    const Aes& aes, std::span<const std::uint8_t> iv,
    std::span<const std::uint8_t> plaintext);

util::Result<std::vector<std::uint8_t>> aes_cbc_decrypt_raw(
    const Aes& aes, std::span<const std::uint8_t> iv,
    std::span<const std::uint8_t> ciphertext);

}  // namespace nnfv::crypto
