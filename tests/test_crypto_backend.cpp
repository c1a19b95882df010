// CryptoBackend dispatch tests: registry/selection semantics, published
// vectors re-run on every usable backend, and the bit-identity cross-check
// (every backend vs the byte-wise reference oracle) that makes backend
// selection a pure performance choice.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "crypto/aes.hpp"
#include "crypto/backend.hpp"
#include "crypto/cipher_modes.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "nnf/ipsec.hpp"
#include "packet/builder.hpp"
#include "util/byteorder.hpp"
#include "util/cpuid.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace nnfv::crypto {
namespace {

std::vector<std::uint8_t> from_hex(const std::string& hex) {
  std::vector<std::uint8_t> out;
  EXPECT_TRUE(util::hex_decode(hex, out));
  return out;
}

TEST(CryptoBackend, RegistryNamesAndLookup) {
  for (const char* name : {"portable", "aesni", "vaes", "reference"}) {
    ASSERT_NE(backend_by_name(name), nullptr) << name;
    EXPECT_EQ(backend_by_name(name)->name(), name);
  }
  EXPECT_EQ(backend_by_name("no-such-backend"), nullptr);
}

TEST(CryptoBackend, PortableAndReferenceAlwaysUsable) {
  EXPECT_TRUE(backend_by_name("portable")->usable());
  EXPECT_TRUE(backend_by_name("reference")->usable());
  // At minimum the two software backends are selectable everywhere.
  EXPECT_GE(usable_backends().size(), 2u);
}

TEST(CryptoBackend, AesniUsableMatchesCpuid) {
  const util::CpuFeatures& f = util::cpu_features();
#if defined(__x86_64__) || defined(__i386__)
  EXPECT_EQ(backend_by_name("aesni")->usable(),
            f.aesni && f.ssse3 && f.sse41);
#else
  EXPECT_FALSE(backend_by_name("aesni")->usable());
#endif
}

TEST(CryptoBackend, VaesUsableMatchesCpuid) {
  const util::CpuFeatures& f = util::cpu_features();
#if defined(__x86_64__) || defined(__i386__)
  EXPECT_EQ(backend_by_name("vaes")->usable(),
            f.vaes && f.vpclmul && f.avx2 && f.aesni && f.pclmul &&
                f.ssse3 && f.sse41);
#else
  EXPECT_FALSE(backend_by_name("vaes")->usable());
#endif
}

TEST(CryptoBackend, ActiveBackendIsUsableAndOverrideRestores) {
  const CryptoBackend& before = active_backend();
  EXPECT_TRUE(before.usable());
  {
    ScopedBackendOverride override_scope(
        detail::reference_backend());
    EXPECT_EQ(active_backend().name(), "reference");
  }
  EXPECT_EQ(&active_backend(), &before);
}

// ---------------------------------------------------------------------------
// Published vectors, re-run per backend (not just whichever is active).
// ---------------------------------------------------------------------------

class PerBackend : public ::testing::TestWithParam<const char*> {
 protected:
  const CryptoBackend& backend() { return *backend_by_name(GetParam()); }
};

#define NNFV_SKIP_IF_UNUSABLE()                              \
  if (!backend().usable()) {                                 \
    GTEST_SKIP() << GetParam() << " not usable on this CPU"; \
  }

TEST_P(PerBackend, Fips197SingleBlockAllKeySizes) {
  NNFV_SKIP_IF_UNUSABLE();
  const struct {
    std::string key;
    std::string cipher;
  } cases[] = {
      {"000102030405060708090a0b0c0d0e0f",
       "69c4e0d86a7b0430d8cdb78070b4c55a"},
      {"000102030405060708090a0b0c0d0e0f1011121314151617",
       "dda97ca4864cdfe06eaf70a0ec0d7191"},
      {"000102030405060708090a0b0c0d0e0f"
       "101112131415161718191a1b1c1d1e1f",
       "8ea2b7ca516745bfeafc49904b496089"},
  };
  const auto plain = from_hex("00112233445566778899aabbccddeeff");
  for (const auto& c : cases) {
    auto aes = Aes::create(from_hex(c.key));
    ASSERT_TRUE(aes.is_ok());
    std::uint8_t cipher[16];
    backend().aes_encrypt_blocks(*aes, plain.data(), cipher, 1);
    EXPECT_EQ(util::hex_encode({cipher, 16}), c.cipher);
    std::uint8_t back[16];
    backend().aes_decrypt_blocks(*aes, cipher, back, 1);
    EXPECT_EQ(util::hex_encode({back, 16}), util::hex_encode(plain));
  }
}

TEST_P(PerBackend, Sp80038aCbcVector) {
  NNFV_SKIP_IF_UNUSABLE();
  // NIST SP 800-38A F.2.1/F.2.2 (CBC-AES128), all four blocks.
  auto aes = Aes::create(from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
  ASSERT_TRUE(aes.is_ok());
  const auto iv = from_hex("000102030405060708090a0b0c0d0e0f");
  const auto plain = from_hex(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52ef"
      "f69f2445df4f9b17ad2b417be66c3710");
  const std::string expected =
      "7649abac8119b246cee98e9b12e9197d"
      "5086cb9b507219ee95db113a917678b2"
      "73bed6b8e3c1743b7116e69e22229516"
      "3ff1caa1681fac09120eca307586e1a7";
  std::vector<std::uint8_t> cipher(plain.size());
  backend().cbc_encrypt(*aes, iv.data(), plain.data(), cipher.data(),
                        plain.size());
  EXPECT_EQ(util::hex_encode(cipher), expected);
  std::vector<std::uint8_t> back(plain.size());
  backend().cbc_decrypt(*aes, iv.data(), cipher.data(), back.data(),
                        cipher.size());
  EXPECT_EQ(util::hex_encode(back), util::hex_encode(plain));
}

TEST_P(PerBackend, Sha256KnownAnswers) {
  NNFV_SKIP_IF_UNUSABLE();
  ScopedBackendOverride override_scope(backend());
  const std::string abc = "abc";
  EXPECT_EQ(util::hex_encode(Sha256::digest(
                {reinterpret_cast<const std::uint8_t*>(abc.data()),
                 abc.size()})),
            "ba7816bf8f01cfea414140de5dae2223"
            "b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(util::hex_encode(Sha256::digest({})),
            "e3b0c44298fc1c149afbf4c8996fb924"
            "27ae41e4649b934ca495991b7852b855");
  // Multi-block + buffering boundaries under this backend.
  const std::vector<std::uint8_t> data(200, 0x5A);
  Sha256 split;
  split.update({data.data(), 63});
  split.update({data.data() + 63, 137});
  const auto split_digest = split.final();
  EXPECT_EQ(util::hex_encode(split_digest), util::hex_encode(Sha256::digest(data)));
}

TEST_P(PerBackend, HmacRfc4231Case2) {
  NNFV_SKIP_IF_UNUSABLE();
  ScopedBackendOverride override_scope(backend());
  const std::string key = "Jefe";
  const std::string msg = "what do ya want for nothing?";
  const auto mac = HmacSha256::mac(
      {reinterpret_cast<const std::uint8_t*>(key.data()), key.size()},
      {reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()});
  EXPECT_EQ(util::hex_encode(mac),
            "5bdcc146bf60754e6a042426089575c7"
            "5a003f089d2739839dec58b964ec3843");
}

// NIST SP 800-38D (GCM spec) test cases 1-4: AES-128, 96-bit IV, with and
// without payload/AAD. Run per backend so every GHASH implementation
// (bit-by-bit oracle, Shoup 4-bit table, PCLMUL aggregated) and every CTR
// path face the published answers directly.
TEST_P(PerBackend, GcmSp80038dVectors) {
  NNFV_SKIP_IF_UNUSABLE();
  ScopedBackendOverride override_scope(backend());
  const struct {
    const char* key;
    const char* iv;
    const char* plaintext;
    const char* aad;
    const char* ciphertext;
    const char* tag;
  } cases[] = {
      // Test Case 1: empty everything.
      {"00000000000000000000000000000000", "000000000000000000000000", "",
       "", "", "58e2fccefa7e3061367f1d57a4e7455a"},
      // Test Case 2: one zero block.
      {"00000000000000000000000000000000", "000000000000000000000000",
       "00000000000000000000000000000000", "",
       "0388dace60b6a392f328c2b971b2fe78",
       "ab6e47d42cec13bdf53a67b21257bddf"},
      // Test Case 3: four blocks, no AAD.
      {"feffe9928665731c6d6a8f9467308308", "cafebabefacedbaddecaf888",
       "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
       "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
       "",
       "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
       "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985",
       "4d5c2af327cd64a62cf35abd2ba6fab4"},
      // Test Case 4: 60-byte payload (partial final block) + AAD.
      {"feffe9928665731c6d6a8f9467308308", "cafebabefacedbaddecaf888",
       "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
       "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
       "feedfacedeadbeeffeedfacedeadbeefabaddad2",
       "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
       "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091",
       "5bc94fbc3221a5db94fae95ae7121a47"},
  };
  for (const auto& c : cases) {
    auto gcm = GcmContext::create(from_hex(c.key));
    ASSERT_TRUE(gcm.is_ok());
    const auto iv = from_hex(c.iv);
    const auto plain = from_hex(c.plaintext);
    const auto aad = from_hex(c.aad);
    std::vector<std::uint8_t> cipher(plain.size());
    std::uint8_t tag[GcmContext::kTagSize];
    ASSERT_TRUE(gcm->seal(iv, aad, plain, cipher.data(), tag).is_ok());
    EXPECT_EQ(util::hex_encode(cipher), c.ciphertext) << GetParam();
    EXPECT_EQ(util::hex_encode({tag, sizeof(tag)}), c.tag) << GetParam();

    std::vector<std::uint8_t> back(cipher.size());
    EXPECT_TRUE(gcm->open(iv, aad, cipher, {tag, sizeof(tag)}, back.data()))
        << GetParam();
    EXPECT_EQ(back, plain) << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, PerBackend,
                         ::testing::Values("portable", "aesni", "vaes",
                                           "reference"));

// ---------------------------------------------------------------------------
// Bit-identity cross-check: every usable backend vs the reference oracle.
// ---------------------------------------------------------------------------

TEST(CryptoBackend, BitIdentityAcrossBackends) {
  util::Rng rng(1234);
  const CryptoBackend& oracle = detail::reference_backend();
  for (std::size_t key_len : {16u, 24u, 32u}) {
    const auto key = rng.bytes(key_len);
    const auto iv = rng.bytes(16);
    auto aes = Aes::create(key);
    ASSERT_TRUE(aes.is_ok());
    // Lengths straddle the 4-block unrolling in the AES-NI paths.
    for (std::size_t blocks : {1u, 2u, 3u, 4u, 5u, 8u, 11u, 90u}) {
      const auto data = rng.bytes(blocks * 16);
      std::vector<std::uint8_t> want_ecb(data.size()), want_cbc(data.size()),
          want_dec(data.size());
      oracle.aes_encrypt_blocks(*aes, data.data(), want_ecb.data(), blocks);
      oracle.cbc_encrypt(*aes, iv.data(), data.data(), want_cbc.data(),
                         data.size());
      oracle.cbc_decrypt(*aes, iv.data(), data.data(), want_dec.data(),
                         data.size());
      for (const CryptoBackend* backend : usable_backends()) {
        std::vector<std::uint8_t> got(data.size());
        backend->aes_encrypt_blocks(*aes, data.data(), got.data(), blocks);
        EXPECT_EQ(got, want_ecb) << backend->name() << " ECB " << blocks;
        std::vector<std::uint8_t> back(data.size());
        backend->aes_decrypt_blocks(*aes, want_ecb.data(), back.data(),
                                    blocks);
        EXPECT_EQ(back, data) << backend->name() << " ECB dec " << blocks;
        backend->cbc_encrypt(*aes, iv.data(), data.data(), got.data(),
                             data.size());
        EXPECT_EQ(got, want_cbc) << backend->name() << " CBC " << blocks;
        backend->cbc_decrypt(*aes, iv.data(), data.data(), got.data(),
                             data.size());
        EXPECT_EQ(got, want_dec) << backend->name() << " CBC dec " << blocks;
      }
    }
  }
}

TEST(CryptoBackend, CbcDecryptInPlaceMatchesOutOfPlace) {
  util::Rng rng(77);
  const auto key = rng.bytes(16);
  const auto iv = rng.bytes(16);
  const auto cipher = rng.bytes(160);
  auto aes = Aes::create(key);
  for (const CryptoBackend* backend : usable_backends()) {
    std::vector<std::uint8_t> out_of_place(cipher.size());
    backend->cbc_decrypt(*aes, iv.data(), cipher.data(), out_of_place.data(),
                         cipher.size());
    std::vector<std::uint8_t> in_place = cipher;
    backend->cbc_decrypt(*aes, iv.data(), in_place.data(), in_place.data(),
                         in_place.size());
    EXPECT_EQ(in_place, out_of_place) << backend->name();
  }
}

TEST(CryptoBackend, Sha256IdentityAcrossBackendsAllLengths) {
  util::Rng rng(99);
  for (std::size_t n : {0u, 1u, 55u, 56u, 63u, 64u, 65u, 128u, 1450u}) {
    const auto data = rng.bytes(n);
    std::string want;
    {
      ScopedBackendOverride override_scope(detail::reference_backend());
      want = util::hex_encode(Sha256::digest(data));
    }
    for (const CryptoBackend* backend : usable_backends()) {
      ScopedBackendOverride override_scope(*backend);
      EXPECT_EQ(util::hex_encode(Sha256::digest(data)), want)
          << backend->name() << " length " << n;
    }
  }
}

TEST(CryptoBackend, CtrIdentityAcrossBackends) {
  util::Rng rng(5);
  const auto key = rng.bytes(16);
  const auto counter = rng.bytes(16);
  const auto data = rng.bytes(333);  // partial final block
  auto aes = Aes::create(key);
  std::string want;
  {
    ScopedBackendOverride override_scope(detail::reference_backend());
    auto out = aes_ctr_crypt(*aes, counter, data);
    ASSERT_TRUE(out.is_ok());
    want = util::hex_encode(*out);
  }
  for (const CryptoBackend* backend : usable_backends()) {
    ScopedBackendOverride override_scope(*backend);
    auto out = aes_ctr_crypt(*aes, counter, data);
    ASSERT_TRUE(out.is_ok());
    EXPECT_EQ(util::hex_encode(*out), want) << backend->name();
  }
}

TEST(CryptoBackend, CtrXorIdentityAcrossBackends) {
  util::Rng rng(21);
  const CryptoBackend& oracle = detail::reference_backend();
  for (std::size_t key_len : {16u, 32u}) {
    const auto key = rng.bytes(key_len);
    auto aes = Aes::create(key);
    ASSERT_TRUE(aes.is_ok());
    auto counter = rng.bytes(16);
    // Force an inc32 wrap partway through the longer messages.
    counter[12] = counter[13] = counter[14] = 0xFF;
    counter[15] = 0xFD;
    // Lengths straddle the 8-blocks-in-flight AES-NI loop, its 1-block
    // tail, and partial final blocks.
    for (std::size_t len : {1u, 15u, 16u, 17u, 127u, 128u, 129u, 333u,
                            1408u, 1442u}) {
      const auto data = rng.bytes(len);
      std::vector<std::uint8_t> want(len);
      oracle.aes_ctr_xor(*aes, counter.data(), data.data(), want.data(), len);
      for (const CryptoBackend* backend : usable_backends()) {
        std::vector<std::uint8_t> got(len);
        backend->aes_ctr_xor(*aes, counter.data(), data.data(), got.data(),
                             len);
        EXPECT_EQ(got, want) << backend->name() << " len " << len;
        // In-place operation must match.
        std::vector<std::uint8_t> in_place = data;
        backend->aes_ctr_xor(*aes, counter.data(), in_place.data(),
                             in_place.data(), len);
        EXPECT_EQ(in_place, want) << backend->name() << " in-place " << len;
      }
    }
  }
}

TEST(CryptoBackend, GhashIdentityAcrossBackends) {
  util::Rng rng(22);
  const CryptoBackend& oracle = detail::reference_backend();
  for (int trial = 0; trial < 4; ++trial) {
    const auto h = rng.bytes(16);
    GhashKey oracle_key;
    std::copy(h.begin(), h.end(), oracle_key.h);
    oracle.ghash_init(oracle_key);
    // Block counts straddle the PCLMUL 4-block aggregation and its tail.
    for (std::size_t nblocks : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 90u}) {
      const auto data = rng.bytes(nblocks * 16);
      const auto start = rng.bytes(16);
      std::uint8_t want[16];
      std::copy(start.begin(), start.end(), want);
      oracle.ghash(oracle_key, want, data.data(), nblocks);
      for (const CryptoBackend* backend : usable_backends()) {
        GhashKey key;
        std::copy(h.begin(), h.end(), key.h);
        backend->ghash_init(key);
        EXPECT_EQ(key.owner, backend) << backend->name();
        std::uint8_t got[16];
        std::copy(start.begin(), start.end(), got);
        backend->ghash(key, got, data.data(), nblocks);
        EXPECT_EQ(util::hex_encode({got, 16}), util::hex_encode({want, 16}))
            << backend->name() << " nblocks " << nblocks;
      }
    }
  }
}

TEST(CryptoBackend, GcmCryptFusedIdentityAcrossBackends) {
  // The fused gcm_crypt (stitched CTR+GHASH) vs the reference oracle's
  // split two-pass, both directions and in-place, at lengths straddling
  // the 8-block CTR chunk (128 B) and the 4-block GHASH aggregation
  // (64 B) plus their single-block and partial-byte tails.
  util::Rng rng(27);
  const CryptoBackend& oracle = detail::reference_backend();
  const auto key = rng.bytes(16);
  auto aes = Aes::create(key);
  ASSERT_TRUE(aes.is_ok());
  GhashKey oracle_key;
  const std::uint8_t zero[16] = {};
  aes->encrypt_block(zero, oracle_key.h);  // H = AES_K(0), the GCM subkey
  oracle.ghash_init(oracle_key);
  for (std::size_t len :
       {1u,   15u,  16u,  17u,  63u,  64u,  65u,   79u,   80u,  127u,
        128u, 129u, 143u, 144u, 191u, 192u, 256u,  257u,  1408u, 1442u}) {
    auto counter = rng.bytes(16);
    // Force an inc32 wrap a few blocks in: the fused kernels carry
    // their own counter increments (SIMD lane add / ++block_ctr), so
    // the wrap must only touch the low 32 bits, never the nonce half.
    counter[12] = counter[13] = counter[14] = 0xFF;
    counter[15] = 0xFD;
    const auto data = rng.bytes(len);
    const auto start = rng.bytes(16);
    std::vector<std::uint8_t> want_ct(len);
    std::uint8_t want_state[16];
    std::copy(start.begin(), start.end(), want_state);
    oracle.gcm_crypt(*aes, oracle_key, counter.data(), data.data(),
                     want_ct.data(), len, want_state, /*encrypt=*/true);
    for (const CryptoBackend* backend : usable_backends()) {
      GhashKey bkey;
      std::copy(oracle_key.h, oracle_key.h + 16, bkey.h);
      backend->ghash_init(bkey);

      std::vector<std::uint8_t> got(len);
      std::uint8_t state[16];
      std::copy(start.begin(), start.end(), state);
      backend->gcm_crypt(*aes, bkey, counter.data(), data.data(), got.data(),
                         len, state, /*encrypt=*/true);
      EXPECT_EQ(got, want_ct) << backend->name() << " enc len " << len;
      EXPECT_EQ(util::hex_encode({state, 16}),
                util::hex_encode({want_state, 16}))
          << backend->name() << " enc state len " << len;

      // Decrypt direction: feeding the ciphertext must restore the
      // plaintext and hash the *input* to the same state.
      std::vector<std::uint8_t> back(len);
      std::copy(start.begin(), start.end(), state);
      backend->gcm_crypt(*aes, bkey, counter.data(), want_ct.data(),
                         back.data(), len, state, /*encrypt=*/false);
      EXPECT_EQ(back, data) << backend->name() << " dec len " << len;
      EXPECT_EQ(util::hex_encode({state, 16}),
                util::hex_encode({want_state, 16}))
          << backend->name() << " dec state len " << len;

      // In-place, both directions.
      std::vector<std::uint8_t> buf = data;
      std::copy(start.begin(), start.end(), state);
      backend->gcm_crypt(*aes, bkey, counter.data(), buf.data(), buf.data(),
                         len, state, /*encrypt=*/true);
      EXPECT_EQ(buf, want_ct) << backend->name() << " in-place enc " << len;
      std::copy(start.begin(), start.end(), state);
      backend->gcm_crypt(*aes, bkey, counter.data(), buf.data(), buf.data(),
                         len, state, /*encrypt=*/false);
      EXPECT_EQ(buf, data) << backend->name() << " in-place dec " << len;
      EXPECT_EQ(util::hex_encode({state, 16}),
                util::hex_encode({want_state, 16}))
          << backend->name() << " in-place dec state " << len;
    }
  }
}

TEST(CryptoBackend, GcmOpenWipesPlaintextOnAuthFailure) {
  // The fused open produces plaintext before the tag verdict; on failure
  // every byte must be wiped, never released.
  util::Rng rng(28);
  const auto key = rng.bytes(16);
  const auto iv = rng.bytes(GcmContext::kIvSize);
  const auto plain = rng.bytes(300);
  for (const CryptoBackend* backend : usable_backends()) {
    ScopedBackendOverride override_scope(*backend);
    auto gcm = GcmContext::create(key);
    ASSERT_TRUE(gcm.is_ok());
    std::vector<std::uint8_t> cipher(plain.size());
    std::uint8_t tag[GcmContext::kTagSize];
    ASSERT_TRUE(gcm->seal(iv, {}, plain, cipher.data(), tag).is_ok());
    tag[0] ^= 0x01;
    std::vector<std::uint8_t> out(cipher.size(), 0xAA);
    ASSERT_FALSE(gcm->open(iv, {}, cipher, {tag, sizeof(tag)}, out.data()))
        << backend->name();
    EXPECT_EQ(out, std::vector<std::uint8_t>(cipher.size(), 0))
        << backend->name();
  }
}

TEST(CryptoBackend, GcmSealIdenticalAcrossBackendsRandomLengths) {
  util::Rng rng(23);
  const auto key = rng.bytes(16);
  for (int trial = 0; trial < 8; ++trial) {
    const auto iv = rng.bytes(GcmContext::kIvSize);
    const auto aad = rng.bytes(trial * 7);  // 0..49 bytes of AAD
    const auto plain = rng.bytes(1 + (trial * 211) % 1500);
    std::vector<std::uint8_t> want_cipher;
    std::string want_tag;
    for (const CryptoBackend* backend : usable_backends()) {
      ScopedBackendOverride override_scope(*backend);
      auto gcm = GcmContext::create(key);
      ASSERT_TRUE(gcm.is_ok());
      std::vector<std::uint8_t> cipher(plain.size());
      std::uint8_t tag[GcmContext::kTagSize];
      ASSERT_TRUE(gcm->seal(iv, aad, plain, cipher.data(), tag).is_ok());
      if (want_tag.empty()) {
        want_cipher = cipher;
        want_tag = util::hex_encode({tag, sizeof(tag)});
      } else {
        EXPECT_EQ(cipher, want_cipher) << backend->name();
        EXPECT_EQ(util::hex_encode({tag, sizeof(tag)}), want_tag)
            << backend->name();
      }
      std::vector<std::uint8_t> back(cipher.size());
      EXPECT_TRUE(
          gcm->open(iv, aad, cipher, {tag, sizeof(tag)}, back.data()))
          << backend->name();
      EXPECT_EQ(back, plain) << backend->name();
    }
  }
}

TEST(CryptoBackend, GcmContextSurvivesBackendSwitch) {
  // One context, used under every backend in turn: the lazily re-derived
  // GHASH table must keep outputs bit-identical.
  util::Rng rng(24);
  const auto key = rng.bytes(16);
  const auto iv = rng.bytes(GcmContext::kIvSize);
  const auto plain = rng.bytes(200);
  auto gcm = GcmContext::create(key);
  ASSERT_TRUE(gcm.is_ok());
  std::string want;
  for (const CryptoBackend* backend : usable_backends()) {
    ScopedBackendOverride override_scope(*backend);
    std::vector<std::uint8_t> cipher(plain.size());
    std::uint8_t tag[GcmContext::kTagSize];
    ASSERT_TRUE(gcm->seal(iv, {}, plain, cipher.data(), tag).is_ok());
    const std::string got =
        util::hex_encode(cipher) + util::hex_encode({tag, sizeof(tag)});
    if (want.empty()) {
      want = got;
    } else {
      EXPECT_EQ(got, want) << backend->name();
    }
  }

  // The escalation ladder explicitly: portable -> aesni -> vaes mid-stream
  // on ONE context, each step re-deriving the GHASH table into a layout
  // the previous owner never wrote (Shoup 4-bit table vs H^1..H^8 power
  // pairs). The audit point is that hkey()'s owner check really fires on
  // every hop — a stale table surviving one hop would corrupt every tag.
  for (const char* name : {"portable", "aesni", "vaes", "portable"}) {
    const CryptoBackend* backend = backend_by_name(name);
    ASSERT_NE(backend, nullptr);
    if (!backend->usable()) continue;
    ScopedBackendOverride override_scope(*backend);
    std::vector<std::uint8_t> cipher(plain.size());
    std::uint8_t tag[GcmContext::kTagSize];
    ASSERT_TRUE(gcm->seal(iv, {}, plain, cipher.data(), tag).is_ok());
    EXPECT_EQ(util::hex_encode(cipher) + util::hex_encode({tag, sizeof(tag)}),
              want)
        << "after switching to " << name;
  }
}

TEST(CryptoBackend, GcmTamperedInputFailsOpen) {
  util::Rng rng(25);
  const auto key = rng.bytes(16);
  const auto iv = rng.bytes(GcmContext::kIvSize);
  const auto aad = rng.bytes(20);
  const auto plain = rng.bytes(300);
  for (const CryptoBackend* backend : usable_backends()) {
    ScopedBackendOverride override_scope(*backend);
    auto gcm = GcmContext::create(key);
    ASSERT_TRUE(gcm.is_ok());
    std::vector<std::uint8_t> cipher(plain.size());
    std::uint8_t tag[GcmContext::kTagSize];
    ASSERT_TRUE(gcm->seal(iv, aad, plain, cipher.data(), tag).is_ok());
    std::vector<std::uint8_t> out(cipher.size());

    std::uint8_t bad_tag[GcmContext::kTagSize];
    std::copy(tag, tag + sizeof(tag), bad_tag);
    bad_tag[5] ^= 0x01;
    EXPECT_FALSE(
        gcm->open(iv, aad, cipher, {bad_tag, sizeof(bad_tag)}, out.data()))
        << backend->name() << " flipped tag byte must fail";

    auto bad_cipher = cipher;
    bad_cipher[17] ^= 0x80;
    EXPECT_FALSE(
        gcm->open(iv, aad, bad_cipher, {tag, sizeof(tag)}, out.data()))
        << backend->name() << " flipped ciphertext byte must fail";

    auto bad_aad = aad;
    bad_aad[0] ^= 0x01;
    EXPECT_FALSE(
        gcm->open(iv, bad_aad, cipher, {tag, sizeof(tag)}, out.data()))
        << backend->name() << " flipped AAD byte must fail";

    EXPECT_TRUE(gcm->open(iv, aad, cipher, {tag, sizeof(tag)}, out.data()))
        << backend->name() << " untampered must still verify";
    EXPECT_EQ(out, plain) << backend->name();
  }
}

TEST(CryptoBackend, ScheduleCacheBitIdenticalToWordSchedules) {
  // The cached byte-serialised schedules must be exactly the big-endian
  // serialisation of the word schedules (the AESENC/AESDEC register
  // layout), identical no matter which backend is active, and stable
  // across repeated reads (filled once at key expansion).
  util::Rng rng(26);
  for (std::size_t key_len : {16u, 24u, 32u}) {
    const auto key = rng.bytes(key_len);
    auto aes = Aes::create(key);
    ASSERT_TRUE(aes.is_ok());
    const auto enc_words = aes->enc_round_keys();
    const auto dec_words = aes->dec_round_keys();
    std::vector<std::uint8_t> want_enc(enc_words.size() * 4);
    std::vector<std::uint8_t> want_dec(dec_words.size() * 4);
    for (std::size_t i = 0; i < enc_words.size(); ++i) {
      util::store_be32(want_enc.data() + 4 * i, enc_words[i]);
      util::store_be32(want_dec.data() + 4 * i, dec_words[i]);
    }
    const auto enc_bytes = aes->enc_schedule_bytes();
    const auto dec_bytes = aes->dec_schedule_bytes();
    EXPECT_EQ(util::hex_encode(enc_bytes), util::hex_encode(want_enc));
    EXPECT_EQ(util::hex_encode(dec_bytes), util::hex_encode(want_dec));
    for (const CryptoBackend* backend : usable_backends()) {
      ScopedBackendOverride override_scope(*backend);
      // Cache hit: same storage, same bytes, regardless of active backend.
      EXPECT_EQ(aes->enc_schedule_bytes().data(), enc_bytes.data())
          << backend->name();
      EXPECT_EQ(util::hex_encode(aes->enc_schedule_bytes()),
                util::hex_encode(want_enc))
          << backend->name();
      EXPECT_EQ(util::hex_encode(aes->dec_schedule_bytes()),
                util::hex_encode(want_dec))
          << backend->name();
    }
  }
}

// The acceptance property in ISSUE terms: an ESP packet encapsulated under
// one backend is byte-identical under every other, so a tunnel can span
// hosts with different backend selections.
TEST(CryptoBackend, EspWireFormatIdenticalAcrossBackends) {
  const nnf::NfConfig config = {
      {"local_ip", "198.51.100.1"}, {"peer_ip", "198.51.100.2"},
      {"spi_out", "1001"},          {"spi_in", "2002"},
      {"enc_key", "000102030405060708090a0b0c0d0e0f"},
      {"auth_key",
       "202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f"}};
  const auto make_frame = [] {
    util::Rng rng(42);
    packet::UdpFrameSpec spec;
    spec.ip_src = *packet::Ipv4Address::parse("192.168.1.10");
    spec.ip_dst = *packet::Ipv4Address::parse("10.8.0.5");
    static std::vector<std::uint8_t> payload;
    payload = rng.bytes(400);
    spec.payload = payload;
    return packet::build_udp_frame(spec);
  };

  std::vector<std::uint8_t> want;
  for (const CryptoBackend* backend : usable_backends()) {
    ScopedBackendOverride override_scope(*backend);
    nnf::IpsecEndpoint endpoint;
    ASSERT_TRUE(endpoint.configure(nnf::kDefaultContext, config).is_ok());
    auto outs = endpoint.process(nnf::kDefaultContext, 0, 0, make_frame());
    ASSERT_EQ(outs.size(), 1u) << backend->name();
    std::vector<std::uint8_t> wire(outs[0].frame.data().begin(),
                                   outs[0].frame.data().end());
    if (want.empty()) {
      want = wire;
    } else {
      EXPECT_EQ(wire, want) << backend->name();
    }
  }
}

// ---------------------------------------------------------------------------
// Multi-buffer GCM: the batched kernels vs the reference oracle.
// ---------------------------------------------------------------------------

// One gcm_crypt_mb batch on every usable backend vs the reference oracle
// (whose base implementation loops the single-buffer gcm_crypt), expecting
// bit-identical outputs AND GHASH states per lane. Both directions are a
// true differential over the same random inputs: "decrypt" of arbitrary
// bytes is legal (CTR keystream + GHASH over the input side), so no
// seal-first setup is needed. pre_block/post_block presence is varied per
// lane so the kernel's in-pass folds are exercised against the oracle's
// explicit ghash() round trips.
void expect_mb_matches_oracle(const std::vector<std::size_t>& lens,
                              bool encrypt, bool in_place,
                              std::uint32_t seed) {
  util::Rng rng(seed);
  const auto key = rng.bytes(16);
  auto aes = Aes::create(key);
  ASSERT_TRUE(aes.is_ok());
  const std::uint8_t zero[16] = {};
  const std::size_t nlanes = lens.size();
  ASSERT_LE(nlanes, CryptoBackend::kMaxMbLanes);

  std::vector<std::vector<std::uint8_t>> data(nlanes), counters(nlanes),
      starts(nlanes), pres(nlanes), posts(nlanes);
  for (std::size_t i = 0; i < nlanes; ++i) {
    counters[i] = rng.bytes(16);
    if (i % 2 == 0) {
      // Force an inc32 wrap a few blocks in on alternating lanes: the
      // interleaved kernels carry per-lane counters in SIMD registers,
      // so a wrap must only touch that lane's low 32 bits.
      counters[i][12] = counters[i][13] = counters[i][14] = 0xFF;
      counters[i][15] = 0xFD;
    }
    data[i] = rng.bytes(lens[i]);
    starts[i] = rng.bytes(16);
    pres[i] = rng.bytes(16);
    posts[i] = rng.bytes(16);
  }

  const auto run = [&](const CryptoBackend& backend, const GhashKey& bkey,
                       std::vector<std::vector<std::uint8_t>>& outs,
                       std::vector<std::vector<std::uint8_t>>& states) {
    GcmMbLane lanes[CryptoBackend::kMaxMbLanes];
    outs.resize(nlanes);
    states.resize(nlanes);
    for (std::size_t i = 0; i < nlanes; ++i) {
      outs[i] = in_place ? data[i] : std::vector<std::uint8_t>(lens[i]);
      states[i] = starts[i];
      lanes[i].counter = counters[i].data();
      lanes[i].in = in_place ? outs[i].data() : data[i].data();
      lanes[i].out = outs[i].data();
      lanes[i].len = lens[i];
      lanes[i].state = states[i].data();
      lanes[i].encrypt = encrypt;
      lanes[i].pre_block = (i % 3 != 2) ? pres[i].data() : nullptr;
      lanes[i].post_block = (i % 2 == 0) ? posts[i].data() : nullptr;
    }
    return backend.gcm_crypt_mb(*aes, bkey, lanes, nlanes);
  };

  const CryptoBackend& oracle = detail::reference_backend();
  GhashKey okey;
  aes->encrypt_block(zero, okey.h);
  oracle.ghash_init(okey);
  std::vector<std::vector<std::uint8_t>> want_out, want_state;
  ASSERT_TRUE(run(oracle, okey, want_out, want_state));

  for (const CryptoBackend* backend : usable_backends()) {
    GhashKey bkey;
    aes->encrypt_block(zero, bkey.h);
    backend->ghash_init(bkey);
    std::vector<std::vector<std::uint8_t>> got_out, got_state;
    ASSERT_TRUE(run(*backend, bkey, got_out, got_state)) << backend->name();
    for (std::size_t i = 0; i < nlanes; ++i) {
      EXPECT_EQ(util::hex_encode(got_out[i]), util::hex_encode(want_out[i]))
          << backend->name() << " lane " << i << " len " << lens[i]
          << (encrypt ? " enc" : " dec") << (in_place ? " in-place" : "");
      EXPECT_EQ(util::hex_encode(got_state[i]),
                util::hex_encode(want_state[i]))
          << backend->name() << " lane " << i << " state, len " << lens[i]
          << (encrypt ? " enc" : " dec") << (in_place ? " in-place" : "");
    }
  }
}

TEST(CryptoBackend, GcmCryptMbMatchesReferenceOracle) {
  // Ragged batches at every lane count: lengths straddle the 128-byte
  // chunk pipeline, the 8-block GHASH aggregation (128 B of ciphertext),
  // partial final blocks and single-byte lanes.
  constexpr std::size_t kLens[] = {1,   31,  63,  64,  96,  127, 128,
                                   129, 255, 256, 257, 576, 1408};
  constexpr std::size_t kNumLens = sizeof(kLens) / sizeof(kLens[0]);
  std::vector<std::vector<std::size_t>> cases;
  for (std::size_t nlanes = 1; nlanes <= CryptoBackend::kMaxMbLanes;
       ++nlanes) {
    std::vector<std::size_t> lens(nlanes);
    for (std::size_t l = 0; l < nlanes; ++l) {
      lens[l] = kLens[(l * 5 + nlanes) % kNumLens];
    }
    cases.push_back(std::move(lens));
  }
  // Uniform full batches: 8 equal lanes with 32 <= len < 128 take the
  // register-resident uniform8 kernel on VAES; 128/256 take the chunk
  // pipeline with zero remainder. Both specialisations must face the
  // oracle directly, not only via the ragged mix above.
  for (const std::size_t len : {32u, 64u, 96u, 120u, 127u, 128u, 256u}) {
    cases.emplace_back(CryptoBackend::kMaxMbLanes, len);
  }
  std::uint32_t seed = 4000;
  for (const auto& lens : cases) {
    for (const bool encrypt : {true, false}) {
      for (const bool in_place : {false, true}) {
        expect_mb_matches_oracle(lens, encrypt, in_place, seed++);
      }
    }
  }
}

TEST(CryptoBackend, GcmCryptMbRejectsBadBatches) {
  // Mixed directions, zero lanes and too many lanes are rejected with no
  // lane touched, on every backend (the contract in backend.hpp).
  util::Rng rng(31);
  const auto key = rng.bytes(16);
  auto aes = Aes::create(key);
  ASSERT_TRUE(aes.is_ok());
  const std::uint8_t zero[16] = {};
  for (const CryptoBackend* backend : usable_backends()) {
    GhashKey bkey;
    aes->encrypt_block(zero, bkey.h);
    backend->ghash_init(bkey);

    constexpr std::size_t kTooMany = CryptoBackend::kMaxMbLanes + 1;
    std::vector<std::vector<std::uint8_t>> bufs(kTooMany),
        states(kTooMany), counters(kTooMany);
    GcmMbLane lanes[kTooMany];
    for (std::size_t i = 0; i < kTooMany; ++i) {
      bufs[i] = rng.bytes(100);
      states[i] = rng.bytes(16);
      counters[i] = rng.bytes(16);
      lanes[i].counter = counters[i].data();
      lanes[i].in = bufs[i].data();
      lanes[i].out = bufs[i].data();
      lanes[i].len = bufs[i].size();
      lanes[i].state = states[i].data();
      lanes[i].encrypt = true;
    }
    const auto bufs_before = bufs;
    const auto states_before = states;

    lanes[1].encrypt = false;  // mixed direction
    EXPECT_FALSE(backend->gcm_crypt_mb(*aes, bkey, lanes, 2))
        << backend->name() << " mixed direction must be rejected";
    lanes[1].encrypt = true;
    EXPECT_FALSE(backend->gcm_crypt_mb(*aes, bkey, lanes, 0))
        << backend->name() << " nlanes == 0 must be rejected";
    EXPECT_FALSE(backend->gcm_crypt_mb(*aes, bkey, lanes, kTooMany))
        << backend->name() << " nlanes > kMaxMbLanes must be rejected";
    EXPECT_EQ(bufs, bufs_before)
        << backend->name() << " rejected batch must not touch buffers";
    EXPECT_EQ(states, states_before)
        << backend->name() << " rejected batch must not touch GHASH states";
  }
}

TEST(CryptoBackend, GcmMbSealOpenPerLaneTamper) {
  // seal_mb must be bit-identical to per-lane seal(), and open_mb must
  // fail lanes INDEPENDENTLY: one forged packet in a batch wipes only its
  // own output, every honest sibling still authenticates.
  util::Rng rng(33);
  const auto key = rng.bytes(16);
  constexpr std::size_t kLanes = CryptoBackend::kMaxMbLanes;
  const std::size_t lens[kLanes] = {1, 64, 65, 127, 128, 129, 576, 1408};
  for (const CryptoBackend* backend : usable_backends()) {
    ScopedBackendOverride override_scope(*backend);
    auto gcm = GcmContext::create(key);
    ASSERT_TRUE(gcm.is_ok());

    std::vector<std::vector<std::uint8_t>> ivs(kLanes), aads(kLanes),
        plains(kLanes), ciphers(kLanes), tags(kLanes);
    GcmMbOp ops[kLanes];
    for (std::size_t i = 0; i < kLanes; ++i) {
      ivs[i] = rng.bytes(GcmContext::kIvSize);
      aads[i] = rng.bytes((i * 5) % 24);  // 0..20 bytes, some empty
      plains[i] = rng.bytes(lens[i]);
      ciphers[i].resize(lens[i]);
      tags[i].resize(GcmContext::kTagSize);
      ops[i].iv = ivs[i];
      ops[i].aad = aads[i];
      ops[i].input = plains[i];
      ops[i].output = ciphers[i].data();
      ops[i].tag = tags[i].data();
    }
    ASSERT_TRUE(gcm->seal_mb(ops, kLanes).is_ok()) << backend->name();

    // Bit-identity vs the single-lane path.
    for (std::size_t i = 0; i < kLanes; ++i) {
      std::vector<std::uint8_t> want_ct(lens[i]);
      std::uint8_t want_tag[GcmContext::kTagSize];
      ASSERT_TRUE(gcm->seal(ivs[i], aads[i], plains[i], want_ct.data(),
                            want_tag)
                      .is_ok());
      EXPECT_EQ(ciphers[i], want_ct)
          << backend->name() << " lane " << i << " ct vs single-lane seal";
      EXPECT_EQ(util::hex_encode(tags[i]),
                util::hex_encode({want_tag, sizeof(want_tag)}))
          << backend->name() << " lane " << i << " tag vs single-lane seal";
    }

    // Honest round trip first.
    std::vector<std::vector<std::uint8_t>> outs(kLanes);
    bool ok[kLanes];
    for (std::size_t i = 0; i < kLanes; ++i) {
      outs[i].assign(lens[i], 0xAA);
      ops[i].input = ciphers[i];
      ops[i].output = outs[i].data();
    }
    EXPECT_TRUE(gcm->open_mb(ops, kLanes, ok)) << backend->name();
    for (std::size_t i = 0; i < kLanes; ++i) {
      EXPECT_TRUE(ok[i]) << backend->name() << " lane " << i;
      EXPECT_EQ(outs[i], plains[i]) << backend->name() << " lane " << i;
    }

    // Tamper one lane at a time (ciphertext for one victim, tag for
    // another, AAD for a third): only the victim fails and is wiped.
    enum class Tamper { kCt, kTag, kAad };
    const struct {
      std::size_t lane;
      Tamper what;
    } tampers[] = {{0, Tamper::kTag}, {3, Tamper::kCt}, {7, Tamper::kAad}};
    for (const auto& t : tampers) {
      auto bad_ciphers = ciphers;
      auto bad_tags = tags;
      auto bad_aads = aads;
      switch (t.what) {
        case Tamper::kCt:
          bad_ciphers[t.lane][lens[t.lane] / 2] ^= 0x01;
          break;
        case Tamper::kTag:
          bad_tags[t.lane][9] ^= 0x80;
          break;
        case Tamper::kAad:
          if (bad_aads[t.lane].empty()) {
            bad_aads[t.lane].push_back(0x55);
          } else {
            bad_aads[t.lane][0] ^= 0x01;
          }
          break;
      }
      for (std::size_t i = 0; i < kLanes; ++i) {
        outs[i].assign(lens[i], 0xAA);
        ops[i].aad = bad_aads[i];
        ops[i].input = bad_ciphers[i];
        ops[i].output = outs[i].data();
        ops[i].tag = bad_tags[i].data();
      }
      EXPECT_FALSE(gcm->open_mb(ops, kLanes, ok))
          << backend->name() << " tampered lane " << t.lane;
      for (std::size_t i = 0; i < kLanes; ++i) {
        if (i == t.lane) {
          EXPECT_FALSE(ok[i])
              << backend->name() << " tampered lane " << i << " must fail";
          EXPECT_EQ(outs[i], std::vector<std::uint8_t>(lens[i], 0))
              << backend->name() << " tampered lane " << i << " must be wiped";
        } else {
          EXPECT_TRUE(ok[i])
              << backend->name() << " honest lane " << i << " must survive";
          EXPECT_EQ(outs[i], plains[i]) << backend->name() << " lane " << i;
        }
      }
      // Restore shared op state for the next tamper round.
      for (std::size_t i = 0; i < kLanes; ++i) {
        ops[i].aad = aads[i];
        ops[i].tag = tags[i].data();
      }
    }

    // A one-lane batch keeps the same contract: verdict, wipe on forgery.
    GcmMbOp& lone = ops[6];
    lone.input = ciphers[6];
    outs[6].assign(lens[6], 0xAA);
    EXPECT_TRUE(gcm->open_mb(&lone, 1, ok)) << backend->name();
    EXPECT_TRUE(ok[0]);
    EXPECT_EQ(outs[6], plains[6]) << backend->name();
    auto bad_tag = tags[6];
    bad_tag[0] ^= 0x01;
    lone.tag = bad_tag.data();
    EXPECT_FALSE(gcm->open_mb(&lone, 1, ok)) << backend->name();
    EXPECT_FALSE(ok[0]);
    EXPECT_EQ(outs[6], std::vector<std::uint8_t>(lens[6], 0))
        << backend->name() << " forged lone lane must be wiped";
  }
}

}  // namespace
}  // namespace nnfv::crypto
