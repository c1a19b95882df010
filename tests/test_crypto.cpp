// Crypto tests against published vectors (FIPS 197, RFC 4231, NIST SHA)
// plus property-style roundtrips for the cipher modes.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "crypto/aes.hpp"
#include "crypto/cipher_modes.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace nnfv::crypto {
namespace {

std::vector<std::uint8_t> from_hex(const std::string& hex) {
  std::vector<std::uint8_t> out;
  EXPECT_TRUE(util::hex_decode(hex, out));
  return out;
}

std::vector<std::uint8_t> bytes_of(const std::string& text) {
  return {text.begin(), text.end()};
}

template <typename Array>
std::string hex_of(const Array& digest) {
  return util::hex_encode({digest.data(), digest.size()});
}

// ---------------------------------------------------------------------------
// SHA-256 (FIPS 180-4 / NIST CAVS vectors)
// ---------------------------------------------------------------------------

TEST(Sha256, EmptyString) {
  EXPECT_EQ(hex_of(Sha256::digest({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hex_of(Sha256::digest(bytes_of("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(
      hex_of(Sha256::digest(bytes_of(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 hash;
  const std::vector<std::uint8_t> chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) hash.update(chunk);
  EXPECT_EQ(hex_of(hash.final()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string text = "The quick brown fox jumps over the lazy dog";
  Sha256 incremental;
  for (char c : text) {
    const std::uint8_t byte = static_cast<std::uint8_t>(c);
    incremental.update({&byte, 1});
  }
  EXPECT_EQ(hex_of(incremental.final()),
            hex_of(Sha256::digest(bytes_of(text))));
}

TEST(Sha256, BoundaryLengths) {
  // 55/56/64 bytes straddle the padding boundary.
  for (std::size_t n : {55u, 56u, 63u, 64u, 65u, 119u, 120u}) {
    const std::vector<std::uint8_t> data(n, 0x5A);
    Sha256 split;
    split.update({data.data(), n / 2});
    split.update({data.data() + n / 2, n - n / 2});
    EXPECT_EQ(hex_of(split.final()), hex_of(Sha256::digest(data)))
        << "length " << n;
  }
}

// ---------------------------------------------------------------------------
// HMAC-SHA256 (RFC 4231)
// ---------------------------------------------------------------------------

TEST(HmacSha256, Rfc4231Case1) {
  const auto key = std::vector<std::uint8_t>(20, 0x0b);
  EXPECT_EQ(hex_of(HmacSha256::mac(key, bytes_of("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
  EXPECT_EQ(hex_of(HmacSha256::mac(bytes_of("Jefe"),
                                   bytes_of("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, Rfc4231Case3FiftyAa) {
  const auto key = std::vector<std::uint8_t>(20, 0xaa);
  const auto data = std::vector<std::uint8_t>(50, 0xdd);
  EXPECT_EQ(hex_of(HmacSha256::mac(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacSha256, Rfc4231Case6LongKey) {
  // 131-byte key forces the hash-the-key path.
  const auto key = std::vector<std::uint8_t>(131, 0xaa);
  EXPECT_EQ(hex_of(HmacSha256::mac(
                key, bytes_of("Test Using Larger Than Block-Size Key - "
                              "Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, IncrementalMatchesOneShot) {
  const auto key = bytes_of("secret-key");
  const auto data = bytes_of("some message to authenticate");
  HmacSha256 incremental(key);
  incremental.update({data.data(), 5});
  incremental.update({data.data() + 5, data.size() - 5});
  EXPECT_EQ(hex_of(incremental.final()), hex_of(HmacSha256::mac(key, data)));
}

TEST(ConstantTimeEqual, Basics) {
  const auto a = bytes_of("0123456789abcdef");
  auto b = a;
  EXPECT_TRUE(constant_time_equal(a, b));
  b[15] ^= 1;
  EXPECT_FALSE(constant_time_equal(a, b));
  EXPECT_FALSE(constant_time_equal(a, {b.data(), 15}));
}

// ---------------------------------------------------------------------------
// AES (FIPS 197 appendix vectors)
// ---------------------------------------------------------------------------

TEST(Aes, Fips197Aes128) {
  auto aes = Aes::create(from_hex("000102030405060708090a0b0c0d0e0f"));
  ASSERT_TRUE(aes.is_ok());
  EXPECT_EQ(aes->rounds(), 10);
  const auto plain = from_hex("00112233445566778899aabbccddeeff");
  std::uint8_t cipher[16];
  aes->encrypt_block(plain.data(), cipher);
  EXPECT_EQ(util::hex_encode({cipher, 16}),
            "69c4e0d86a7b0430d8cdb78070b4c55a");
  std::uint8_t back[16];
  aes->decrypt_block(cipher, back);
  EXPECT_EQ(util::hex_encode({back, 16}), util::hex_encode(plain));
}

TEST(Aes, Fips197Aes192) {
  auto aes = Aes::create(
      from_hex("000102030405060708090a0b0c0d0e0f1011121314151617"));
  ASSERT_TRUE(aes.is_ok());
  EXPECT_EQ(aes->rounds(), 12);
  const auto plain = from_hex("00112233445566778899aabbccddeeff");
  std::uint8_t cipher[16];
  aes->encrypt_block(plain.data(), cipher);
  EXPECT_EQ(util::hex_encode({cipher, 16}),
            "dda97ca4864cdfe06eaf70a0ec0d7191");
}

TEST(Aes, Fips197Aes256) {
  auto aes = Aes::create(from_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"));
  ASSERT_TRUE(aes.is_ok());
  EXPECT_EQ(aes->rounds(), 14);
  const auto plain = from_hex("00112233445566778899aabbccddeeff");
  std::uint8_t cipher[16];
  aes->encrypt_block(plain.data(), cipher);
  EXPECT_EQ(util::hex_encode({cipher, 16}),
            "8ea2b7ca516745bfeafc49904b496089");
}

// NIST CAVP (AESAVS) known-answer vectors guarding the T-table rewrite.

TEST(Aes, CavpGfSboxAes128) {
  auto aes = Aes::create(std::vector<std::uint8_t>(16, 0));
  ASSERT_TRUE(aes.is_ok());
  const auto plain = from_hex("f34481ec3cc627bacd5dc3fb08f273e6");
  std::uint8_t cipher[16];
  aes->encrypt_block(plain.data(), cipher);
  EXPECT_EQ(util::hex_encode({cipher, 16}),
            "0336763e966d92595a567cc9ce537f5e");
  std::uint8_t back[16];
  aes->decrypt_block(cipher, back);
  EXPECT_EQ(util::hex_encode({back, 16}), util::hex_encode(plain));
}

TEST(Aes, CavpGfSboxAes256) {
  auto aes = Aes::create(std::vector<std::uint8_t>(32, 0));
  ASSERT_TRUE(aes.is_ok());
  const auto plain = from_hex("014730f80ac625fe84f026c60bfd547d");
  std::uint8_t cipher[16];
  aes->encrypt_block(plain.data(), cipher);
  EXPECT_EQ(util::hex_encode({cipher, 16}),
            "5c9d844ed46f9885085e5d6a4f94c7d7");
}

TEST(Aes, Fips197DecryptAllKeySizes) {
  // The equivalent-inverse-cipher schedule must invert the FIPS 197
  // appendix C ciphertexts for every key length.
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
  for (const auto& c : cases) {
    auto aes = Aes::create(from_hex(c.key));
    ASSERT_TRUE(aes.is_ok());
    const auto cipher = from_hex(c.cipher);
    std::uint8_t back[16];
    aes->decrypt_block(cipher.data(), back);
    EXPECT_EQ(util::hex_encode({back, 16}),
              "00112233445566778899aabbccddeeff");
  }
}

TEST(Aes, RandomRoundTripsAllKeySizes) {
  util::Rng rng(7);
  for (std::size_t key_len : {16u, 24u, 32u}) {
    for (int i = 0; i < 50; ++i) {
      auto aes = Aes::create(rng.bytes(key_len));
      ASSERT_TRUE(aes.is_ok());
      const auto plain = rng.bytes(16);
      std::uint8_t cipher[16], back[16];
      aes->encrypt_block(plain.data(), cipher);
      aes->decrypt_block(cipher, back);
      EXPECT_EQ(util::hex_encode({back, 16}), util::hex_encode(plain));
    }
  }
}

TEST(Aes, Sp80038aCbcEncrypt) {
  // NIST SP 800-38A F.2.1 (CBC-AES128.Encrypt), first two blocks.
  auto aes = Aes::create(from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
  ASSERT_TRUE(aes.is_ok());
  auto out = aes_cbc_encrypt_raw(
      aes.value(), from_hex("000102030405060708090a0b0c0d0e0f"),
      from_hex("6bc1bee22e409f96e93d7e117393172a"
               "ae2d8a571e03ac9c9eb76fac45af8e51"));
  ASSERT_TRUE(out.is_ok());
  EXPECT_EQ(util::hex_encode({out->data(), out->size()}),
            "7649abac8119b246cee98e9b12e9197d"
            "5086cb9b507219ee95db113a917678b2");
}

TEST(Aes, RejectsBadKeySizes) {
  EXPECT_FALSE(Aes::create(std::vector<std::uint8_t>(15)).is_ok());
  EXPECT_FALSE(Aes::create(std::vector<std::uint8_t>(17)).is_ok());
  EXPECT_FALSE(Aes::create(std::vector<std::uint8_t>(0)).is_ok());
  EXPECT_TRUE(Aes::create(std::vector<std::uint8_t>(24)).is_ok());
}

// ---------------------------------------------------------------------------
// Cipher modes
// ---------------------------------------------------------------------------

TEST(AesCbc, Rfc3602Vector1) {
  // RFC 3602 case 1: single block.
  auto aes = Aes::create(from_hex("06a9214036b8a15b512e03d534120006"));
  ASSERT_TRUE(aes.is_ok());
  const auto iv = from_hex("3dafba429d9eb430b422da802c9fac41");
  const auto plain = bytes_of("Single block msg");
  auto cipher = aes_cbc_encrypt_raw(*aes, iv, plain);
  ASSERT_TRUE(cipher.is_ok());
  EXPECT_EQ(util::hex_encode(*cipher), "e353779c1079aeb82708942dbe77181a");
}

class CbcRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CbcRoundTrip, PaddedEncryptDecryptIsIdentity) {
  util::Rng rng(GetParam() + 1);
  auto aes = Aes::create(rng.bytes(16));
  ASSERT_TRUE(aes.is_ok());
  const auto iv = rng.bytes(16);
  const auto plain = rng.bytes(GetParam());
  auto cipher = aes_cbc_encrypt(*aes, iv, plain);
  ASSERT_TRUE(cipher.is_ok());
  EXPECT_EQ(cipher->size() % 16, 0u);
  EXPECT_GT(cipher->size(), plain.size());  // always at least 1 pad byte
  auto back = aes_cbc_decrypt(*aes, iv, *cipher);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(*back, plain);
}

INSTANTIATE_TEST_SUITE_P(Lengths, CbcRoundTrip,
                         ::testing::Values(0, 1, 15, 16, 17, 31, 32, 100,
                                           1000, 1450));

TEST(AesCbc, DecryptRejectsCorruptPadding) {
  util::Rng rng(3);
  auto aes = Aes::create(rng.bytes(16));
  const auto iv = rng.bytes(16);
  auto cipher = aes_cbc_encrypt(*aes, iv, rng.bytes(40));
  ASSERT_TRUE(cipher.is_ok());
  // Corrupt the last block (padding lives there).
  cipher->back() ^= 0xFF;
  auto back = aes_cbc_decrypt(*aes, iv, *cipher);
  // Either bad padding or (rarely) garbage that still parses — with this
  // seed it must fail.
  EXPECT_FALSE(back.is_ok());
}

TEST(AesCbc, RejectsBadInputs) {
  util::Rng rng(4);
  auto aes = Aes::create(rng.bytes(16));
  const auto iv15 = rng.bytes(15);
  EXPECT_FALSE(aes_cbc_encrypt(*aes, iv15, rng.bytes(16)).is_ok());
  const auto iv = rng.bytes(16);
  EXPECT_FALSE(aes_cbc_decrypt(*aes, iv, rng.bytes(15)).is_ok());
  EXPECT_FALSE(aes_cbc_decrypt(*aes, iv, {}).is_ok());
  EXPECT_FALSE(aes_cbc_encrypt_raw(*aes, iv, rng.bytes(17)).is_ok());
}

class CtrRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CtrRoundTrip, CryptTwiceIsIdentity) {
  util::Rng rng(GetParam() + 99);
  auto aes = Aes::create(rng.bytes(16));
  ASSERT_TRUE(aes.is_ok());
  const auto counter = rng.bytes(16);
  const auto plain = rng.bytes(GetParam());
  auto cipher = aes_ctr_crypt(*aes, counter, plain);
  ASSERT_TRUE(cipher.is_ok());
  EXPECT_EQ(cipher->size(), plain.size());
  auto back = aes_ctr_crypt(*aes, counter, *cipher);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(*back, plain);
}

INSTANTIATE_TEST_SUITE_P(Lengths, CtrRoundTrip,
                         ::testing::Values(0, 1, 16, 17, 333, 1450));

TEST(AesCtr, CounterIncrementCrossesBlockBoundary) {
  // A counter of all-FF must wrap without corrupting the stream:
  // encrypting 2 blocks equals encrypting each block with its counter.
  util::Rng rng(5);
  auto aes = Aes::create(rng.bytes(16));
  std::vector<std::uint8_t> counter(16, 0xFF);
  const auto plain = rng.bytes(32);
  auto whole = aes_ctr_crypt(*aes, counter, plain);
  ASSERT_TRUE(whole.is_ok());

  auto first = aes_ctr_crypt(*aes, counter, {plain.data(), 16});
  std::vector<std::uint8_t> counter2(16, 0x00);  // FF..FF + 1 wraps to zero
  auto second = aes_ctr_crypt(*aes, counter2, {plain.data() + 16, 16});
  ASSERT_TRUE(first.is_ok());
  ASSERT_TRUE(second.is_ok());
  std::vector<std::uint8_t> stitched = *first;
  stitched.insert(stitched.end(), second->begin(), second->end());
  EXPECT_EQ(*whole, stitched);
}

TEST(AesCbcRaw, RoundTripAndChaining) {
  util::Rng rng(6);
  auto aes = Aes::create(rng.bytes(16));
  const auto iv = rng.bytes(16);
  const auto plain = rng.bytes(64);
  auto cipher = aes_cbc_encrypt_raw(*aes, iv, plain);
  ASSERT_TRUE(cipher.is_ok());
  EXPECT_EQ(cipher->size(), plain.size());
  auto back = aes_cbc_decrypt_raw(*aes, iv, *cipher);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(*back, plain);

  // CBC property: flipping an IV bit flips the same first-block plaintext
  // bit on decryption.
  auto iv2 = iv;
  iv2[0] ^= 0x80;
  auto tampered = aes_cbc_decrypt_raw(*aes, iv2, *cipher);
  ASSERT_TRUE(tampered.is_ok());
  EXPECT_EQ((*tampered)[0], plain[0] ^ 0x80);
  EXPECT_TRUE(std::equal(tampered->begin() + 16, tampered->end(),
                         plain.begin() + 16));
}

}  // namespace
}  // namespace nnfv::crypto
