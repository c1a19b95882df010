// IPsec ESP endpoint tests: real encrypt/decrypt roundtrips between two
// endpoints, wire-format properties, authentication, anti-replay, and
// multi-tunnel (sharable) contexts.
#include <gtest/gtest.h>

#include "crypto/backend.hpp"
#include "nnf/ipsec.hpp"
#include "packet/builder.hpp"
#include "packet/flow_key.hpp"
#include "util/byteorder.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace nnfv::nnf {
namespace {

constexpr const char* kEncKey = "000102030405060708090a0b0c0d0e0f";
constexpr const char* kAuthKey =
    "202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f";

NfConfig initiator_config() {
  return {{"local_ip", "198.51.100.1"}, {"peer_ip", "198.51.100.2"},
          {"spi_out", "1001"},          {"spi_in", "2002"},
          {"enc_key", kEncKey},         {"auth_key", kAuthKey}};
}

NfConfig responder_config() {
  return {{"local_ip", "198.51.100.2"}, {"peer_ip", "198.51.100.1"},
          {"spi_out", "2002"},          {"spi_in", "1001"},
          {"enc_key", kEncKey},         {"auth_key", kAuthKey}};
}

packet::PacketBuffer plaintext_frame(std::size_t payload_size = 200,
                                     std::uint64_t seed = 1) {
  util::Rng rng(seed);
  static std::vector<std::uint8_t> payload;
  payload = rng.bytes(payload_size);
  packet::UdpFrameSpec spec;
  spec.eth_src = packet::MacAddress::from_id(1);
  spec.eth_dst = packet::MacAddress::from_id(2);
  spec.ip_src = *packet::Ipv4Address::parse("192.168.1.10");
  spec.ip_dst = *packet::Ipv4Address::parse("10.8.0.5");
  spec.src_port = 5001;
  spec.dst_port = 5001;
  spec.payload = payload;
  return packet::build_udp_frame(spec);
}

IpsecEndpoint make_endpoint(const NfConfig& config) {
  IpsecEndpoint endpoint;
  EXPECT_TRUE(endpoint.configure(kDefaultContext, config).is_ok());
  return endpoint;
}

TEST(Ipsec, EncapsulateProducesEspPacket) {
  IpsecEndpoint initiator = make_endpoint(initiator_config());
  auto outs =
      initiator.process(kDefaultContext, 0, 0, plaintext_frame());
  ASSERT_EQ(outs.size(), 1u);
  EXPECT_EQ(outs[0].port, 1u);

  auto eth = packet::parse_ethernet(outs[0].frame.data());
  ASSERT_TRUE(eth.is_ok());
  auto ip = packet::parse_ipv4(outs[0].frame.data().subspan(eth->wire_size()));
  ASSERT_TRUE(ip.is_ok());
  EXPECT_EQ(ip->protocol, packet::kIpProtoEsp);
  EXPECT_EQ(ip->src.to_string(), "198.51.100.1");
  EXPECT_EQ(ip->dst.to_string(), "198.51.100.2");
  auto esp = packet::parse_esp(
      outs[0].frame.data().subspan(eth->wire_size() + ip->header_size()));
  ASSERT_TRUE(esp.is_ok());
  EXPECT_EQ(esp->spi, 1001u);
  EXPECT_EQ(esp->sequence, 1u);
  EXPECT_EQ(initiator.stats().encapsulated, 1u);
}

TEST(Ipsec, CiphertextHidesPlaintext) {
  IpsecEndpoint initiator = make_endpoint(initiator_config());
  auto plain = plaintext_frame(300, 7);
  // Remember a distinctive plaintext run (the inner IP src address bytes).
  const std::vector<std::uint8_t> inner(plain.data().begin() + 14,
                                        plain.data().begin() + 34);
  auto outs = initiator.process(kDefaultContext, 0, 0, std::move(plain));
  ASSERT_EQ(outs.size(), 1u);
  const auto wire = outs[0].frame.data();
  // The inner header must not appear verbatim in the ESP packet.
  auto it = std::search(wire.begin() + 34, wire.end(), inner.begin(),
                        inner.end());
  EXPECT_EQ(it, wire.end());
}

TEST(Ipsec, TunnelRoundTripRestoresInnerPacket) {
  IpsecEndpoint initiator = make_endpoint(initiator_config());
  IpsecEndpoint responder = make_endpoint(responder_config());

  auto original = plaintext_frame(500, 3);
  // Capture the inner IP packet for comparison.
  const std::vector<std::uint8_t> inner_before(original.data().begin() + 14,
                                               original.data().end());

  auto encrypted =
      initiator.process(kDefaultContext, 0, 0, std::move(original));
  ASSERT_EQ(encrypted.size(), 1u);
  auto decrypted = responder.process(kDefaultContext, 1, 0,
                                     std::move(encrypted[0].frame));
  ASSERT_EQ(decrypted.size(), 1u);
  EXPECT_EQ(decrypted[0].port, 0u);

  const std::vector<std::uint8_t> inner_after(
      decrypted[0].frame.data().begin() + 14,
      decrypted[0].frame.data().end());
  EXPECT_EQ(inner_before, inner_after);
  EXPECT_EQ(responder.stats().decapsulated, 1u);
  EXPECT_EQ(responder.stats().auth_failures, 0u);
}

class IpsecPayloadSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(IpsecPayloadSizes, RoundTripAnySize) {
  IpsecEndpoint initiator = make_endpoint(initiator_config());
  IpsecEndpoint responder = make_endpoint(responder_config());
  auto original = plaintext_frame(GetParam(), GetParam() + 11);
  const std::vector<std::uint8_t> inner_before(original.data().begin() + 14,
                                               original.data().end());
  auto enc = initiator.process(kDefaultContext, 0, 0, std::move(original));
  ASSERT_EQ(enc.size(), 1u);
  auto dec =
      responder.process(kDefaultContext, 1, 0, std::move(enc[0].frame));
  ASSERT_EQ(dec.size(), 1u);
  const std::vector<std::uint8_t> inner_after(
      dec[0].frame.data().begin() + 14, dec[0].frame.data().end());
  EXPECT_EQ(inner_before, inner_after);
}

INSTANTIATE_TEST_SUITE_P(Sizes, IpsecPayloadSizes,
                         ::testing::Values(0, 1, 14, 15, 16, 100, 576, 1408));

TEST(Ipsec, SequenceNumbersIncrease) {
  IpsecEndpoint initiator = make_endpoint(initiator_config());
  for (std::uint32_t i = 1; i <= 5; ++i) {
    auto outs =
        initiator.process(kDefaultContext, 0, 0, plaintext_frame(64, i));
    ASSERT_EQ(outs.size(), 1u);
    auto eth = packet::parse_ethernet(outs[0].frame.data());
    auto esp = packet::parse_esp(
        outs[0].frame.data().subspan(eth->wire_size() + 20));
    EXPECT_EQ(esp->sequence, i);
  }
}

TEST(Ipsec, TamperedPacketFailsAuthentication) {
  IpsecEndpoint initiator = make_endpoint(initiator_config());
  IpsecEndpoint responder = make_endpoint(responder_config());
  auto enc =
      initiator.process(kDefaultContext, 0, 0, plaintext_frame(128, 9));
  ASSERT_EQ(enc.size(), 1u);
  // Flip one ciphertext byte (beyond headers: eth 14 + ip 20 + esp 8 + iv 16).
  enc[0].frame[60] ^= 0x01;
  auto dec =
      responder.process(kDefaultContext, 1, 0, std::move(enc[0].frame));
  EXPECT_TRUE(dec.empty());
  EXPECT_EQ(responder.stats().auth_failures, 1u);
}

TEST(Ipsec, ReplayedPacketDropped) {
  IpsecEndpoint initiator = make_endpoint(initiator_config());
  IpsecEndpoint responder = make_endpoint(responder_config());
  auto enc =
      initiator.process(kDefaultContext, 0, 0, plaintext_frame(128, 4));
  ASSERT_EQ(enc.size(), 1u);
  packet::PacketBuffer copy = packet::PacketBuffer::copy_of(enc[0].frame.data());
  ASSERT_EQ(responder
                .process(kDefaultContext, 1, 0, std::move(enc[0].frame))
                .size(),
            1u);
  auto replay = responder.process(kDefaultContext, 1, 0, std::move(copy));
  EXPECT_TRUE(replay.empty());
  EXPECT_EQ(responder.stats().replay_drops, 1u);
}

TEST(Ipsec, OutOfOrderWithinWindowAccepted) {
  IpsecEndpoint initiator = make_endpoint(initiator_config());
  IpsecEndpoint responder = make_endpoint(responder_config());
  std::vector<packet::PacketBuffer> encrypted;
  for (int i = 0; i < 3; ++i) {
    auto outs =
        initiator.process(kDefaultContext, 0, 0, plaintext_frame(64, i));
    encrypted.push_back(std::move(outs[0].frame));
  }
  // Deliver 3, 1, 2 — all must decrypt.
  EXPECT_EQ(responder
                .process(kDefaultContext, 1, 0, std::move(encrypted[2]))
                .size(),
            1u);
  EXPECT_EQ(responder
                .process(kDefaultContext, 1, 0, std::move(encrypted[0]))
                .size(),
            1u);
  EXPECT_EQ(responder
                .process(kDefaultContext, 1, 0, std::move(encrypted[1]))
                .size(),
            1u);
  EXPECT_EQ(responder.stats().replay_drops, 0u);
}

TEST(Ipsec, WrongSpiDropped) {
  IpsecEndpoint initiator = make_endpoint(initiator_config());
  NfConfig bad = responder_config();
  bad["spi_in"] = "9999";  // expects a different SPI
  IpsecEndpoint responder = make_endpoint(bad);
  auto enc =
      initiator.process(kDefaultContext, 0, 0, plaintext_frame(64, 5));
  auto dec =
      responder.process(kDefaultContext, 1, 0, std::move(enc[0].frame));
  EXPECT_TRUE(dec.empty());
  EXPECT_EQ(responder.stats().no_sa, 1u);
}

TEST(Ipsec, WrongDestinationDropped) {
  IpsecEndpoint initiator = make_endpoint(initiator_config());
  NfConfig other = responder_config();
  other["local_ip"] = "198.51.100.77";  // not the tunnel destination
  IpsecEndpoint responder = make_endpoint(other);
  auto enc =
      initiator.process(kDefaultContext, 0, 0, plaintext_frame(64, 6));
  auto dec =
      responder.process(kDefaultContext, 1, 0, std::move(enc[0].frame));
  EXPECT_TRUE(dec.empty());
}

TEST(Ipsec, UnconfiguredContextDropsTraffic) {
  IpsecEndpoint endpoint;
  auto outs = endpoint.process(kDefaultContext, 0, 0, plaintext_frame());
  EXPECT_TRUE(outs.empty());
  EXPECT_EQ(endpoint.stats().no_sa, 1u);
}

TEST(Ipsec, MultiTunnelContextsAreIsolated) {
  // One instance, two tunnels with different keys — the sharable-NNF case.
  IpsecEndpoint shared;
  ASSERT_TRUE(shared.configure(0, initiator_config()).is_ok());
  ASSERT_TRUE(shared.add_context(1).is_ok());
  NfConfig second = initiator_config();
  second["spi_out"] = "3003";
  second["enc_key"] = "ffeeddccbbaa99887766554433221100";
  ASSERT_TRUE(shared.configure(1, second).is_ok());

  auto out0 = shared.process(0, 0, 0, plaintext_frame(100, 1));
  auto out1 = shared.process(1, 0, 0, plaintext_frame(100, 1));
  ASSERT_EQ(out0.size(), 1u);
  ASSERT_EQ(out1.size(), 1u);

  auto spi_of = [](const packet::PacketBuffer& frame) {
    auto esp = packet::parse_esp(frame.data().subspan(34));
    return esp->spi;
  };
  EXPECT_EQ(spi_of(out0[0].frame), 1001u);
  EXPECT_EQ(spi_of(out1[0].frame), 3003u);
  // Same plaintext, different keys -> different ciphertext bodies.
  EXPECT_NE(std::vector<std::uint8_t>(out0[0].frame.data().begin() + 42,
                                      out0[0].frame.data().end()),
            std::vector<std::uint8_t>(out1[0].frame.data().begin() + 42,
                                      out1[0].frame.data().end()));
}

TEST(Ipsec, RemoveContextDropsTunnel) {
  IpsecEndpoint endpoint;
  ASSERT_TRUE(endpoint.add_context(1).is_ok());
  ASSERT_TRUE(endpoint.configure(1, initiator_config()).is_ok());
  ASSERT_TRUE(endpoint.remove_context(1).is_ok());
  auto outs = endpoint.process(1, 0, 0, plaintext_frame());
  EXPECT_TRUE(outs.empty());
}

TEST(Ipsec, ConfigValidation) {
  IpsecEndpoint endpoint;
  NfConfig config = initiator_config();
  config["enc_key"] = "short";
  EXPECT_FALSE(endpoint.configure(kDefaultContext, config).is_ok());
  config = initiator_config();
  config["spi_out"] = "0";
  EXPECT_FALSE(endpoint.configure(kDefaultContext, config).is_ok());
  config = initiator_config();
  config["local_ip"] = "not-an-ip";
  EXPECT_FALSE(endpoint.configure(kDefaultContext, config).is_ok());
  config = initiator_config();
  config["bogus"] = "1";
  EXPECT_FALSE(endpoint.configure(kDefaultContext, config).is_ok());
}

TEST(Ipsec, EspOverheadIsBounded) {
  // Tunnel-mode ESP adds a predictable overhead. GCM (the default):
  // new eth (14) + outer IP (20) + ESP (8) + IV (8) + pad (<= 3) +
  // pad_len + next_hdr (2) + ICV (16). cbc-hmac: IV is 16 and padding
  // runs to the 16-byte block size.
  IpsecEndpoint gcm = make_endpoint(initiator_config());
  NfConfig cbc_config = initiator_config();
  cbc_config["esp_transform"] = "cbc-hmac";
  IpsecEndpoint cbc = make_endpoint(cbc_config);
  for (std::size_t size : {0u, 100u, 1000u, 1408u}) {
    auto plain = plaintext_frame(size, size);
    const std::size_t inner_ip_len = plain.size() - 14;

    packet::PacketBuffer copy = packet::PacketBuffer::copy_of(plain.data());
    auto outs = gcm.process(kDefaultContext, 0, 0, std::move(plain));
    ASSERT_EQ(outs.size(), 1u);
    const std::size_t gcm_overhead = outs[0].frame.size() - 14 - inner_ip_len;
    EXPECT_GE(gcm_overhead, 20u + 8u + 8u + 2u + 16u);
    EXPECT_LE(gcm_overhead, 20u + 8u + 8u + 3u + 2u + 16u);

    auto cbc_outs = cbc.process(kDefaultContext, 0, 0, std::move(copy));
    ASSERT_EQ(cbc_outs.size(), 1u);
    const std::size_t cbc_overhead =
        cbc_outs[0].frame.size() - 14 - inner_ip_len;
    EXPECT_GE(cbc_overhead, 20u + 8u + 16u + 2u + 16u);
    EXPECT_LE(cbc_overhead, 20u + 8u + 16u + 16u + 2u + 16u);
    // The stream-mode transform never pads past 4-byte alignment, so it
    // is strictly leaner on the wire.
    EXPECT_LT(gcm_overhead, cbc_overhead);
  }
}

TEST(Ipsec, DefaultTransformIsGcm) {
  // RFC 4106 wire shape: ESP header, then an 8-byte explicit IV carrying
  // the 64-bit sequence counter, ciphertext, 16-byte ICV.
  IpsecEndpoint initiator = make_endpoint(initiator_config());
  auto outs = initiator.process(kDefaultContext, 0, 0, plaintext_frame());
  ASSERT_EQ(outs.size(), 1u);
  const auto wire = outs[0].frame.data();
  auto esp = packet::parse_esp(wire.subspan(34));
  ASSERT_TRUE(esp.is_ok());
  EXPECT_EQ(esp->sequence, 1u);
  // Explicit IV = be64(seq).
  const std::uint8_t want_iv[8] = {0, 0, 0, 0, 0, 0, 0, 1};
  EXPECT_TRUE(std::equal(want_iv, want_iv + 8, wire.begin() + 42));
}

TEST(Ipsec, TransformsDoNotInteroperate) {
  // A GCM initiator's packets must fail cleanly (auth failure, no crash,
  // no plaintext release) at a cbc-hmac responder — the transform is part
  // of the SA, not negotiated on the wire.
  IpsecEndpoint initiator = make_endpoint(initiator_config());
  NfConfig cbc_config = responder_config();
  cbc_config["esp_transform"] = "cbc-hmac";
  IpsecEndpoint responder = make_endpoint(cbc_config);
  auto enc = initiator.process(kDefaultContext, 0, 0, plaintext_frame());
  ASSERT_EQ(enc.size(), 1u);
  auto dec =
      responder.process(kDefaultContext, 1, 0, std::move(enc[0].frame));
  EXPECT_TRUE(dec.empty());
  EXPECT_EQ(responder.stats().decapsulated, 0u);
}

TEST(Ipsec, CbcHmacRoundTripStillWorks) {
  NfConfig init = initiator_config();
  NfConfig resp = responder_config();
  init["esp_transform"] = "cbc-hmac";
  resp["esp_transform"] = "cbc-hmac";
  IpsecEndpoint initiator = make_endpoint(init);
  IpsecEndpoint responder = make_endpoint(resp);
  auto original = plaintext_frame(500, 3);
  const std::vector<std::uint8_t> inner_before(original.data().begin() + 14,
                                               original.data().end());
  auto enc = initiator.process(kDefaultContext, 0, 0, std::move(original));
  ASSERT_EQ(enc.size(), 1u);
  auto dec =
      responder.process(kDefaultContext, 1, 0, std::move(enc[0].frame));
  ASSERT_EQ(dec.size(), 1u);
  const std::vector<std::uint8_t> inner_after(
      dec[0].frame.data().begin() + 14, dec[0].frame.data().end());
  EXPECT_EQ(inner_before, inner_after);
}

TEST(Ipsec, GcmSaltFromExtendedKeyChangesWireAndRoundTrips) {
  // 40-hex enc_key = AES-128 key + RFC 4106 salt. The salt feeds the GCM
  // nonce, so two tunnels differing only in salt must produce different
  // ciphertext — and both peers need the same salt to interoperate.
  NfConfig init = initiator_config();
  NfConfig resp = responder_config();
  const std::string salted_key = std::string(kEncKey) + "aabbccdd";
  init["enc_key"] = salted_key;
  resp["enc_key"] = salted_key;
  IpsecEndpoint initiator = make_endpoint(init);
  IpsecEndpoint responder = make_endpoint(resp);
  IpsecEndpoint zero_salt = make_endpoint(initiator_config());

  auto frame = plaintext_frame(300, 5);
  packet::PacketBuffer copy = packet::PacketBuffer::copy_of(frame.data());
  auto salted = initiator.process(kDefaultContext, 0, 0, std::move(frame));
  auto unsalted = zero_salt.process(kDefaultContext, 0, 0, std::move(copy));
  ASSERT_EQ(salted.size(), 1u);
  ASSERT_EQ(unsalted.size(), 1u);
  EXPECT_NE(std::vector<std::uint8_t>(salted[0].frame.data().begin() + 50,
                                      salted[0].frame.data().end()),
            std::vector<std::uint8_t>(unsalted[0].frame.data().begin() + 50,
                                      unsalted[0].frame.data().end()));

  auto dec = responder.process(kDefaultContext, 1, 0,
                               std::move(salted[0].frame));
  ASSERT_EQ(dec.size(), 1u);
  EXPECT_EQ(responder.stats().auth_failures, 0u);
}

TEST(Ipsec, GcmTamperedIvFailsAuthentication) {
  // The explicit IV feeds the nonce: flipping it must break the tag even
  // though the IV itself is not part of the AAD.
  IpsecEndpoint initiator = make_endpoint(initiator_config());
  IpsecEndpoint responder = make_endpoint(responder_config());
  auto enc = initiator.process(kDefaultContext, 0, 0, plaintext_frame());
  ASSERT_EQ(enc.size(), 1u);
  enc[0].frame[45] ^= 0x01;  // eth 14 + ip 20 + esp 8 = 42; IV at 42..49
  auto dec =
      responder.process(kDefaultContext, 1, 0, std::move(enc[0].frame));
  EXPECT_TRUE(dec.empty());
  EXPECT_EQ(responder.stats().auth_failures, 1u);
}

TEST(Ipsec, GcmTamperedIcvFailsAuthentication) {
  IpsecEndpoint initiator = make_endpoint(initiator_config());
  IpsecEndpoint responder = make_endpoint(responder_config());
  auto enc = initiator.process(kDefaultContext, 0, 0, plaintext_frame());
  ASSERT_EQ(enc.size(), 1u);
  enc[0].frame[enc[0].frame.size() - 1] ^= 0x01;  // last ICV byte
  auto dec =
      responder.process(kDefaultContext, 1, 0, std::move(enc[0].frame));
  EXPECT_TRUE(dec.empty());
  EXPECT_EQ(responder.stats().auth_failures, 1u);
}

TEST(Ipsec, InvalidTransformRejected) {
  IpsecEndpoint endpoint;
  NfConfig config = initiator_config();
  config["esp_transform"] = "chacha";
  EXPECT_FALSE(endpoint.configure(kDefaultContext, config).is_ok());
}

TEST(Ipsec, GcmDirectionsNeverShareANonce) {
  // Both directions run one enc_key + salt, so the per-direction SPI
  // must reach the GCM nonce: the initiator's packet #1 and the
  // responder's packet #1 (same plaintext, same sequence number, same
  // key) must NOT produce the same keystream — identical ciphertext
  // here would mean a reused (key, nonce) pair, which breaks GCM
  // entirely.
  IpsecEndpoint initiator = make_endpoint(initiator_config());
  IpsecEndpoint responder = make_endpoint(responder_config());
  auto frame = plaintext_frame(300, 7);
  packet::PacketBuffer copy = packet::PacketBuffer::copy_of(frame.data());
  auto a = initiator.process(kDefaultContext, 0, 0, std::move(frame));
  auto b = responder.process(kDefaultContext, 0, 0, std::move(copy));
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  // Ciphertext starts after eth(14) + ip(20) + esp(8) + iv(8) = 50.
  EXPECT_NE(std::vector<std::uint8_t>(a[0].frame.data().begin() + 50,
                                      a[0].frame.data().end()),
            std::vector<std::uint8_t>(b[0].frame.data().begin() + 50,
                                      b[0].frame.data().end()));
}

TEST(Ipsec, EqualSpisRejected) {
  // The SPI is the only per-direction component of the nonce/IV
  // derivation, so spi_out == spi_in must not configure.
  IpsecEndpoint endpoint;
  NfConfig config = initiator_config();
  config["spi_in"] = config["spi_out"];
  EXPECT_FALSE(endpoint.configure(kDefaultContext, config).is_ok());
}

// ---------------------------------------------------------------------------
// Replay-window edge cases (64-entry window; sequence steered through the
// outbound_sa test hook so exact wire sequences reach the responder).
// ---------------------------------------------------------------------------

// Sends one packet with wire sequence `seq` from initiator to responder
// and reports whether the responder emitted it.
bool deliver_seq(IpsecEndpoint& initiator, IpsecEndpoint& responder,
                 std::uint64_t seq) {
  initiator.outbound_sa(kDefaultContext)->seq = seq - 1;  // encap adds 1
  auto enc = initiator.process(kDefaultContext, 0, 0,
                               plaintext_frame(64, seq));
  EXPECT_EQ(enc.size(), 1u);
  if (enc.size() != 1) return false;
  return responder.process(kDefaultContext, 1, 0, std::move(enc[0].frame))
             .size() == 1;
}

TEST(Ipsec, ReplayWindowAdvanceAcrossBoundary) {
  IpsecEndpoint initiator = make_endpoint(initiator_config());
  IpsecEndpoint responder = make_endpoint(responder_config());
  EXPECT_TRUE(deliver_seq(initiator, responder, 1));
  // A jump past the whole 64-entry window must reset the bitmap...
  EXPECT_TRUE(deliver_seq(initiator, responder, 70));
  // ...after which seq 6 (offset 64) is exactly one slot too old...
  EXPECT_FALSE(deliver_seq(initiator, responder, 6));
  EXPECT_EQ(responder.stats().replay_drops, 1u);
  // ...and seq 7 (offset 63) is the last slot still inside the window.
  EXPECT_TRUE(deliver_seq(initiator, responder, 7));
  EXPECT_EQ(responder.stats().replay_drops, 1u);
}

TEST(Ipsec, DuplicateAtWindowEdgeDropped) {
  IpsecEndpoint initiator = make_endpoint(initiator_config());
  IpsecEndpoint responder = make_endpoint(responder_config());
  EXPECT_TRUE(deliver_seq(initiator, responder, 64));
  // Offset 63: the very edge of the window, accepted once...
  EXPECT_TRUE(deliver_seq(initiator, responder, 1));
  // ...and only once — the edge bit must have been recorded.
  EXPECT_FALSE(deliver_seq(initiator, responder, 1));
  // The top of the window is likewise a duplicate.
  EXPECT_FALSE(deliver_seq(initiator, responder, 64));
  EXPECT_EQ(responder.stats().replay_drops, 2u);
}

// ---------------------------------------------------------------------------
// ESN (RFC 4304 64-bit extended sequence numbers).
// ---------------------------------------------------------------------------

NfConfig esn_config(NfConfig base) {
  base["esn"] = "on";
  return base;
}

TEST(Ipsec, EsnRoundTripOnEveryBackend) {
  for (const crypto::CryptoBackend* backend : crypto::usable_backends()) {
    crypto::ScopedBackendOverride override_scope(*backend);
    IpsecEndpoint initiator = make_endpoint(esn_config(initiator_config()));
    IpsecEndpoint responder = make_endpoint(esn_config(responder_config()));
    auto original = plaintext_frame(500, 3);
    const std::vector<std::uint8_t> inner_before(
        original.data().begin() + 14, original.data().end());
    auto enc =
        initiator.process(kDefaultContext, 0, 0, std::move(original));
    ASSERT_EQ(enc.size(), 1u) << backend->name();
    auto dec =
        responder.process(kDefaultContext, 1, 0, std::move(enc[0].frame));
    ASSERT_EQ(dec.size(), 1u) << backend->name();
    const std::vector<std::uint8_t> inner_after(
        dec[0].frame.data().begin() + 14, dec[0].frame.data().end());
    EXPECT_EQ(inner_before, inner_after) << backend->name();
    EXPECT_EQ(responder.stats().auth_failures, 0u) << backend->name();
  }
}

TEST(Ipsec, EsnTamperedPacketFailsOnEveryBackend) {
  for (const crypto::CryptoBackend* backend : crypto::usable_backends()) {
    crypto::ScopedBackendOverride override_scope(*backend);
    IpsecEndpoint initiator = make_endpoint(esn_config(initiator_config()));
    IpsecEndpoint responder = make_endpoint(esn_config(responder_config()));
    auto enc =
        initiator.process(kDefaultContext, 0, 0, plaintext_frame(128, 9));
    ASSERT_EQ(enc.size(), 1u) << backend->name();
    enc[0].frame[60] ^= 0x01;  // a ciphertext byte
    auto dec =
        responder.process(kDefaultContext, 1, 0, std::move(enc[0].frame));
    EXPECT_TRUE(dec.empty()) << backend->name();
    EXPECT_EQ(responder.stats().auth_failures, 1u) << backend->name();
  }
}

TEST(Ipsec, EsnSeqHiRolloverRoundTripsOnEveryBackend) {
  // An established tunnel crossing the 2^32 seq-lo boundary: the wire
  // seq field wraps to small values while the recovered 64-bit sequence
  // keeps climbing, so packets keep authenticating and the window never
  // treats the wrap as a replay.
  for (const crypto::CryptoBackend* backend : crypto::usable_backends()) {
    crypto::ScopedBackendOverride override_scope(*backend);
    IpsecEndpoint initiator = make_endpoint(esn_config(initiator_config()));
    IpsecEndpoint responder = make_endpoint(esn_config(responder_config()));
    const std::uint64_t boundary = 1ULL << 32;
    initiator.outbound_sa(kDefaultContext)->seq = boundary - 3;
    // Simulate the established session: the responder has authenticated
    // everything up to the same point.
    responder.inbound_sa(kDefaultContext)->replay_top = boundary - 3;
    responder.inbound_sa(kDefaultContext)->replay_bitmap = 1;
    for (int i = 0; i < 6; ++i) {
      auto enc = initiator.process(kDefaultContext, 0, 0,
                                   plaintext_frame(100, i));
      ASSERT_EQ(enc.size(), 1u) << backend->name() << " packet " << i;
      auto dec = responder.process(kDefaultContext, 1, 0,
                                   std::move(enc[0].frame));
      ASSERT_EQ(dec.size(), 1u) << backend->name() << " packet " << i;
    }
    // The recovered high half advanced past the boundary.
    EXPECT_EQ(responder.inbound_sa(kDefaultContext)->replay_top,
              boundary + 3)
        << backend->name();
    EXPECT_EQ(responder.stats().auth_failures, 0u) << backend->name();
    EXPECT_EQ(responder.stats().replay_drops, 0u) << backend->name();
  }
}

TEST(Ipsec, EsnWrongSeqHiFailsAuthentication) {
  // A packet whose seq-lo lands below the responder's window bottom is
  // inferred to belong to the *next* 2^32 cycle (RFC 4304 A2). The
  // sender's actual seq-hi was 0, so the tag — computed over the
  // recovered hi — must fail: an attacker cannot replay an old cycle's
  // packet into a window that has moved on.
  for (const crypto::CryptoBackend* backend : crypto::usable_backends()) {
    crypto::ScopedBackendOverride override_scope(*backend);
    IpsecEndpoint initiator = make_endpoint(esn_config(initiator_config()));
    IpsecEndpoint responder = make_endpoint(esn_config(responder_config()));
    auto enc = initiator.process(kDefaultContext, 0, 0,
                                 plaintext_frame(128, 5));
    ASSERT_EQ(enc.size(), 1u) << backend->name();
    // Window far ahead: top at hi=1, lo=1000 -> wire seq 1 recovers hi=2.
    responder.inbound_sa(kDefaultContext)->replay_top = (1ULL << 32) | 1000;
    auto dec =
        responder.process(kDefaultContext, 1, 0, std::move(enc[0].frame));
    EXPECT_TRUE(dec.empty()) << backend->name();
    EXPECT_EQ(responder.stats().auth_failures, 1u) << backend->name();
    EXPECT_EQ(responder.stats().replay_drops, 0u) << backend->name();
  }
}

TEST(Ipsec, EsnCbcHmacRoundTripAndRollover) {
  // ESN is transform-independent: the cbc-hmac path authenticates the
  // implicit seq-hi suffix (RFC 4303 §2.2.1) instead of widening an AAD.
  NfConfig init = esn_config(initiator_config());
  NfConfig resp = esn_config(responder_config());
  init["esp_transform"] = "cbc-hmac";
  resp["esp_transform"] = "cbc-hmac";
  IpsecEndpoint initiator = make_endpoint(init);
  IpsecEndpoint responder = make_endpoint(resp);
  const std::uint64_t boundary = 1ULL << 32;
  initiator.outbound_sa(kDefaultContext)->seq = boundary - 2;
  responder.inbound_sa(kDefaultContext)->replay_top = boundary - 2;
  responder.inbound_sa(kDefaultContext)->replay_bitmap = 1;
  for (int i = 0; i < 4; ++i) {
    auto enc = initiator.process(kDefaultContext, 0, 0,
                                 plaintext_frame(200, i));
    ASSERT_EQ(enc.size(), 1u);
    auto dec =
        responder.process(kDefaultContext, 1, 0, std::move(enc[0].frame));
    ASSERT_EQ(dec.size(), 1u) << "packet " << i;
  }
  EXPECT_EQ(responder.inbound_sa(kDefaultContext)->replay_top, boundary + 2);
  EXPECT_EQ(responder.stats().auth_failures, 0u);
}

TEST(Ipsec, EsnMismatchFailsCleanly) {
  // esn is SA configuration, not negotiated on the wire: an ESN sender's
  // packets (12-byte AAD) must fail auth at a non-ESN receiver (8-byte
  // AAD) even while seq-hi is still zero.
  IpsecEndpoint initiator = make_endpoint(esn_config(initiator_config()));
  IpsecEndpoint responder = make_endpoint(responder_config());
  auto enc = initiator.process(kDefaultContext, 0, 0, plaintext_frame());
  ASSERT_EQ(enc.size(), 1u);
  auto dec =
      responder.process(kDefaultContext, 1, 0, std::move(enc[0].frame));
  EXPECT_TRUE(dec.empty());
  EXPECT_EQ(responder.stats().auth_failures, 1u);
}

TEST(Ipsec, EsnConfigValidation) {
  IpsecEndpoint endpoint;
  NfConfig config = initiator_config();
  config["esn"] = "banana";
  EXPECT_FALSE(endpoint.configure(kDefaultContext, config).is_ok());
}

TEST(Ipsec, EsnBurstRoundTrip) {
  // The burst path shares parse_esp_ingress, so the per-packet seq-hi
  // recovery feeds AAD + replay there too — across a rollover.
  IpsecEndpoint initiator = make_endpoint(esn_config(initiator_config()));
  IpsecEndpoint responder = make_endpoint(esn_config(responder_config()));
  const std::uint64_t boundary = 1ULL << 32;
  initiator.outbound_sa(kDefaultContext)->seq = boundary - 4;
  responder.inbound_sa(kDefaultContext)->replay_top = boundary - 4;
  responder.inbound_sa(kDefaultContext)->replay_bitmap = 1;
  packet::PacketBurst burst;
  for (int i = 0; i < 8; ++i) burst.push_back(plaintext_frame(120, i));
  auto enc = initiator.process_burst(kDefaultContext, 0, 0,
                                     std::move(burst));
  ASSERT_EQ(enc.size(), 8u);
  packet::PacketBurst black;
  for (auto& o : enc) black.push_back(std::move(o.frame));
  auto dec = responder.process_burst(kDefaultContext, 1, 0,
                                     std::move(black));
  EXPECT_EQ(dec.size(), 8u);
  EXPECT_EQ(responder.stats().auth_failures, 0u);
  EXPECT_EQ(responder.inbound_sa(kDefaultContext)->replay_top, boundary + 4);
}

TEST(Ipsec, MacRewriteConfigRespected) {
  NfConfig config = initiator_config();
  config["outer_src_mac"] = "02:00:00:00:00:aa";
  config["outer_dst_mac"] = "02:00:00:00:00:bb";
  IpsecEndpoint initiator = make_endpoint(config);
  auto outs = initiator.process(kDefaultContext, 0, 0, plaintext_frame());
  auto eth = packet::parse_ethernet(outs[0].frame.data());
  EXPECT_EQ(eth->src.to_string(), "02:00:00:00:00:aa");
  EXPECT_EQ(eth->dst.to_string(), "02:00:00:00:00:bb");
}

// ---------------------------------------------------------------------------
// One gather loop: a burst and the same frames one by one must agree.
// ---------------------------------------------------------------------------

constexpr const char* kRekeyEncKey = "f0e1d2c3b4a5968778695a4b3c2d1e0f";

std::vector<std::uint8_t> bytes_of(const packet::PacketBuffer& frame) {
  return {frame.data().begin(), frame.data().end()};
}

packet::PacketBuffer copy_of(const packet::PacketBuffer& frame) {
  return packet::PacketBuffer::copy_of(frame.data());
}

/// Red-side IMIX frame `i`: 64, 576 or 1408 B on the wire, 4:2:1.
packet::PacketBuffer imix_frame(std::size_t i) {
  static constexpr std::size_t kWireSizes[] = {64, 576, 64, 1408,
                                               64, 576, 64};
  constexpr std::size_t kHeaders = 14 + 20 + 8;  // Eth + IPv4 + UDP
  return plaintext_frame(kWireSizes[i % 7] - kHeaders, 100 + i);
}

/// Two identically configured initiator/responder pairs: the `burst_`
/// pair takes every corpus as one process_burst, the `serial_` pair takes
/// it one process() call per frame.
struct TwinTunnels {
  IpsecEndpoint burst_init;
  IpsecEndpoint burst_resp;
  IpsecEndpoint serial_init;
  IpsecEndpoint serial_resp;

  void configure(const NfConfig& init, const NfConfig& resp) {
    for (IpsecEndpoint* nf : {&burst_init, &serial_init}) {
      ASSERT_TRUE(nf->configure(kDefaultContext, init).is_ok());
    }
    for (IpsecEndpoint* nf : {&burst_resp, &serial_resp}) {
      ASSERT_TRUE(nf->configure(kDefaultContext, resp).is_ok());
    }
  }
};

/// Feeds `corpus` to `batched` as one burst and to `serial` frame by frame;
/// the outputs must match in order, port and bytes. Returns the batched
/// side's output frames.
std::vector<packet::PacketBuffer> run_twins(
    IpsecEndpoint& batched, IpsecEndpoint& serial, NfPortIndex in_port,
    const std::vector<packet::PacketBuffer>& corpus) {
  packet::PacketBurst burst;
  for (const auto& frame : corpus) burst.push_back(copy_of(frame));
  auto from_burst =
      batched.process_burst(kDefaultContext, in_port, 0, std::move(burst));
  std::vector<NfOutput> from_frames;
  for (const auto& frame : corpus) {
    for (NfOutput& o :
         serial.process(kDefaultContext, in_port, 0, copy_of(frame))) {
      from_frames.push_back(std::move(o));
    }
  }
  EXPECT_EQ(from_burst.size(), from_frames.size());
  std::vector<packet::PacketBuffer> frames;
  for (std::size_t i = 0; i < from_burst.size(); ++i) {
    if (i < from_frames.size()) {
      EXPECT_EQ(from_burst[i].port, from_frames[i].port) << "output " << i;
      EXPECT_EQ(bytes_of(from_burst[i].frame), bytes_of(from_frames[i].frame))
          << "output " << i;
    }
    frames.push_back(std::move(from_burst[i].frame));
  }
  return frames;
}

/// Endpoint and per-SA counters of every generation (describe_stats), plus
/// the inbound replay bitmaps, which describe_stats leaves out.
void expect_same_state(IpsecEndpoint& a, IpsecEndpoint& b) {
  EXPECT_EQ(a.describe_stats(kDefaultContext).dump(),
            b.describe_stats(kDefaultContext).dump());
  EXPECT_EQ(a.inbound_sa(kDefaultContext)->replay_bitmap.load(),
            b.inbound_sa(kDefaultContext)->replay_bitmap.load());
  if (a.staged_inbound_sa(kDefaultContext) != nullptr) {
    ASSERT_NE(b.staged_inbound_sa(kDefaultContext), nullptr);
    EXPECT_EQ(a.staged_inbound_sa(kDefaultContext)->replay_bitmap.load(),
              b.staged_inbound_sa(kDefaultContext)->replay_bitmap.load());
  }
}

TEST(IpsecBurst, BurstMatchesFrameByFrame) {
  for (const char* transform : {"gcm", "cbc-hmac"}) {
    for (const bool esn : {false, true}) {
      SCOPED_TRACE(std::string(transform) + (esn ? " esn" : ""));
      NfConfig init = initiator_config();
      NfConfig resp = responder_config();
      for (NfConfig* config : {&init, &resp}) {
        (*config)["esp_transform"] = transform;
        (*config)["esn"] = esn ? "on" : "off";
      }
      TwinTunnels t;
      t.configure(init, resp);
      // Under ESN an established tunnel six packets short of the 2^32
      // seq-lo wrap, so the corpus straddles it.
      const std::uint64_t base = esn ? (1ULL << 32) - 6 : 0;
      for (IpsecEndpoint* nf : {&t.burst_init, &t.serial_init}) {
        nf->outbound_sa(kDefaultContext)->seq = base;
      }
      for (IpsecEndpoint* nf : {&t.burst_resp, &t.serial_resp}) {
        nf->inbound_sa(kDefaultContext)->replay_top = base;
        nf->inbound_sa(kDefaultContext)->replay_bitmap = esn ? 1 : 0;
      }

      // Encap: 12 IMIX frames with a non-IP frame mid-burst. black[i]
      // carries sequence base + 1 + i.
      std::vector<packet::PacketBuffer> red;
      for (std::size_t i = 0; i < 12; ++i) red.push_back(imix_frame(i));
      red.insert(red.begin() + 5, copy_of(red[0]));
      red[5][12] = 0x08;
      red[5][13] = 0x06;  // EtherType ARP
      auto black = run_twins(t.burst_init, t.serial_init, 0, red);
      ASSERT_EQ(black.size(), 12u);
      expect_same_state(t.burst_init, t.serial_init);
      // Two frames far ahead of the window: base + 106, base + 107.
      for (IpsecEndpoint* nf : {&t.burst_init, &t.serial_init}) {
        nf->outbound_sa(kDefaultContext)->seq = base + 105;
      }
      std::vector<packet::PacketBuffer> red_ahead;
      red_ahead.push_back(imix_frame(20));
      red_ahead.push_back(imix_frame(21));
      auto ahead = run_twins(t.burst_init, t.serial_init, 0, red_ahead);
      ASSERT_EQ(ahead.size(), 2u);

      // Decap: in-window reorder (across the wrap under ESN), duplicates,
      // a tampered ICV before its genuine copy, a wrong SPI mid-burst, a
      // jump 95 ahead and then a frame that is too old for the moved
      // window (under ESN its seq-lo recovers into the next cycle instead,
      // which fails authentication; the burst must recover it from the
      // window the jump left behind).
      std::vector<packet::PacketBuffer> corpus;
      for (std::size_t i : {3, 0, 7, 1, 5, 4}) {
        corpus.push_back(copy_of(black[i]));
      }
      corpus.push_back(copy_of(black[0]));
      packet::PacketBuffer forged = copy_of(black[6]);
      forged[forged.size() - 1] ^= 0x01;
      corpus.push_back(std::move(forged));
      packet::PacketBuffer stray = copy_of(black[8]);
      util::store_be32(stray.data().data() + 14 + 20, 9999);
      corpus.push_back(std::move(stray));
      for (std::size_t i : {6, 11, 9, 8, 10, 11}) {
        corpus.push_back(copy_of(black[i]));
      }
      corpus.push_back(copy_of(ahead[0]));
      corpus.push_back(copy_of(black[2]));
      auto inner = run_twins(t.burst_resp, t.serial_resp, 1, corpus);
      EXPECT_EQ(inner.size(), 12u);
      expect_same_state(t.burst_resp, t.serial_resp);
      const IpsecStats stats = t.burst_resp.stats();
      EXPECT_EQ(stats.no_sa, 1u);
      EXPECT_EQ(stats.auth_failures, esn ? 2u : 1u);
      EXPECT_EQ(stats.replay_drops, esn ? 2u : 3u);

      // Staged rekey with rekey_cutover=now: the first encap frame cuts
      // over, and the responder then sees the old generation's last frame
      // in the middle of a burst of new-generation frames.
      NfConfig init_rekey = {{"rekey_spi_out", "3003"},
                             {"rekey_spi_in", "4004"},
                             {"rekey_enc_key", kRekeyEncKey},
                             {"rekey_cutover", "now"}};
      NfConfig resp_rekey = {{"rekey_spi_out", "4004"},
                             {"rekey_spi_in", "3003"},
                             {"rekey_enc_key", kRekeyEncKey},
                             {"rekey_cutover", "now"}};
      t.configure(init_rekey, resp_rekey);
      std::vector<packet::PacketBuffer> red_rekey;
      for (std::size_t i = 0; i < 6; ++i) {
        red_rekey.push_back(imix_frame(30 + i));
      }
      auto rekeyed = run_twins(t.burst_init, t.serial_init, 0, red_rekey);
      ASSERT_EQ(rekeyed.size(), 6u);
      expect_same_state(t.burst_init, t.serial_init);
      EXPECT_EQ(t.burst_init.outbound_sa(kDefaultContext)->spi, 3003u);
      std::vector<packet::PacketBuffer> mixed;
      for (std::size_t i : {1, 0}) mixed.push_back(copy_of(rekeyed[i]));
      mixed.push_back(copy_of(ahead[1]));
      for (std::size_t i : {2, 0, 4, 3, 5}) {
        mixed.push_back(copy_of(rekeyed[i]));
      }
      inner = run_twins(t.burst_resp, t.serial_resp, 1, mixed);
      EXPECT_EQ(inner.size(), 7u);
      expect_same_state(t.burst_resp, t.serial_resp);
      EXPECT_EQ(t.burst_resp.staged_inbound_sa(kDefaultContext)->packets,
                6u);
    }
  }
}

/// The bytes every transform x ESN combination puts on the wire for one
/// fixed 64 B inner packet at a fixed sequence. They pin the wire format:
/// any change to padding, IV, nonce, AAD or ICV derivation shows here.
TEST(IpsecBurst, WireFrameMatchesGolden) {
  struct Golden {
    const char* transform;
    bool esn;
    const char* hex;
  };
  const Golden goldens[] = {
      {"gcm", false,
       "0200000000e10200000000e0080045000078004140004032e5a8c6336401"
       "c6336402000003e900000041000000000000004116aee774c39b6c7ace22"
       "8cf54e96619abb4c529cb96a6a5b66c34347eefde91408cbbfc635100cb3"
       "bebb261f9fd63e6712cad76e6943ceefa40d3b1e8271ca222f831d552153"
       "ce8d51ff0bc3b807f4f04db47a17"},
      {"gcm", true,
       "0200000000e10200000000e0080045000078004140004032e5a8c6336401"
       "c6336402000003e9000000410000000100000041f859507ae8bab13e6c80"
       "5204bfd5e5605130c038f168cebb9c5c07bd3ed3a0a34c9e16d0829b4c21"
       "87082093a2505812b3cfdfc23cc00f5c38c927ff6d54c5f73472634cf961"
       "248ee1c1f80af957c2717e957bf9"},
      {"cbc-hmac", false,
       "0200000000e10200000000e008004500008c004140004032e594c6336401"
       "c6336402000003e9000000412e5db8df6f6d665334b90e339d51a963bc90"
       "491ffcb90e3284c72b043563e418a22bc69b8853fcdbd7a091d70bf820e1"
       "9b14a445620b4f95bbe5150e11752fb4cd90786e1c8f77ea817edd4b3f6c"
       "66ad2bc2499f9a49306aae3fc0ddbf065bfee3c3e62ee19871aa4e775356"
       "4616fba7"},
      {"cbc-hmac", true,
       "0200000000e10200000000e008004500008c004140004032e594c6336401"
       "c6336402000003e9000000419ae7c5a510b997fb6b66f65c15f7940d3d1b"
       "4a82705a1bdc06043f9c748db33a33f44a1013332b0d1ecfff3dcd32b34e"
       "9e22dd34a91a98080716f6b9616ff110cec914bedda651b75da1b895ca59"
       "641b8eec4e75303df9a40a2de292ace09c4f17d9b3fbd41c68b88b48c16d"
       "593e159b"},
  };
  std::vector<std::uint8_t> payload(64 - 20 - 8);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(37 * i + 11);
  }
  packet::UdpFrameSpec spec;
  spec.eth_src = packet::MacAddress::from_id(1);
  spec.eth_dst = packet::MacAddress::from_id(2);
  spec.ip_src = *packet::Ipv4Address::parse("192.168.1.10");
  spec.ip_dst = *packet::Ipv4Address::parse("10.8.0.5");
  spec.src_port = 5001;
  spec.dst_port = 5002;
  spec.payload = payload;
  for (const Golden& golden : goldens) {
    SCOPED_TRACE(std::string(golden.transform) + (golden.esn ? " esn" : ""));
    NfConfig config = initiator_config();
    config["esp_transform"] = golden.transform;
    config["esn"] = golden.esn ? "on" : "off";
    IpsecEndpoint initiator = make_endpoint(config);
    // Under ESN the sequence sits past 2^32, so seq-hi feeds the ICV.
    initiator.outbound_sa(kDefaultContext)->seq =
        golden.esn ? (1ULL << 32) + 0x40 : 0x40;
    auto enc =
        initiator.process(kDefaultContext, 0, 0, packet::build_udp_frame(spec));
    ASSERT_EQ(enc.size(), 1u);
    EXPECT_EQ(util::hex_encode(enc[0].frame.data()), golden.hex);
  }
}

}  // namespace
}  // namespace nnfv::nnf
