// Adaptation-layer burst coverage: a single-interface NNF behind the
// layer receives an N-frame burst as ONE process_burst call, a single
// frame is a burst of 1, and IpsecEndpoint bursts match one-frame calls
// bit-for-bit.
#include <gtest/gtest.h>

#include <vector>

#include "nnf/adaptation.hpp"
#include "nnf/ipsec.hpp"
#include "packet/builder.hpp"
#include "packet/headers.hpp"
#include "util/rng.hpp"

namespace nnfv::nnf {
namespace {

packet::PacketBuffer tagged_frame(std::uint16_t vlan, std::uint8_t tag) {
  packet::UdpFrameSpec spec;
  spec.vlan = vlan;
  spec.ip_src = *packet::Ipv4Address::parse("10.0.0.1");
  spec.ip_dst = *packet::Ipv4Address::parse("10.0.0.2");
  static std::vector<std::uint8_t> payload;
  payload.assign(32, tag);  // payload[i] identifies the frame in asserts
  spec.payload = payload;
  return packet::build_udp_frame(spec);
}

std::uint8_t frame_tag(const packet::PacketBuffer& frame) {
  return frame.data()[frame.size() - 1];  // last payload byte
}

/// Records every process_burst() call and every frame it carries, and
/// echoes each frame out of port 0.
class BurstNf : public NetworkFunction {
 public:
  [[nodiscard]] std::string_view type() const override { return "recorder"; }
  [[nodiscard]] std::size_t num_ports() const override { return 2; }
  util::Status configure(ContextId, const NfConfig&) override {
    return util::Status::ok();
  }
  std::vector<NfOutput> process_burst(ContextId ctx, NfPortIndex in_port,
                                      sim::SimTime,
                                      packet::PacketBurst&& burst) override {
    burst_sizes.push_back(burst.size());
    std::vector<NfOutput> out;
    for (packet::PacketBuffer& frame : burst) {
      calls.push_back({ctx, in_port, frame_tag(frame)});
      out.push_back(NfOutput{0, std::move(frame)});
    }
    return out;
  }

  struct Call {
    ContextId ctx;
    NfPortIndex port;
    std::uint8_t tag;
  };
  std::vector<Call> calls;
  std::vector<std::size_t> burst_sizes;
};

TEST(AdaptationBurst, BurstNfSeesOneCallPerPathGroup) {
  BurstNf nf;
  AdaptationLayer layer(nf);
  ASSERT_TRUE(layer.bind(kDefaultContext, 0, 100).is_ok());
  ASSERT_TRUE(layer.bind(kDefaultContext, 1, 101).is_ok());

  packet::PacketBurst burst;
  for (std::uint8_t i = 0; i < 5; ++i) burst.push_back(tagged_frame(100, i));
  layer.receive_burst(0, std::move(burst));

  // One process_burst with all 5 frames — not 5 calls of 1.
  ASSERT_EQ(nf.burst_sizes.size(), 1u);
  EXPECT_EQ(nf.burst_sizes[0], 5u);
  EXPECT_EQ(layer.stats().in_frames, 5u);
  EXPECT_EQ(layer.stats().out_frames, 5u);
}

TEST(AdaptationBurst, SingleFrameIsABurstOfOne) {
  BurstNf nf;
  AdaptationLayer layer(nf);
  ASSERT_TRUE(layer.bind(kDefaultContext, 0, 100).is_ok());
  std::size_t transmits = 0;
  layer.set_burst_transmit(
      [&](packet::PacketBurst&& out) { transmits += out.size(); });

  // Both single-frame entry points reach the NF as process_burst of 1.
  layer.receive(0, tagged_frame(100, 7));
  auto direct = nf.process(kDefaultContext, 1, 0, tagged_frame(100, 8));

  ASSERT_EQ(nf.burst_sizes, (std::vector<std::size_t>{1, 1}));
  ASSERT_EQ(nf.calls.size(), 2u);
  EXPECT_EQ(nf.calls[0].tag, 7);
  EXPECT_EQ(nf.calls[0].port, 0u);
  EXPECT_EQ(nf.calls[1].tag, 8);
  EXPECT_EQ(nf.calls[1].port, 1u);
  EXPECT_EQ(transmits, 1u);
  EXPECT_EQ(direct.size(), 1u);
}

TEST(AdaptationBurst, MixedMarksGroupPerPathAndKeepOrder) {
  BurstNf nf;
  ASSERT_TRUE(nf.add_context(7).is_ok());
  AdaptationLayer layer(nf);
  ASSERT_TRUE(layer.bind(kDefaultContext, 0, 100).is_ok());
  ASSERT_TRUE(layer.bind(7, 1, 200).is_ok());

  // Interleaved marks: 100,200,100,200,100.
  packet::PacketBurst burst;
  burst.push_back(tagged_frame(100, 0));
  burst.push_back(tagged_frame(200, 1));
  burst.push_back(tagged_frame(100, 2));
  burst.push_back(tagged_frame(200, 3));
  burst.push_back(tagged_frame(100, 4));
  layer.receive_burst(0, std::move(burst));

  // Two groups: (ctx 0, port 0) x3 then (ctx 7, port 1) x2.
  ASSERT_EQ(nf.burst_sizes.size(), 2u);
  EXPECT_EQ(nf.burst_sizes[0], 3u);
  EXPECT_EQ(nf.burst_sizes[1], 2u);
  ASSERT_EQ(nf.calls.size(), 5u);
  EXPECT_EQ(nf.calls[0].tag, 0);
  EXPECT_EQ(nf.calls[1].tag, 2);
  EXPECT_EQ(nf.calls[2].tag, 4);
  EXPECT_EQ(nf.calls[0].ctx, kDefaultContext);
  EXPECT_EQ(nf.calls[3].tag, 1);
  EXPECT_EQ(nf.calls[4].tag, 3);
  EXPECT_EQ(nf.calls[3].ctx, 7u);
  EXPECT_EQ(nf.calls[3].port, 1u);
}

TEST(AdaptationBurst, EgressLeavesAsOneRemarkedBurst) {
  BurstNf nf;
  AdaptationLayer layer(nf);
  ASSERT_TRUE(layer.bind(kDefaultContext, 0, 100).is_ok());

  std::vector<packet::PacketBurst> egress_bursts;
  layer.set_burst_transmit([&](packet::PacketBurst&& out) {
    egress_bursts.push_back(std::move(out));
  });

  packet::PacketBurst burst;
  for (std::uint8_t i = 0; i < 4; ++i) burst.push_back(tagged_frame(100, i));
  layer.receive_burst(0, std::move(burst));

  // All 4 outputs leave in one burst-transmit call, re-marked, in order.
  ASSERT_EQ(egress_bursts.size(), 1u);
  ASSERT_EQ(egress_bursts[0].size(), 4u);
  for (std::uint8_t i = 0; i < 4; ++i) {
    auto eth = packet::parse_ethernet(egress_bursts[0][i].data());
    ASSERT_TRUE(eth.is_ok());
    ASSERT_TRUE(eth->vlan.has_value());
    EXPECT_EQ(*eth->vlan, 100);
    EXPECT_EQ(frame_tag(egress_bursts[0][i]), i);
  }
}

TEST(AdaptationBurst, UntaggedAndUnmappedFramesAreCountedAndDropped) {
  BurstNf nf;
  AdaptationLayer layer(nf);
  ASSERT_TRUE(layer.bind(kDefaultContext, 0, 100).is_ok());

  packet::PacketBurst burst;
  burst.push_back(tagged_frame(100, 0));
  auto untagged = tagged_frame(100, 1);
  packet::set_vlan(untagged, std::nullopt);
  burst.push_back(std::move(untagged));
  burst.push_back(tagged_frame(999, 2));  // no binding
  layer.receive_burst(0, std::move(burst));

  EXPECT_EQ(layer.stats().untagged, 1u);
  EXPECT_EQ(layer.stats().unmapped_in, 1u);
  ASSERT_EQ(nf.burst_sizes.size(), 1u);
  EXPECT_EQ(nf.burst_sizes[0], 1u);
}

// ---------------------------------------------------------------------------
// IpsecEndpoint::process_burst
// ---------------------------------------------------------------------------

NfConfig ipsec_config(const char* local, const char* peer,
                      const char* spi_out, const char* spi_in) {
  return {{"local_ip", local}, {"peer_ip", peer},
          {"spi_out", spi_out}, {"spi_in", spi_in},
          {"enc_key", "000102030405060708090a0b0c0d0e0f"},
          {"auth_key",
           "202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f"}};
}

packet::PacketBuffer inner_frame(std::uint64_t seed) {
  util::Rng rng(seed);
  packet::UdpFrameSpec spec;
  spec.ip_src = *packet::Ipv4Address::parse("192.168.1.10");
  spec.ip_dst = *packet::Ipv4Address::parse("10.8.0.5");
  const std::vector<std::uint8_t> payload = rng.bytes(100 + seed % 300);
  spec.payload = payload;
  return packet::build_udp_frame(spec);
}

TEST(IpsecBurst, BurstEncapMatchesPerPacketPathBitForBit) {
  IpsecEndpoint burst_endpoint;
  IpsecEndpoint packet_endpoint;
  const auto config =
      ipsec_config("198.51.100.1", "198.51.100.2", "1001", "2002");
  ASSERT_TRUE(burst_endpoint.configure(kDefaultContext, config).is_ok());
  ASSERT_TRUE(packet_endpoint.configure(kDefaultContext, config).is_ok());

  packet::PacketBurst burst;
  for (std::uint64_t i = 0; i < 6; ++i) burst.push_back(inner_frame(i));
  auto burst_out =
      burst_endpoint.process_burst(kDefaultContext, 0, 0, std::move(burst));
  ASSERT_EQ(burst_out.size(), 6u);
  EXPECT_EQ(burst_endpoint.stats().encapsulated, 6u);

  for (std::uint64_t i = 0; i < 6; ++i) {
    auto one =
        packet_endpoint.process(kDefaultContext, 0, 0, inner_frame(i));
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(burst_out[i].port, 1u);
    const auto got = burst_out[i].frame.data();
    const auto want = one[0].frame.data();
    ASSERT_EQ(got.size(), want.size()) << "frame " << i;
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin()))
        << "frame " << i;
  }
}

TEST(IpsecBurst, BurstRoundTripThroughResponder) {
  IpsecEndpoint initiator;
  IpsecEndpoint responder;
  ASSERT_TRUE(initiator
                  .configure(kDefaultContext,
                             ipsec_config("198.51.100.1", "198.51.100.2",
                                          "1001", "2002"))
                  .is_ok());
  ASSERT_TRUE(responder
                  .configure(kDefaultContext,
                             ipsec_config("198.51.100.2", "198.51.100.1",
                                          "2002", "1001"))
                  .is_ok());

  packet::PacketBurst burst;
  for (std::uint64_t i = 0; i < 8; ++i) burst.push_back(inner_frame(i));
  auto encapsulated =
      initiator.process_burst(kDefaultContext, 0, 0, std::move(burst));
  ASSERT_EQ(encapsulated.size(), 8u);

  packet::PacketBurst black;
  for (NfOutput& out : encapsulated) black.push_back(std::move(out.frame));
  auto decapsulated =
      responder.process_burst(kDefaultContext, 1, 0, std::move(black));
  ASSERT_EQ(decapsulated.size(), 8u);
  EXPECT_EQ(responder.stats().decapsulated, 8u);
  EXPECT_EQ(responder.stats().auth_failures, 0u);
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(decapsulated[i].port, 0u);
    // Inner payload round-trips (frame i's UDP payload was seeded with i).
    const auto inner = inner_frame(i);
    EXPECT_EQ(decapsulated[i].frame.size(), inner.size());
  }
}

TEST(IpsecBurst, UnconfiguredContextCountsWholeBurstAsNoSa) {
  IpsecEndpoint endpoint;  // never configured
  packet::PacketBurst burst;
  for (std::uint64_t i = 0; i < 3; ++i) burst.push_back(inner_frame(i));
  auto out = endpoint.process_burst(kDefaultContext, 0, 0, std::move(burst));
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(endpoint.stats().no_sa, 3u);

  packet::PacketBurst bad_port;
  bad_port.push_back(inner_frame(0));
  out = endpoint.process_burst(kDefaultContext, 5, 0, std::move(bad_port));
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(endpoint.stats().malformed, 1u);
}

}  // namespace
}  // namespace nnfv::nnf
