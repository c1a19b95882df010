// Generic-configuration translation tests (the paper's future-work hook)
// plus the LearningController (reactive per-LSI control).
#include <gtest/gtest.h>

#include "core/node.hpp"
#include "nnf/firewall.hpp"
#include "nnf/ipsec.hpp"
#include "nnf/translator.hpp"
#include "packet/builder.hpp"
#include "switch/learning_controller.hpp"

namespace nnfv {
namespace {

using nnf::NfConfig;

// ---------------------------------------------------------------------------
// Vocabulary lowering
// ---------------------------------------------------------------------------

TEST(Translator, FirewallVocabulary) {
  auto lowered = nnf::translate_generic_config(
      "firewall", {{"default", "deny"},
                   {"allow.1", "udp:53"},
                   {"block.2", "tcp:20-21"},
                   {"description", "customer policy"}});
  ASSERT_TRUE(lowered.is_ok());
  EXPECT_EQ(lowered->at("policy"), "drop");
  EXPECT_EQ(lowered->at("rule.1"), "accept,any,any,udp,53");
  EXPECT_EQ(lowered->at("rule.2"), "drop,any,any,tcp,20-21");
  EXPECT_FALSE(lowered->contains("description"));
}

TEST(Translator, FirewallRejectsBadVocabulary) {
  EXPECT_FALSE(nnf::translate_generic_config("firewall",
                                             {{"default", "maybe"}})
                   .is_ok());
  EXPECT_FALSE(
      nnf::translate_generic_config("firewall", {{"block.1", "gre:5"}})
          .is_ok());
  EXPECT_FALSE(
      nnf::translate_generic_config("firewall", {{"wan_address", "1.2.3.4"}})
          .is_ok());
}

TEST(Translator, NatVocabulary) {
  auto lowered = nnf::translate_generic_config(
      "nat", {{"wan_address", "203.0.113.7"}});
  ASSERT_TRUE(lowered.is_ok());
  EXPECT_EQ(lowered->at("external_ip"), "203.0.113.7");
}

TEST(Translator, IpsecDerivesKeysAndSpis) {
  auto lowered = nnf::translate_generic_config(
      "ipsec", {{"tunnel_local", "198.51.100.1"},
                {"tunnel_remote", "198.51.100.2"},
                {"tunnel_id", "21"},
                {"psk", "correct horse battery staple"}});
  ASSERT_TRUE(lowered.is_ok());
  EXPECT_EQ(lowered->at("local_ip"), "198.51.100.1");
  EXPECT_EQ(lowered->at("spi_out"), "42");
  EXPECT_EQ(lowered->at("spi_in"), "43");
  EXPECT_EQ(lowered->at("enc_key").size(), 32u);   // 16 bytes hex
  EXPECT_EQ(lowered->at("auth_key").size(), 64u);  // 32 bytes hex
  // Deterministic KDF: same psk -> same keys.
  auto again = nnf::translate_generic_config(
      "ipsec", {{"psk", "correct horse battery staple"}});
  EXPECT_EQ(lowered->at("enc_key"), again->at("enc_key"));
  // Different psk -> different keys.
  auto other = nnf::translate_generic_config("ipsec", {{"psk", "other"}});
  EXPECT_NE(lowered->at("enc_key"), other->at("enc_key"));
  // enc and auth derivations differ.
  EXPECT_NE(lowered->at("enc_key"),
            lowered->at("auth_key").substr(0, 32));
}

TEST(Translator, IpsecLoweredConfigIsAccepted) {
  auto lowered = nnf::translate_generic_config(
      "ipsec", {{"tunnel_local", "198.51.100.1"},
                {"tunnel_remote", "198.51.100.2"},
                {"tunnel_id", "5"},
                {"psk", "secret"}});
  ASSERT_TRUE(lowered.is_ok());
  nnf::IpsecEndpoint endpoint;
  EXPECT_TRUE(
      endpoint.configure(nnf::kDefaultContext, lowered.value()).is_ok());
}

TEST(Translator, DhcpAndBridgeVocabulary) {
  auto dhcp = nnf::translate_generic_config(
      "dhcp", {{"lan_address", "192.168.1.1"},
               {"lan_pool", "192.168.1.100-192.168.1.200"}});
  ASSERT_TRUE(dhcp.is_ok());
  EXPECT_EQ(dhcp->at("server_ip"), "192.168.1.1");
  EXPECT_EQ(dhcp->at("pool_start"), "192.168.1.100");
  EXPECT_EQ(dhcp->at("pool_end"), "192.168.1.200");
  EXPECT_FALSE(
      nnf::translate_generic_config("dhcp", {{"lan_pool", "nodash"}})
          .is_ok());

  auto bridge =
      nnf::translate_generic_config("bridge", {{"mac_aging_s", "300"}});
  ASSERT_TRUE(bridge.is_ok());
  EXPECT_EQ(bridge->at("aging_time_ms"), "300000");
}

TEST(Translator, UnknownTypeRejected) {
  EXPECT_FALSE(nnf::translate_generic_config("quantum-dpi", {}).is_ok());
}

TEST(Translator, GenericMarkerDetection) {
  EXPECT_TRUE(nnf::is_generic_config({{"generic", "1"}}));
  EXPECT_FALSE(nnf::is_generic_config({{"generic", "0"}}));
  EXPECT_FALSE(nnf::is_generic_config({{"policy", "accept"}}));
}

// ---------------------------------------------------------------------------
// TranslatingNnfPlugin
// ---------------------------------------------------------------------------

TEST(TranslatingPlugin, TranslatesMarkedConfigs) {
  nnf::TranslatingNnfPlugin plugin(nnf::make_firewall_plugin());
  auto function = plugin.create_function();
  ASSERT_TRUE(function.is_ok());
  // Generic config: lowered and applied.
  ASSERT_TRUE(plugin
                  .update(*function.value(), nnf::kDefaultContext,
                          {{"generic", "1"},
                           {"default", "deny"},
                           {"allow.1", "udp:53"}})
                  .is_ok());
  auto* firewall = dynamic_cast<nnf::Firewall*>(function.value().get());
  ASSERT_NE(firewall, nullptr);
  EXPECT_EQ(firewall->rule_count(nnf::kDefaultContext), 1u);
  // Native config still passes through.
  EXPECT_TRUE(plugin
                  .update(*function.value(), nnf::kDefaultContext,
                          {{"policy", "accept"}})
                  .is_ok());
  // Bad generic vocab fails loudly.
  EXPECT_FALSE(plugin
                   .update(*function.value(), nnf::kDefaultContext,
                           {{"generic", "1"}, {"bogus", "x"}})
                   .is_ok());
}

TEST(TranslatingCatalog, HasSixTypesIncludingDhcpAndPolicer) {
  nnf::NnfCatalog catalog = nnf::translating_builtin_catalog();
  EXPECT_EQ(catalog.types().size(), 6u);
  EXPECT_TRUE(catalog.has("policer"));
  EXPECT_TRUE(catalog.has("dhcp"));
  auto plugin = catalog.plugin("dhcp");
  ASSERT_TRUE(plugin.is_ok());
  EXPECT_TRUE(plugin.value()->descriptor().sharable);
  EXPECT_TRUE(plugin.value()->descriptor().single_interface);
  EXPECT_EQ(plugin.value()->descriptor().num_ports, 1u);
}

TEST(TranslatingCatalog, EndToEndGenericDeployment) {
  // A node with translation on: deploy a firewall whose NF-FG carries only
  // the generic vocabulary; the NNF driver's update step lowers it.
  core::UniversalNodeConfig config;
  config.generic_config_translation = true;
  core::UniversalNode node(config);

  nffg::NfFg graph;
  graph.id = "generic";
  nffg::NfNode& fw = graph.add_nf("fw", "firewall");
  fw.config = {{"generic", "1"}, {"default", "allow"}, {"block.1", "udp:23"}};
  graph.add_endpoint("lan", "eth0");
  graph.add_endpoint("wan", "eth1");
  graph.connect("r1", nffg::endpoint_ref("lan"), nffg::nf_port("fw", 0));
  graph.connect("r2", nffg::nf_port("fw", 1), nffg::endpoint_ref("wan"));
  ASSERT_TRUE(node.orchestrator().deploy(graph).is_ok());

  int wan_rx = 0;
  (void)node.set_egress("eth1",
                        [&](packet::PacketBuffer&&) { ++wan_rx; });
  auto send = [&](std::uint16_t dport) {
    packet::UdpFrameSpec spec;
    spec.ip_src = *packet::Ipv4Address::parse("10.0.0.1");
    spec.ip_dst = *packet::Ipv4Address::parse("8.8.8.8");
    spec.dst_port = dport;
    (void)node.inject("eth0", packet::build_udp_frame(spec));
    node.simulator().run();
  };
  send(53);
  EXPECT_EQ(wan_rx, 1);
  send(23);  // blocked by the lowered rule
  EXPECT_EQ(wan_rx, 1);
}

// ---------------------------------------------------------------------------
// LearningController (reactive per-LSI control)
// ---------------------------------------------------------------------------

packet::PacketBuffer frame_from_to(std::uint32_t src, std::uint32_t dst) {
  packet::UdpFrameSpec spec;
  spec.eth_src = packet::MacAddress::from_id(src);
  spec.eth_dst = packet::MacAddress::from_id(dst);
  spec.ip_src = *packet::Ipv4Address::parse("10.0.0.1");
  spec.ip_dst = *packet::Ipv4Address::parse("10.0.0.2");
  return packet::build_udp_frame(spec);
}

class LearningFixture : public ::testing::Test {
 protected:
  LearningFixture() : lsi_(1, "LSI-react") {
    p1_ = lsi_.add_port("p1").value();
    p2_ = lsi_.add_port("p2").value();
    p3_ = lsi_.add_port("p3").value();
    for (auto [port, sink] : {std::pair{p1_, &rx1_}, std::pair{p2_, &rx2_},
                              std::pair{p3_, &rx3_}}) {
      (void)lsi_.set_port_peer(port, [sink](packet::PacketBurst&& burst) {
        *sink += static_cast<int>(burst.size());
      });
    }
    lsi_.set_controller(&controller_);
  }

  nfswitch::Lsi lsi_;
  nfswitch::LearningController controller_;
  nfswitch::PortId p1_ = 0, p2_ = 0, p3_ = 0;
  int rx1_ = 0, rx2_ = 0, rx3_ = 0;
};

TEST_F(LearningFixture, FloodsUnknownThenInstallsRule) {
  // Host A (on p1) talks to unknown host B: flood to p2+p3.
  lsi_.receive(p1_, frame_from_to(0xA, 0xB));
  EXPECT_EQ(controller_.packet_ins(), 1u);
  EXPECT_EQ(controller_.floods(), 1u);
  EXPECT_EQ(rx2_, 1);
  EXPECT_EQ(rx3_, 1);
  EXPECT_EQ(rx1_, 0);

  // Host B replies from p2: controller knows A -> installs rule + packet-out.
  lsi_.receive(p2_, frame_from_to(0xB, 0xA));
  EXPECT_EQ(controller_.rules_installed(), 1u);
  EXPECT_EQ(rx1_, 1);
  EXPECT_EQ(lsi_.flow_table().size(), 1u);

  // Subsequent B->A traffic uses the fast path (no new packet-in).
  const std::uint64_t before = controller_.packet_ins();
  lsi_.receive(p2_, frame_from_to(0xB, 0xA));
  EXPECT_EQ(controller_.packet_ins(), before);
  EXPECT_EQ(rx1_, 2);
}

TEST_F(LearningFixture, StationMovementRelearns) {
  lsi_.receive(p1_, frame_from_to(0xA, 0xF));  // learn A@p1
  lsi_.receive(p2_, frame_from_to(0xA, 0xF));  // A moved to p2
  // Traffic to A now goes out p2.
  lsi_.receive(p3_, frame_from_to(0xC, 0xA));
  EXPECT_EQ(rx2_, 2);  // flood copy + directed copy
  EXPECT_EQ(controller_.known_stations(), 2u);  // A and C
}

TEST_F(LearningFixture, ExplicitPuntsDoNotDuplicateTheLearnedRule) {
  // A higher-priority rule punts everything from p2 to the controller, so
  // each of the 5 frames to the known station A is a packet-in. The
  // learned A -> p1 rule is installed once, not once per frame.
  lsi_.receive(p1_, frame_from_to(0xA, 0xF));  // learn A@p1 (flood)
  nfswitch::FlowMatch from_p2;
  from_p2.in_port = p2_;
  lsi_.flow_table().add(20, from_p2,
                        {nfswitch::FlowAction::to_controller()});
  ASSERT_EQ(lsi_.flow_table().size(), 1u);
  for (int i = 0; i < 5; ++i) lsi_.receive(p2_, frame_from_to(0xB, 0xA));
  EXPECT_EQ(controller_.packet_ins(), 1u + 5u);
  EXPECT_EQ(controller_.rules_installed(), 1u);
  EXPECT_EQ(lsi_.flow_table().entries_by_cookie(0xC0DE).size(), 1u);
  EXPECT_EQ(lsi_.flow_table().size(), 2u);
  EXPECT_EQ(rx1_, 5);

  // A moves to p3: the next punt replaces the old rule instead of adding
  // a second one beside it.
  lsi_.receive(p3_, frame_from_to(0xA, 0xF));
  lsi_.receive(p2_, frame_from_to(0xB, 0xA));
  EXPECT_EQ(controller_.rules_installed(), 2u);
  const auto learned = lsi_.flow_table().entries_by_cookie(0xC0DE);
  ASSERT_EQ(learned.size(), 1u);
  EXPECT_EQ(lsi_.flow_table().find(learned[0])->actions,
            (std::vector<nfswitch::FlowAction>{
                nfswitch::FlowAction::output(p3_)}));
  EXPECT_EQ(lsi_.flow_table().size(), 2u);
  EXPECT_EQ(rx1_, 6);  // plus A's flood from p3, none of B's frames
}

TEST_F(LearningFixture, BroadcastAlwaysFloods) {
  packet::UdpFrameSpec spec;
  spec.eth_src = packet::MacAddress::from_id(0xA);
  spec.eth_dst = packet::MacAddress::broadcast();
  spec.ip_src = *packet::Ipv4Address::parse("10.0.0.1");
  spec.ip_dst = *packet::Ipv4Address::parse("255.255.255.255");
  lsi_.receive(p1_, packet::build_udp_frame(spec));
  EXPECT_EQ(rx2_, 1);
  EXPECT_EQ(rx3_, 1);
  EXPECT_EQ(controller_.rules_installed(), 0u);
}

TEST_F(LearningFixture, ResetRemovesRulesAndState) {
  lsi_.receive(p1_, frame_from_to(0xA, 0xB));
  lsi_.receive(p2_, frame_from_to(0xB, 0xA));
  ASSERT_EQ(lsi_.flow_table().size(), 1u);
  controller_.reset(lsi_);
  EXPECT_EQ(lsi_.flow_table().size(), 0u);
  EXPECT_EQ(controller_.known_stations(), 0u);
}

}  // namespace
}  // namespace nnfv
