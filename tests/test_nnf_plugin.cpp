// Plugin/catalog/marking/adaptation tests — the NNF-specific machinery of
// the paper's §2.
#include <gtest/gtest.h>

#include "nnf/adaptation.hpp"
#include "nnf/catalog.hpp"
#include "nnf/marking.hpp"
#include "nnf/nat.hpp"
#include "nnf/plugin.hpp"
#include "packet/builder.hpp"
#include "packet/flow_key.hpp"

namespace nnfv::nnf {
namespace {

// ---------------------------------------------------------------------------
// Plugins
// ---------------------------------------------------------------------------

TEST(Plugins, BuiltinDescriptors) {
  auto ipsec = make_ipsec_plugin();
  EXPECT_EQ(ipsec->descriptor().functional_type, "ipsec");
  EXPECT_TRUE(ipsec->descriptor().sharable);
  EXPECT_FALSE(ipsec->descriptor().single_interface);
  EXPECT_EQ(ipsec->descriptor().max_instances, 1u);

  auto nat = make_nat_plugin();
  EXPECT_TRUE(nat->descriptor().sharable);
  EXPECT_TRUE(nat->descriptor().single_interface);

  auto bridge = make_bridge_plugin();
  EXPECT_FALSE(bridge->descriptor().sharable);
  EXPECT_GT(bridge->descriptor().max_instances, 1u);

  auto firewall = make_firewall_plugin();
  EXPECT_TRUE(firewall->descriptor().sharable);
}

TEST(Plugins, CreateFunctionMatchesType) {
  for (auto plugin : {make_bridge_plugin(), make_firewall_plugin(),
                      make_nat_plugin(), make_ipsec_plugin()}) {
    auto function = plugin->create_function();
    ASSERT_TRUE(function.is_ok());
    EXPECT_EQ(function.value()->type(),
              plugin->descriptor().functional_type);
    EXPECT_EQ(function.value()->num_ports(), plugin->descriptor().num_ports);
  }
}

TEST(Plugins, UpdateTranslatesConfigToFunction) {
  auto plugin = make_nat_plugin();
  auto function = plugin->create_function();
  ASSERT_TRUE(function.is_ok());
  // The default update passes through to configure().
  EXPECT_TRUE(plugin
                  ->update(*function.value(), kDefaultContext,
                           {{"external_ip", "203.0.113.1"}})
                  .is_ok());
  EXPECT_FALSE(plugin
                   ->update(*function.value(), kDefaultContext,
                            {{"bad_key", "x"}})
                   .is_ok());
}

TEST(Plugins, IpsecMemoryMatchesTable1) {
  auto plugin = make_ipsec_plugin();
  EXPECT_NEAR(static_cast<double>(
                  plugin->descriptor().memory.working_set_bytes) /
                  (1024.0 * 1024.0),
              19.4, 0.05);
  EXPECT_EQ(plugin->descriptor().package_bytes, 5ULL * 1024 * 1024);
}

// ---------------------------------------------------------------------------
// Catalog
// ---------------------------------------------------------------------------

TEST(Catalog, RegisterAndLookup) {
  NnfCatalog catalog;
  ASSERT_TRUE(catalog.register_plugin(make_ipsec_plugin()).is_ok());
  EXPECT_TRUE(catalog.has("ipsec"));
  EXPECT_FALSE(catalog.has("nat"));
  EXPECT_TRUE(catalog.plugin("ipsec").is_ok());
  EXPECT_FALSE(catalog.plugin("nat").is_ok());
  EXPECT_FALSE(catalog.register_plugin(make_ipsec_plugin()).is_ok());
  EXPECT_FALSE(catalog.register_plugin(nullptr).is_ok());
}

TEST(Catalog, BuiltinsLoadAllFour) {
  NnfCatalog catalog = NnfCatalog::with_builtin_plugins();
  EXPECT_EQ(catalog.types().size(), 4u);
  for (const char* type : {"bridge", "firewall", "nat", "ipsec"}) {
    EXPECT_TRUE(catalog.has(type)) << type;
  }
}

TEST(Catalog, InstantiationLimits) {
  NnfCatalog catalog = NnfCatalog::with_builtin_plugins();
  EXPECT_TRUE(catalog.can_instantiate("ipsec"));
  catalog.status("ipsec").running_instances = 1;
  EXPECT_FALSE(catalog.can_instantiate("ipsec"));  // max 1
  EXPECT_TRUE(catalog.can_instantiate("bridge"));
  catalog.status("bridge").running_instances = 8;
  EXPECT_FALSE(catalog.can_instantiate("bridge"));
  EXPECT_FALSE(catalog.can_instantiate("ghost"));
}

TEST(Catalog, SharingRequiresRunningSharableInstance) {
  NnfCatalog catalog = NnfCatalog::with_builtin_plugins();
  EXPECT_FALSE(catalog.can_share("ipsec"));  // nothing running yet
  catalog.status("ipsec").running_instances = 1;
  EXPECT_TRUE(catalog.can_share("ipsec"));
  // Bridge is not sharable even when running.
  catalog.status("bridge").running_instances = 1;
  EXPECT_FALSE(catalog.can_share("bridge"));
  EXPECT_FALSE(catalog.can_share("ghost"));
}

// ---------------------------------------------------------------------------
// Marking
// ---------------------------------------------------------------------------

TEST(Marking, AllocateIsIdempotentPerOwner) {
  MarkAllocator allocator(3000, 3003);
  auto a = allocator.allocate("g1:nat:0");
  ASSERT_TRUE(a.is_ok());
  auto again = allocator.allocate("g1:nat:0");
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(a.value(), again.value());
  EXPECT_EQ(allocator.in_use(), 1u);
}

TEST(Marking, DistinctOwnersDistinctMarks) {
  MarkAllocator allocator(3000, 3999);
  auto a = allocator.allocate("g1:nat:0");
  auto b = allocator.allocate("g1:nat:1");
  auto c = allocator.allocate("g2:nat:0");
  EXPECT_NE(a.value(), b.value());
  EXPECT_NE(a.value(), c.value());
  EXPECT_NE(b.value(), c.value());
}

TEST(Marking, PoolExhaustion) {
  MarkAllocator allocator(3000, 3001);  // 2 marks
  ASSERT_TRUE(allocator.allocate("a").is_ok());
  ASSERT_TRUE(allocator.allocate("b").is_ok());
  auto overflow = allocator.allocate("c");
  EXPECT_FALSE(overflow.is_ok());
  EXPECT_EQ(overflow.status().code(), util::ErrorCode::kResourceExhausted);
  // Releasing frees a mark for reuse.
  ASSERT_TRUE(allocator.release("a").is_ok());
  EXPECT_TRUE(allocator.allocate("c").is_ok());
}

TEST(Marking, ReleaseByPrefix) {
  MarkAllocator allocator;
  (void)allocator.allocate("g:g1:nat:0");
  (void)allocator.allocate("g:g1:nat:1");
  (void)allocator.allocate("g:g2:nat:0");
  EXPECT_EQ(allocator.release_prefix("g:g1:"), 2u);
  EXPECT_EQ(allocator.in_use(), 1u);
  EXPECT_TRUE(allocator.mark_of("g:g2:nat:0").is_ok());
  EXPECT_FALSE(allocator.mark_of("g:g1:nat:0").is_ok());
}

TEST(Marking, ReleaseUnknownFails) {
  MarkAllocator allocator;
  EXPECT_FALSE(allocator.release("ghost").is_ok());
  EXPECT_FALSE(allocator.allocate("").is_ok());
}

// ---------------------------------------------------------------------------
// Adaptation layer
// ---------------------------------------------------------------------------

packet::PacketBuffer marked_udp(std::uint16_t vlan, const std::string& src,
                                std::uint16_t dport) {
  packet::UdpFrameSpec spec;
  spec.eth_src = packet::MacAddress::from_id(1);
  spec.eth_dst = packet::MacAddress::from_id(2);
  spec.vlan = vlan;
  spec.ip_src = *packet::Ipv4Address::parse(src);
  spec.ip_dst = *packet::Ipv4Address::parse("8.8.8.8");
  spec.src_port = 1000;
  spec.dst_port = dport;
  static const std::vector<std::uint8_t> payload(16, 0);
  spec.payload = payload;
  return packet::build_udp_frame(spec);
}

class AdaptationFixture : public ::testing::Test {
 protected:
  AdaptationFixture() : adaptation_(nat_) {
    // NAT with two contexts (two service graphs share it).
    EXPECT_TRUE(
        nat_.configure(0, {{"external_ip", "203.0.113.1"}}).is_ok());
    EXPECT_TRUE(nat_.add_context(1).is_ok());
    EXPECT_TRUE(
        nat_.configure(1, {{"external_ip", "203.0.113.2"}}).is_ok());
    // Graph A: marks 3000 (inside) / 3001 (outside); graph B: 3010/3011.
    EXPECT_TRUE(adaptation_.bind(0, 0, 3000).is_ok());
    EXPECT_TRUE(adaptation_.bind(0, 1, 3001).is_ok());
    EXPECT_TRUE(adaptation_.bind(1, 0, 3010).is_ok());
    EXPECT_TRUE(adaptation_.bind(1, 1, 3011).is_ok());
    adaptation_.set_burst_transmit([this](packet::PacketBurst&& burst) {
      for (packet::PacketBuffer& frame : burst) {
        transmitted_.push_back(std::move(frame));
      }
    });
  }

  Nat nat_;
  AdaptationLayer adaptation_;
  std::vector<packet::PacketBuffer> transmitted_;
};

TEST_F(AdaptationFixture, DemuxesByMarkAndRetags) {
  // Graph A inside-port traffic (mark 3000) -> NAT ctx 0 -> outside port
  // -> re-tagged with 3001.
  adaptation_.receive(0, marked_udp(3000, "192.168.1.5", 53));
  ASSERT_EQ(transmitted_.size(), 1u);
  auto eth = packet::parse_ethernet(transmitted_[0].data());
  EXPECT_EQ(eth->vlan.value_or(0), 3001);
  // The NAT applied context 0's external IP.
  auto tuple = packet::extract_five_tuple(
      transmitted_[0].data().subspan(eth->wire_size()));
  EXPECT_EQ(tuple->src_ip.to_string(), "203.0.113.1");
}

TEST_F(AdaptationFixture, ContextsIsolated) {
  adaptation_.receive(0, marked_udp(3010, "192.168.1.5", 53));
  ASSERT_EQ(transmitted_.size(), 1u);
  auto eth = packet::parse_ethernet(transmitted_[0].data());
  EXPECT_EQ(eth->vlan.value_or(0), 3011);
  auto tuple = packet::extract_five_tuple(
      transmitted_[0].data().subspan(eth->wire_size()));
  // Context 1's external IP, not context 0's.
  EXPECT_EQ(tuple->src_ip.to_string(), "203.0.113.2");
  EXPECT_EQ(nat_.session_count(1), 1u);
  EXPECT_EQ(nat_.session_count(0), 0u);
}

TEST_F(AdaptationFixture, UnboundMarkCounted) {
  adaptation_.receive(0, marked_udp(3999, "192.168.1.5", 53));
  EXPECT_TRUE(transmitted_.empty());
  EXPECT_EQ(adaptation_.stats().unmapped_in, 1u);
}

TEST_F(AdaptationFixture, UntaggedFrameCounted) {
  packet::UdpFrameSpec spec;
  spec.ip_src = *packet::Ipv4Address::parse("192.168.1.5");
  spec.ip_dst = *packet::Ipv4Address::parse("8.8.8.8");
  adaptation_.receive(0, packet::build_udp_frame(spec));
  EXPECT_TRUE(transmitted_.empty());
  EXPECT_EQ(adaptation_.stats().untagged, 1u);
}

TEST_F(AdaptationFixture, NfSeesUntaggedTraffic) {
  // The NAT must receive the frame with the mark popped: its translated
  // output exists (session created) proving it parsed the IP packet.
  adaptation_.receive(0, marked_udp(3000, "192.168.1.5", 53));
  EXPECT_EQ(nat_.session_count(0), 1u);
}

TEST_F(AdaptationFixture, UnbindContextStopsTraffic) {
  EXPECT_EQ(adaptation_.unbind_context(0), 2u);
  adaptation_.receive(0, marked_udp(3000, "192.168.1.5", 53));
  EXPECT_TRUE(transmitted_.empty());
  EXPECT_EQ(adaptation_.stats().unmapped_in, 1u);
  // Context 1 still works.
  adaptation_.receive(0, marked_udp(3010, "192.168.1.5", 53));
  EXPECT_EQ(transmitted_.size(), 1u);
}

TEST_F(AdaptationFixture, BindRejectsDuplicates) {
  EXPECT_FALSE(adaptation_.bind(2, 0, 3000).is_ok());  // mark taken
  EXPECT_FALSE(adaptation_.bind(0, 0, 3500).is_ok());  // path taken
  EXPECT_EQ(adaptation_.binding_count(), 4u);
}

}  // namespace
}  // namespace nnfv::nnf
