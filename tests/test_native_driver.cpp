// NativeDriver tests — the paper's contribution: plugin activation, netns
// isolation, instance limits, sharing via contexts, marking + adaptation
// layer wiring, and resource accounting.
#include <gtest/gtest.h>

#include "compute/native_driver.hpp"
#include "packet/builder.hpp"
#include "packet/flow_key.hpp"
#include "packet/mbuf.hpp"

namespace nnfv::compute {
namespace {

packet::PacketBuffer udp_frame(const std::string& src_ip,
                               std::uint16_t dport = 53) {
  packet::UdpFrameSpec spec;
  spec.eth_src = packet::MacAddress::from_id(1);
  spec.eth_dst = packet::MacAddress::from_id(2);
  spec.ip_src = *packet::Ipv4Address::parse(src_ip);
  spec.ip_dst = *packet::Ipv4Address::parse("8.8.8.8");
  spec.src_port = 1234;
  spec.dst_port = dport;
  static const std::vector<std::uint8_t> payload(64, 1);
  spec.payload = payload;
  return packet::build_udp_frame(spec);
}

class NativeDriverFixture : public ::testing::Test {
 protected:
  NativeDriverFixture()
      : catalog_(nnf::NnfCatalog::with_builtin_plugins()),
        ram_(1024ULL * virt::kMiB),
        lsi_a_(1, "LSI-gA"),
        lsi_b_(2, "LSI-gB") {
    env_.simulator = &simulator_;
    env_.catalog = &catalog_;
    env_.netns = &netns_;
    env_.marks = &marks_;
    env_.ram = &ram_;
    driver_ = std::make_unique<NativeDriver>(env_);
  }

  NfDeploySpec spec_for(const std::string& graph, const std::string& nf,
                        const std::string& type) {
    NfDeploySpec spec;
    spec.graph_id = graph;
    spec.nf_id = nf;
    spec.functional_type = type;
    spec.num_ports = 2;
    return spec;
  }

  sim::Simulator simulator_;
  nnf::NnfCatalog catalog_;
  netns::NamespaceRegistry netns_;
  nnf::MarkAllocator marks_;
  virt::RamLedger ram_;
  nfswitch::Lsi lsi_a_;
  nfswitch::Lsi lsi_b_;
  NativeDriverEnv env_;
  std::unique_ptr<NativeDriver> driver_;
};

TEST_F(NativeDriverFixture, DeployCreatesNamespaceAndPorts) {
  auto deployed = driver_->deploy(spec_for("gA", "vpn", "ipsec"), lsi_a_);
  ASSERT_TRUE(deployed.is_ok());
  EXPECT_EQ(deployed->backend, virt::BackendKind::kNative);
  EXPECT_FALSE(deployed->reused_shared_instance);
  EXPECT_EQ(deployed->context, nnf::kDefaultContext);
  EXPECT_EQ(deployed->ports.size(), 2u);
  // Table 1 native row: RAM ~19.4 MB, image 5 MB, no backend overhead.
  EXPECT_NEAR(static_cast<double>(deployed->ram_bytes) / (1024 * 1024),
              19.4, 0.1);
  EXPECT_EQ(deployed->image_bytes, 5ULL * 1024 * 1024);

  // A namespace was created with veth ends per port.
  EXPECT_EQ(netns_.count(), 2u);  // root + NNF namespace
  EXPECT_TRUE(netns_.exists("ns-ipsec-1"));
  auto ifs = netns_.interfaces_in(netns_.id_of("ns-ipsec-1").value());
  EXPECT_EQ(ifs.size(), 2u);

  EXPECT_EQ(driver_->running_instances("ipsec"), 1u);
  EXPECT_EQ(catalog_.status_of("ipsec")->running_instances, 1u);
  EXPECT_TRUE(catalog_.status_of("ipsec")->graphs.contains("gA"));
}

TEST_F(NativeDriverFixture, SecondGraphSharesIpsecInstance) {
  auto first = driver_->deploy(spec_for("gA", "vpn", "ipsec"), lsi_a_);
  ASSERT_TRUE(first.is_ok());
  auto second = driver_->deploy(spec_for("gB", "vpn", "ipsec"), lsi_b_);
  ASSERT_TRUE(second.is_ok());

  EXPECT_TRUE(second->reused_shared_instance);
  EXPECT_EQ(second->instance, first->instance);  // same process
  EXPECT_NE(second->context, first->context);    // isolated internal path
  EXPECT_EQ(driver_->running_instances("ipsec"), 1u);
  // Marginal RAM for the second graph is a context, not a process.
  EXPECT_LT(second->ram_bytes, first->ram_bytes / 10);
  // Sharing is much faster to activate than booting.
  EXPECT_LT(second->boot_time, first->boot_time);
}

TEST_F(NativeDriverFixture, NonSharableBridgeGetsNewInstances) {
  auto first = driver_->deploy(spec_for("gA", "br", "bridge"), lsi_a_);
  ASSERT_TRUE(first.is_ok());
  auto second = driver_->deploy(spec_for("gB", "br", "bridge"), lsi_b_);
  ASSERT_TRUE(second.is_ok());
  EXPECT_FALSE(second->reused_shared_instance);
  EXPECT_NE(second->instance, first->instance);
  EXPECT_EQ(driver_->running_instances("bridge"), 2u);
}

TEST_F(NativeDriverFixture, CanDeployHonorsLimitsAndSharing) {
  EXPECT_TRUE(driver_->can_deploy("ipsec"));
  EXPECT_FALSE(driver_->can_deploy("ghost"));
  auto deployed = driver_->deploy(spec_for("gA", "vpn", "ipsec"), lsi_a_);
  ASSERT_TRUE(deployed.is_ok());
  // Instance limit reached (max 1) but sharable -> still deployable.
  EXPECT_TRUE(driver_->can_deploy("ipsec"));
}

TEST_F(NativeDriverFixture, DuplicateDeploymentRejected) {
  ASSERT_TRUE(driver_->deploy(spec_for("gA", "vpn", "ipsec"), lsi_a_).is_ok());
  auto dup = driver_->deploy(spec_for("gA", "vpn", "ipsec"), lsi_a_);
  EXPECT_FALSE(dup.is_ok());
  EXPECT_EQ(dup.status().code(), util::ErrorCode::kAlreadyExists);
}

TEST_F(NativeDriverFixture, UndeployLastContextDestroysInstance) {
  auto first = driver_->deploy(spec_for("gA", "vpn", "ipsec"), lsi_a_);
  auto second = driver_->deploy(spec_for("gB", "vpn", "ipsec"), lsi_b_);
  ASSERT_TRUE(first.is_ok());
  ASSERT_TRUE(second.is_ok());
  const std::uint64_t ram_with_both = ram_.used();

  ASSERT_TRUE(driver_->undeploy(second.value()).is_ok());
  EXPECT_EQ(driver_->running_instances("ipsec"), 1u);  // still serving gA
  EXPECT_LT(ram_.used(), ram_with_both);
  EXPECT_FALSE(catalog_.status_of("ipsec")->graphs.contains("gB"));

  ASSERT_TRUE(driver_->undeploy(first.value()).is_ok());
  EXPECT_EQ(driver_->running_instances("ipsec"), 0u);
  EXPECT_EQ(ram_.used(), 0u);
  EXPECT_FALSE(netns_.exists("ns-ipsec-1"));  // namespace torn down
  EXPECT_EQ(catalog_.status_of("ipsec")->running_instances, 0u);
  EXPECT_EQ(driver_->total_instances(), 0u);
}

TEST_F(NativeDriverFixture, UndeployLastContextWithBurstQueued) {
  // The last context of a single-interface NNF goes away while a burst is
  // in its service station: the instance and its adaptation layer are
  // freed with the event still in the simulator. Running that event must
  // release the frames, not deliver them through the freed layer.
  const packet::MbufPoolStats before = packet::MbufPool::global_stats();
  auto deployed = driver_->deploy(spec_for("gA", "fw", "firewall"), lsi_a_);
  ASSERT_TRUE(deployed.is_ok());
  const auto ext_in = lsi_a_.add_port("ext-in").value();
  const auto ext_out = lsi_a_.add_port("ext-out").value();
  int delivered = 0;
  (void)lsi_a_.set_port_peer(ext_out, [&](packet::PacketBurst&& burst) {
    delivered += static_cast<int>(burst.size());
  });
  lsi_a_.flow_table().add(
      10, nfswitch::match_in_port(ext_in),
      {nfswitch::FlowAction::output(deployed->ports[0].lsi_port)});
  lsi_a_.flow_table().add(
      10, nfswitch::match_in_port(deployed->ports[1].lsi_port),
      {nfswitch::FlowAction::output(ext_out)});

  lsi_a_.receive(ext_in, udp_frame("192.168.1.10"));
  EXPECT_FALSE(simulator_.idle());  // the burst is in service
  ASSERT_TRUE(driver_->undeploy(deployed.value()).is_ok());
  EXPECT_EQ(driver_->total_instances(), 0u);
  simulator_.run();

  EXPECT_EQ(delivered, 0);
  const packet::MbufPoolStats after = packet::MbufPool::global_stats();
  EXPECT_EQ(after.segment_allocs - before.segment_allocs,
            after.segment_frees - before.segment_frees);
}

TEST_F(NativeDriverFixture, SingleInterfaceNnfUsesMarks) {
  auto deployed = driver_->deploy(spec_for("gA", "nat", "nat"), lsi_a_);
  ASSERT_TRUE(deployed.is_ok());
  // Every logical port got a mark from the shared-path pool.
  ASSERT_EQ(deployed->ports.size(), 2u);
  EXPECT_TRUE(deployed->ports[0].mark.has_value());
  EXPECT_TRUE(deployed->ports[1].mark.has_value());
  EXPECT_NE(*deployed->ports[0].mark, *deployed->ports[1].mark);
  EXPECT_EQ(marks_.in_use(), 2u);
}

TEST_F(NativeDriverFixture, SingleInterfaceDatapathTranslates) {
  NfDeploySpec spec = spec_for("gA", "nat", "nat");
  spec.config["external_ip"] = "203.0.113.1";
  auto deployed = driver_->deploy(spec, lsi_a_);
  ASSERT_TRUE(deployed.is_ok());

  // Steer: ext-in -> NAT inside port; NAT outside port -> ext-out.
  const auto ext_in = lsi_a_.add_port("ext-in").value();
  const auto ext_out = lsi_a_.add_port("ext-out").value();
  std::vector<packet::PacketBuffer> delivered;
  (void)lsi_a_.set_port_peer(ext_out, [&](packet::PacketBurst&& burst) {
    for (auto& frame : burst) delivered.push_back(std::move(frame));
  });
  lsi_a_.flow_table().add(
      10, nfswitch::match_in_port(ext_in),
      {nfswitch::FlowAction::output(deployed->ports[0].lsi_port)});
  lsi_a_.flow_table().add(
      10, nfswitch::match_in_port(deployed->ports[1].lsi_port),
      {nfswitch::FlowAction::output(ext_out)});

  lsi_a_.receive(ext_in, udp_frame("192.168.1.10"));
  simulator_.run();

  ASSERT_EQ(delivered.size(), 1u);
  // The frame came back untagged (marks are internal mechanics)...
  auto eth = packet::parse_ethernet(delivered[0].data());
  EXPECT_FALSE(eth->vlan.has_value());
  // ...and translated by the NAT.
  auto tuple = packet::extract_five_tuple(
      delivered[0].data().subspan(eth->wire_size()));
  EXPECT_EQ(tuple->src_ip.to_string(), "203.0.113.1");
}

TEST_F(NativeDriverFixture, SharedNatKeepsGraphTrafficApart) {
  // Two graphs share the NAT (single instance) with different external IPs.
  NfDeploySpec spec_a = spec_for("gA", "nat", "nat");
  spec_a.config["external_ip"] = "203.0.113.1";
  auto dep_a = driver_->deploy(spec_a, lsi_a_);
  ASSERT_TRUE(dep_a.is_ok());
  NfDeploySpec spec_b = spec_for("gB", "nat", "nat");
  spec_b.config["external_ip"] = "203.0.113.2";
  auto dep_b = driver_->deploy(spec_b, lsi_b_);
  ASSERT_TRUE(dep_b.is_ok());
  EXPECT_TRUE(dep_b->reused_shared_instance);
  EXPECT_EQ(driver_->running_instances("nat"), 1u);

  auto wire = [&](nfswitch::Lsi& lsi, const DeployedNf& dep,
                  std::vector<packet::PacketBuffer>& sink) {
    const auto ext_in = lsi.add_port("ext-in").value();
    const auto ext_out = lsi.add_port("ext-out").value();
    (void)lsi.set_port_peer(ext_out, [&sink](packet::PacketBurst&& burst) {
      for (auto& frame : burst) sink.push_back(std::move(frame));
    });
    lsi.flow_table().add(
        10, nfswitch::match_in_port(ext_in),
        {nfswitch::FlowAction::output(dep.ports[0].lsi_port)});
    lsi.flow_table().add(
        10, nfswitch::match_in_port(dep.ports[1].lsi_port),
        {nfswitch::FlowAction::output(ext_out)});
    return ext_in;
  };
  std::vector<packet::PacketBuffer> out_a;
  std::vector<packet::PacketBuffer> out_b;
  const auto in_a = wire(lsi_a_, dep_a.value(), out_a);
  const auto in_b = wire(lsi_b_, dep_b.value(), out_b);

  lsi_a_.receive(in_a, udp_frame("192.168.1.10"));
  lsi_b_.receive(in_b, udp_frame("192.168.1.10"));
  simulator_.run();

  ASSERT_EQ(out_a.size(), 1u);
  ASSERT_EQ(out_b.size(), 1u);
  auto src_of = [](const packet::PacketBuffer& frame) {
    auto eth = packet::parse_ethernet(frame.data());
    auto tuple = packet::extract_five_tuple(
        frame.data().subspan(eth->wire_size()));
    return tuple->src_ip.to_string();
  };
  // Each graph's traffic got its own context's external IP.
  EXPECT_EQ(src_of(out_a[0]), "203.0.113.1");
  EXPECT_EQ(src_of(out_b[0]), "203.0.113.2");
}

TEST_F(NativeDriverFixture, UpdateAppliesPerContext) {
  NfDeploySpec spec = spec_for("gA", "nat", "nat");
  spec.config["external_ip"] = "203.0.113.1";
  auto deployed = driver_->deploy(spec, lsi_a_);
  ASSERT_TRUE(deployed.is_ok());
  EXPECT_TRUE(driver_
                  ->update(deployed.value(),
                           {{"external_ip", "203.0.113.200"}})
                  .is_ok());
  EXPECT_FALSE(driver_->update(deployed.value(), {{"bad", "x"}}).is_ok());
  DeployedNf ghost = deployed.value();
  ghost.graph_id = "none";
  EXPECT_FALSE(driver_->update(ghost, {}).is_ok());
}

TEST_F(NativeDriverFixture, RamExhaustionFailsCleanly) {
  virt::RamLedger tiny(1 * virt::kMiB);
  env_.ram = &tiny;
  NativeDriver driver(env_);
  auto deployed = driver.deploy(spec_for("gA", "vpn", "ipsec"), lsi_a_);
  ASSERT_FALSE(deployed.is_ok());
  EXPECT_EQ(deployed.status().code(), util::ErrorCode::kResourceExhausted);
  EXPECT_EQ(netns_.count(), 1u);      // namespace rolled back
  EXPECT_EQ(tiny.used(), 0u);
  EXPECT_EQ(driver.running_instances("ipsec"), 0u);
}

TEST_F(NativeDriverFixture, BadConfigRollsBackSharedContext) {
  NfDeploySpec good = spec_for("gA", "nat", "nat");
  good.config["external_ip"] = "203.0.113.1";
  ASSERT_TRUE(driver_->deploy(good, lsi_a_).is_ok());
  NfDeploySpec bad = spec_for("gB", "nat", "nat");
  bad.config["external_ip"] = "bogus";
  auto deployed = driver_->deploy(bad, lsi_b_);
  EXPECT_FALSE(deployed.is_ok());
  // The shared instance survives with one context; a retry works.
  EXPECT_EQ(driver_->running_instances("nat"), 1u);
  NfDeploySpec retry = spec_for("gB", "nat", "nat");
  retry.config["external_ip"] = "203.0.113.2";
  EXPECT_TRUE(driver_->deploy(retry, lsi_b_).is_ok());
}

TEST_F(NativeDriverFixture, UndeployUnknownFails) {
  DeployedNf ghost;
  ghost.graph_id = "gX";
  ghost.nf_id = "none";
  EXPECT_FALSE(driver_->undeploy(ghost).is_ok());
}

}  // namespace
}  // namespace nnfv::compute
