// The marked adaptation path: a single-interface NNF shared by several
// graphs gets each burst with its mark beside it, never as an 802.1Q tag
// in the frame. Checks the tag-free datapath through a whole node, exact
// AdaptationStats per burst, the cost model still charging the tag bytes,
// and that a replica handed to a shared NAT cannot corrupt its siblings.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "compute/native_driver.hpp"
#include "core/node.hpp"
#include "nffg/nffg.hpp"
#include "nnf/adaptation.hpp"
#include "nnf/plugin.hpp"
#include "packet/builder.hpp"
#include "switch/lsi.hpp"

namespace nnfv {
namespace {

constexpr std::size_t kCustomers = 3;
constexpr std::size_t kFlows = 4;

packet::PacketBuffer udp_frame(const std::string& src, std::uint16_t sport,
                               std::uint16_t dport, std::size_t payload) {
  static const std::vector<std::uint8_t> kPayload(256, 0x3C);
  packet::UdpFrameSpec spec;
  spec.eth_src = packet::MacAddress::from_id(0xA1);
  spec.eth_dst = packet::MacAddress::from_id(0xA2);
  spec.ip_src = *packet::Ipv4Address::parse(src);
  spec.ip_dst = *packet::Ipv4Address::parse("198.18.0.1");
  spec.src_port = sport;
  spec.dst_port = dport;
  spec.payload = {kPayload.data(), payload};
  return packet::build_udp_frame(spec);
}

bool has_tag(const packet::PacketBuffer& frame) {
  auto eth = packet::parse_ethernet(frame.data());
  return eth.is_ok() && eth->vlan.has_value();
}

/// What a probed NF saw and emitted, over all its contexts.
struct ProbeLog {
  std::size_t frames_in = 0;
  std::size_t tagged_in = 0;
  std::size_t frames_out = 0;
  std::uint64_t bytes_out = 0;
};

/// Forwards everything to a built-in NF and logs the frames around it.
class ProbeNf final : public nnf::NetworkFunction {
 public:
  ProbeNf(std::unique_ptr<nnf::NetworkFunction> inner,
          std::shared_ptr<ProbeLog> log)
      : inner_(std::move(inner)), log_(std::move(log)) {}

  [[nodiscard]] std::string_view type() const override {
    return inner_->type();
  }
  [[nodiscard]] std::size_t num_ports() const override {
    return inner_->num_ports();
  }
  util::Status add_context(nnf::ContextId ctx) override {
    return inner_->add_context(ctx);
  }
  util::Status remove_context(nnf::ContextId ctx) override {
    return inner_->remove_context(ctx);
  }
  [[nodiscard]] bool has_context(nnf::ContextId ctx) const override {
    return inner_->has_context(ctx);
  }
  util::Status configure(nnf::ContextId ctx,
                         const nnf::NfConfig& config) override {
    return inner_->configure(ctx, config);
  }
  std::vector<nnf::NfOutput> process_burst(
      nnf::ContextId ctx, nnf::NfPortIndex in_port, sim::SimTime now,
      packet::PacketBurst&& burst) override {
    for (const packet::PacketBuffer& frame : burst) {
      ++log_->frames_in;
      if (has_tag(frame)) ++log_->tagged_in;
    }
    auto out = inner_->process_burst(ctx, in_port, now, std::move(burst));
    for (const nnf::NfOutput& output : out) {
      ++log_->frames_out;
      log_->bytes_out += output.frame.size();
    }
    return out;
  }

 private:
  std::unique_ptr<nnf::NetworkFunction> inner_;
  std::shared_ptr<ProbeLog> log_;
};

/// A built-in plugin whose functions are wrapped in a ProbeNf.
std::shared_ptr<nnf::NnfPlugin> probed(
    const std::shared_ptr<nnf::NnfPlugin>& builtin,
    std::shared_ptr<ProbeLog> log) {
  return std::make_shared<nnf::SimpleNnfPlugin>(
      builtin->descriptor(),
      [builtin, log]() -> util::Result<std::unique_ptr<nnf::NetworkFunction>> {
        auto inner = builtin->create_function();
        if (!inner) return inner.status();
        return std::unique_ptr<nnf::NetworkFunction>(
            std::make_unique<ProbeNf>(std::move(inner.value()), log));
      });
}

/// lan -> firewall -> NAT -> wan (and back) for one customer; every
/// customer shares the one native firewall and NAT.
nffg::NfFg customer_graph(std::size_t c) {
  const std::string n = std::to_string(c);
  nffg::NfFg graph;
  graph.id = "cust" + n;
  nffg::NfNode& fw = graph.add_nf("fw", "firewall");
  fw.backend_hint = virt::BackendKind::kNative;
  fw.config = {{"policy", "accept"}, {"rule.1", "drop,any,any,udp,23"}};
  nffg::NfNode& nat = graph.add_nf("nat", "nat");
  nat.backend_hint = virt::BackendKind::kNative;
  nat.config = {{"external_ip", "203.0.113." + std::to_string(c + 1)}};
  graph.add_endpoint("lan", "lan" + n);
  graph.add_endpoint("wan", "wan" + n);
  graph.connect("r1", nffg::endpoint_ref("lan"), nffg::nf_port("fw", 0));
  graph.connect("r2", nffg::nf_port("fw", 1), nffg::nf_port("nat", 0));
  graph.connect("r3", nffg::nf_port("nat", 1), nffg::endpoint_ref("wan"));
  graph.connect("r4", nffg::endpoint_ref("wan"), nffg::nf_port("nat", 1));
  graph.connect("r5", nffg::nf_port("nat", 0), nffg::nf_port("fw", 1));
  graph.connect("r6", nffg::nf_port("fw", 0), nffg::endpoint_ref("lan"));
  return graph;
}

/// kFlows flows of customer `c`, `copies` frames each; flow 0 goes to the
/// firewall's blocked port 23 when `with_blocked` is set.
packet::PacketBurst customer_burst(std::size_t c, std::size_t copies,
                                   bool with_blocked) {
  packet::PacketBurst burst;
  for (std::size_t i = 0; i < copies; ++i) {
    for (std::size_t f = 0; f < kFlows; ++f) {
      const std::uint16_t dport = with_blocked && f == 0 ? 23 : 53;
      burst.push_back(udp_frame("192.168.1." + std::to_string(10 + c),
                                static_cast<std::uint16_t>(6000 + f), dport,
                                20 + 3 * f));
    }
  }
  return burst;
}

/// A node whose firewall and NAT plugins are probed, with kCustomers
/// graphs deployed and every wan egress collected.
class SharedNnfNode : public ::testing::Test {
 protected:
  SharedNnfNode() : node_(config()) {
    EXPECT_TRUE(node_.catalog()
                    .register_plugin(probed(nnf::make_firewall_plugin(),
                                            fw_log_))
                    .is_ok());
    EXPECT_TRUE(
        node_.catalog()
            .register_plugin(probed(nnf::make_nat_plugin(), nat_log_))
            .is_ok());
    for (std::size_t c = 0; c < kCustomers; ++c) {
      EXPECT_TRUE(node_.orchestrator().deploy(customer_graph(c)).is_ok());
      EXPECT_TRUE(node_.set_egress("wan" + std::to_string(c),
                                   [this](packet::PacketBuffer&& frame) {
                                     egress_.push_back(std::move(frame));
                                   })
                      .is_ok());
    }
    auto driver = node_.compute().driver(virt::BackendKind::kNative);
    EXPECT_TRUE(driver.is_ok());
    native_ = dynamic_cast<compute::NativeDriver*>(driver.value());
  }

  static core::UniversalNodeConfig config() {
    core::UniversalNodeConfig config;
    config.builtin_nnf_plugins = false;
    config.physical_ports.clear();
    for (std::size_t c = 0; c < kCustomers; ++c) {
      config.physical_ports.push_back("lan" + std::to_string(c));
      config.physical_ports.push_back("wan" + std::to_string(c));
    }
    return config;
  }

  void run(std::size_t c, packet::PacketBurst&& burst) {
    ASSERT_TRUE(
        node_.inject_burst("lan" + std::to_string(c), std::move(burst))
            .is_ok());
    node_.drain_datapath();
    node_.simulator().run();
  }

  /// Bytes the driver handed back into the graph LSIs from NNF ports.
  std::uint64_t nnf_port_rx_bytes() {
    std::uint64_t bytes = 0;
    for (std::size_t c = 0; c < kCustomers; ++c) {
      nfswitch::Lsi* lsi =
          node_.network().graph_lsi("cust" + std::to_string(c));
      EXPECT_NE(lsi, nullptr);
      for (const char* name : {"fw:0", "fw:1", "nat:0", "nat:1"}) {
        auto port = lsi->port_by_name(name);
        EXPECT_TRUE(port.is_ok()) << name;
        bytes += lsi->port_stats(port.value())->rx_bytes;
      }
    }
    return bytes;
  }

  std::shared_ptr<ProbeLog> fw_log_ = std::make_shared<ProbeLog>();
  std::shared_ptr<ProbeLog> nat_log_ = std::make_shared<ProbeLog>();
  core::UniversalNode node_;
  compute::NativeDriver* native_ = nullptr;
  std::vector<packet::PacketBuffer> egress_;
};

TEST_F(SharedNnfNode, NoTagReachesTheNfOrReentersTheSwitch) {
  ASSERT_NE(native_, nullptr);
  EXPECT_EQ(native_->running_instances("firewall"), 1u);
  EXPECT_EQ(native_->running_instances("nat"), 1u);
  for (std::size_t c = 0; c < kCustomers; ++c) {
    run(c, customer_burst(c, 3, /*with_blocked=*/true));
  }

  // Flow 0 of every customer is dropped by the firewall.
  const std::size_t sent = kCustomers * kFlows * 3;
  const std::size_t passed = kCustomers * (kFlows - 1) * 3;
  EXPECT_EQ(fw_log_->frames_in, sent);
  EXPECT_EQ(fw_log_->frames_out, passed);
  EXPECT_EQ(nat_log_->frames_in, passed);
  EXPECT_EQ(nat_log_->frames_out, passed);
  EXPECT_EQ(fw_log_->tagged_in, 0u);
  EXPECT_EQ(nat_log_->tagged_in, 0u);

  // Every NNF output re-entered its graph's LSI exactly as the NF emitted
  // it: a frame carrying a tag there would add 4 bytes.
  EXPECT_EQ(nnf_port_rx_bytes(), fw_log_->bytes_out + nat_log_->bytes_out);
  ASSERT_EQ(egress_.size(), passed);
  for (const packet::PacketBuffer& frame : egress_) {
    EXPECT_FALSE(has_tag(frame));
  }
}

TEST_F(SharedNnfNode, AdaptationStatsExactPerBurst) {
  ASSERT_NE(native_, nullptr);
  const nnf::AdaptationLayer* fw = native_->first_adaptation("firewall");
  const nnf::AdaptationLayer* nat = native_->first_adaptation("nat");
  ASSERT_NE(fw, nullptr);
  ASSERT_NE(nat, nullptr);

  std::size_t fw_in = 0;
  std::size_t fw_out = 0;
  for (std::size_t copies : {1, 4, 2}) {
    run(copies % kCustomers, customer_burst(copies % kCustomers, copies,
                                            /*with_blocked=*/true));
    fw_in += kFlows * copies;
    fw_out += (kFlows - 1) * copies;
    EXPECT_EQ(fw->stats().in_frames, fw_in);
    EXPECT_EQ(fw->stats().out_frames, fw_out);
    EXPECT_EQ(nat->stats().in_frames, fw_out);
    EXPECT_EQ(nat->stats().out_frames, fw_out);
  }
  for (const nnf::AdaptationLayer* layer : {fw, nat}) {
    EXPECT_EQ(layer->stats().unmapped_in, 0u);
    EXPECT_EQ(layer->stats().unmapped_out, 0u);
    EXPECT_EQ(layer->stats().untagged, 0u);
  }

  // A burst still queued at the firewall when its graph goes away arrives
  // on a mark that is no longer bound: counted once per frame, dropped.
  ASSERT_TRUE(node_.inject_burst("lan1", customer_burst(1, 2, false)).is_ok());
  node_.drain_datapath();
  ASSERT_TRUE(node_.orchestrator().remove("cust1").is_ok());
  node_.simulator().run();
  EXPECT_EQ(fw->stats().in_frames, fw_in + 2 * kFlows);
  EXPECT_EQ(fw->stats().unmapped_in, 2 * kFlows);
  EXPECT_EQ(fw->stats().out_frames, fw_out);
}

TEST_F(SharedNnfNode, ServiceTimeStillChargesTheTagBytes) {
  ASSERT_NE(native_, nullptr);
  const compute::NfInstance* fw = native_->first_instance("firewall");
  ASSERT_NE(fw, nullptr);
  packet::PacketBurst burst = customer_burst(0, 2, /*with_blocked=*/false);
  sim::SimTime expected = 0;
  for (const packet::PacketBuffer& frame : burst) {
    expected += fw->cost().service_time(frame.size() + packet::kVlanTagSize);
  }
  run(0, std::move(burst));
  EXPECT_EQ(fw->queue_stats().completed, 1u);  // one station item per burst
  EXPECT_EQ(fw->queue_stats().busy_time, expected);
}

TEST_F(SharedNnfNode, ReplicaBesideSharedNatStaysIntact) {
  // One rule replicates a frame to the shared NAT's inside port and to a
  // plain port. The NAT rewrites its replica; it must unshare first, since
  // no tag push on the way in makes the copy for it any more.
  nfswitch::Lsi* lsi = node_.network().graph_lsi("cust0");
  ASSERT_NE(lsi, nullptr);
  const auto tap_in = lsi->add_port("tap-in").value();
  const auto tap_out = lsi->add_port("tap-out").value();
  const auto nat_in = lsi->port_by_name("nat:0").value();
  std::vector<packet::PacketBuffer> tapped;
  ASSERT_TRUE(lsi->set_port_peer(tap_out,
                                 [&tapped](packet::PacketBurst&& burst) {
                                   for (auto& frame : burst) {
                                     tapped.push_back(std::move(frame));
                                   }
                                 })
                  .is_ok());
  lsi->flow_table().add(1000, nfswitch::match_in_port(tap_in),
                        {nfswitch::FlowAction::output(nat_in),
                         nfswitch::FlowAction::output(tap_out)});

  packet::PacketBuffer frame = udp_frame("192.168.1.10", 7000, 53, 40);
  const std::vector<std::uint8_t> original(frame.data().begin(),
                                           frame.data().end());
  lsi->receive(tap_in, std::move(frame));
  node_.simulator().run();

  ASSERT_EQ(tapped.size(), 1u);
  ASSERT_EQ(egress_.size(), 1u);  // the NAT's replica, translated
  const auto tap_bytes = tapped[0].data();
  EXPECT_TRUE(std::equal(tap_bytes.begin(), tap_bytes.end(),
                         original.begin(), original.end()));
  const auto nat_bytes = egress_[0].data();
  EXPECT_FALSE(std::equal(nat_bytes.begin(), nat_bytes.end(),
                          original.begin(), original.end()));
}

// ---------------------------------------------------------------------------
// The marked core on its own
// ---------------------------------------------------------------------------

/// Echoes each frame to port 0, and every third one to port 1 as well.
class EchoNf final : public nnf::NetworkFunction {
 public:
  [[nodiscard]] std::string_view type() const override { return "echo"; }
  [[nodiscard]] std::size_t num_ports() const override { return 2; }
  util::Status configure(nnf::ContextId, const nnf::NfConfig&) override {
    return util::Status::ok();
  }
  std::vector<nnf::NfOutput> process_burst(
      nnf::ContextId, nnf::NfPortIndex, sim::SimTime,
      packet::PacketBurst&& burst) override {
    ++calls;
    std::vector<nnf::NfOutput> out;
    for (std::size_t i = 0; i < burst.size(); ++i) {
      if (i % 3 == 2) out.push_back(nnf::NfOutput{1, burst[i].clone()});
      out.push_back(nnf::NfOutput{0, std::move(burst[i])});
    }
    return out;
  }
  std::size_t calls = 0;
};

TEST(MarkedAdaptation, StatsAndGroupsAreExactPerBurst) {
  EchoNf nf;
  nnf::AdaptationLayer layer(nf);
  ASSERT_TRUE(layer.bind(nnf::kDefaultContext, 0, 100).is_ok());
  // Port 1 has no mark: its outputs are unmapped_out.
  std::vector<std::pair<nnf::Mark, std::size_t>> sent;
  layer.set_transmit([&](nnf::Mark mark, packet::PacketBurst&& burst) {
    for (const packet::PacketBuffer& frame : burst) {
      EXPECT_FALSE(has_tag(frame));
    }
    sent.emplace_back(mark, burst.size());
  });

  auto burst_of = [](std::size_t n) {
    packet::PacketBurst burst;
    for (std::size_t i = 0; i < n; ++i) {
      burst.push_back(udp_frame("10.0.0.1", 1000, 53, 8 + i));
    }
    return burst;
  };

  layer.receive(0, 100, burst_of(6));
  EXPECT_EQ(nf.calls, 1u);
  EXPECT_EQ(layer.stats().in_frames, 6u);
  EXPECT_EQ(layer.stats().out_frames, 6u);
  EXPECT_EQ(layer.stats().unmapped_out, 2u);
  EXPECT_EQ(layer.stats().unmapped_in, 0u);
  ASSERT_EQ(sent.size(), 1u);  // one group for the one marked port
  EXPECT_EQ(sent[0], (std::pair<nnf::Mark, std::size_t>{100, 6}));

  // An unbound mark: the whole burst is counted and never reaches the NF.
  layer.receive(0, 555, burst_of(5));
  EXPECT_EQ(nf.calls, 1u);
  EXPECT_EQ(layer.stats().in_frames, 11u);
  EXPECT_EQ(layer.stats().unmapped_in, 5u);
  EXPECT_EQ(layer.stats().out_frames, 6u);
  EXPECT_EQ(sent.size(), 1u);

  // Binding port 1 turns the extra outputs into a second group.
  ASSERT_TRUE(layer.bind(nnf::kDefaultContext, 1, 101).is_ok());
  layer.receive(0, 100, burst_of(3));
  EXPECT_EQ(layer.stats().in_frames, 14u);
  EXPECT_EQ(layer.stats().out_frames, 10u);
  EXPECT_EQ(layer.stats().unmapped_out, 2u);
  ASSERT_EQ(sent.size(), 3u);
  EXPECT_EQ(sent[1], (std::pair<nnf::Mark, std::size_t>{100, 3}));
  EXPECT_EQ(sent[2], (std::pair<nnf::Mark, std::size_t>{101, 1}));
  EXPECT_EQ(layer.stats().untagged, 0u);
}

}  // namespace
}  // namespace nnfv
