// Compute layer tests: NfInstance timing/lifecycle, the generic VM/Docker/
// DPDK drivers, the template registry and the compute manager dispatch.
#include <gtest/gtest.h>

#include "compute/generic_driver.hpp"
#include "compute/instance.hpp"
#include "compute/manager.hpp"
#include "compute/templates.hpp"
#include "core/repository.hpp"
#include "nnf/bridge.hpp"
#include "packet/builder.hpp"
#include "packet/flow_key.hpp"
#include "packet/mbuf.hpp"

namespace nnfv::compute {
namespace {

packet::PacketBuffer test_frame(std::uint32_t src = 1, std::uint32_t dst = 2) {
  packet::UdpFrameSpec spec;
  spec.eth_src = packet::MacAddress::from_id(src);
  spec.eth_dst = packet::MacAddress::from_id(dst);
  spec.ip_src = *packet::Ipv4Address::parse("10.0.0.1");
  spec.ip_dst = *packet::Ipv4Address::parse("10.0.0.2");
  static const std::vector<std::uint8_t> payload(100, 7);
  spec.payload = payload;
  return packet::build_udp_frame(spec);
}

// ---------------------------------------------------------------------------
// NfInstance
// ---------------------------------------------------------------------------

TEST(NfInstance, ProcessesAfterServiceDelay) {
  sim::Simulator simulator;
  NfInstance instance(
      1, "test", std::make_unique<nnf::Bridge>(),
      virt::CostModel(virt::BackendKind::kNative, {1000, 0.0}), simulator);
  ASSERT_TRUE(instance.start().is_ok());

  std::vector<sim::SimTime> egress_times;
  instance.set_egress(nnf::kDefaultContext,
                      [&](nnf::NfPortIndex, packet::PacketBurst&& burst) {
                        for (std::size_t i = 0; i < burst.size(); ++i) {
                          egress_times.push_back(simulator.now());
                        }
                      });
  instance.inject_burst(nnf::kDefaultContext, 0,
                        packet::burst_of(test_frame()));
  simulator.run();
  ASSERT_EQ(egress_times.size(), 1u);  // bridge floods to the other port
  // Service time = path_fixed(850) + nf_fixed(1000) + 0/byte.
  EXPECT_EQ(egress_times[0], 1850);
}

TEST(NfInstance, QueuesBackToBack) {
  sim::Simulator simulator;
  NfInstance instance(
      1, "test", std::make_unique<nnf::Bridge>(),
      virt::CostModel(virt::BackendKind::kNative, {1000, 0.0}), simulator);
  ASSERT_TRUE(instance.start().is_ok());
  int processed = 0;
  instance.set_egress(nnf::kDefaultContext,
                      [&](nnf::NfPortIndex, packet::PacketBurst&& burst) {
                        processed += static_cast<int>(burst.size());
                      });
  instance.inject_burst(nnf::kDefaultContext, 0,
                        packet::burst_of(test_frame()));
  instance.inject_burst(nnf::kDefaultContext, 0,
                        packet::burst_of(test_frame()));
  simulator.run();
  EXPECT_EQ(processed, 2);
  EXPECT_EQ(simulator.now(), 2 * 1850);
  EXPECT_EQ(instance.queue_stats().completed, 2u);
}

TEST(NfInstance, DropsWhenNotRunning) {
  sim::Simulator simulator;
  NfInstance instance(
      1, "test", std::make_unique<nnf::Bridge>(),
      virt::CostModel(virt::BackendKind::kNative, {0, 0.0}), simulator);
  instance.inject_burst(nnf::kDefaultContext, 0,
                        packet::burst_of(test_frame()));  // created
  ASSERT_TRUE(instance.start().is_ok());
  ASSERT_TRUE(instance.stop().is_ok());
  instance.inject_burst(nnf::kDefaultContext, 0,
                        packet::burst_of(test_frame()));  // stopped
  simulator.run();
  EXPECT_EQ(instance.dropped_not_running(), 2u);
}

TEST(NfInstance, LifecycleTransitions) {
  sim::Simulator simulator;
  NfInstance instance(
      1, "test", std::make_unique<nnf::Bridge>(),
      virt::CostModel(virt::BackendKind::kVm, {0, 0.0}), simulator);
  EXPECT_EQ(instance.state(), InstanceState::kCreated);
  EXPECT_FALSE(instance.stop().is_ok());  // not running yet
  EXPECT_TRUE(instance.start().is_ok());
  EXPECT_EQ(instance.state(), InstanceState::kRunning);
  EXPECT_TRUE(instance.stop().is_ok());
  EXPECT_TRUE(instance.destroy().is_ok());
  EXPECT_FALSE(instance.start().is_ok());  // destroyed is terminal
  EXPECT_EQ(std::string(instance_state_name(instance.state())), "destroyed");
}

TEST(NfInstance, EgressPerContext) {
  sim::Simulator simulator;
  auto bridge = std::make_unique<nnf::Bridge>();
  ASSERT_TRUE(bridge->add_context(1).is_ok());
  NfInstance instance(
      1, "test", std::move(bridge),
      virt::CostModel(virt::BackendKind::kNative, {0, 0.0}), simulator);
  ASSERT_TRUE(instance.start().is_ok());
  int ctx0 = 0;
  int ctx1 = 0;
  instance.set_egress(0, [&](nnf::NfPortIndex, packet::PacketBurst&& burst) {
    ctx0 += static_cast<int>(burst.size());
  });
  instance.set_egress(1, [&](nnf::NfPortIndex, packet::PacketBurst&& burst) {
    ctx1 += static_cast<int>(burst.size());
  });
  instance.inject_burst(1, 0, packet::burst_of(test_frame()));
  simulator.run();
  EXPECT_EQ(ctx0, 0);
  EXPECT_EQ(ctx1, 1);
  instance.clear_egress(1);
  instance.inject_burst(1, 0, packet::burst_of(test_frame()));
  simulator.run();
  EXPECT_EQ(ctx1, 1);  // egress cleared: output discarded
}

/// UDP source port of a frame: the test below numbers frames by it.
std::uint16_t seq_of(const packet::PacketBuffer& frame) {
  auto fields = packet::extract_flow_fields(frame.data());
  return fields.is_ok() ? fields->l4_src.value_or(0) : 0;
}

/// Two-port test function: an even-numbered frame leaves by port 0, an
/// odd-numbered one by port 1, in arrival order.
class ParitySplitter final : public nnf::NetworkFunction {
 public:
  [[nodiscard]] std::string_view type() const override { return "split"; }
  [[nodiscard]] std::size_t num_ports() const override { return 2; }
  util::Status configure(nnf::ContextId, const nnf::NfConfig&) override {
    return util::Status::ok();
  }
  std::vector<nnf::NfOutput> process_burst(
      nnf::ContextId, nnf::NfPortIndex, sim::SimTime,
      packet::PacketBurst&& burst) override {
    std::vector<nnf::NfOutput> out;
    for (packet::PacketBuffer& frame : burst) {
      const nnf::NfPortIndex port = seq_of(frame) % 2;
      out.push_back(nnf::NfOutput{port, std::move(frame)});
    }
    return out;
  }
};

TEST(NfInstance, BurstEgressGroupsPerPortInOrder) {
  sim::Simulator simulator;
  auto splitter = std::make_unique<ParitySplitter>();
  ASSERT_TRUE(splitter->add_context(1).is_ok());
  NfInstance instance(
      1, "test", std::move(splitter),
      virt::CostModel(virt::BackendKind::kNative, {0, 0.0}), simulator);
  ASSERT_TRUE(instance.start().is_ok());

  // One record per egress call: (context, out port, frame numbers).
  struct Call {
    nnf::ContextId ctx;
    nnf::NfPortIndex port;
    std::vector<std::uint16_t> seqs;
  };
  std::vector<Call> calls;
  for (nnf::ContextId ctx : {0u, 1u}) {
    instance.set_egress(ctx, [&calls, ctx](nnf::NfPortIndex port,
                                           packet::PacketBurst&& burst) {
      Call call{ctx, port, {}};
      for (const packet::PacketBuffer& frame : burst) {
        call.seqs.push_back(seq_of(frame));
      }
      calls.push_back(std::move(call));
    });
  }

  packet::PacketBurst burst;
  for (std::uint16_t seq : {1, 2, 3, 4, 5, 7, 6}) {
    packet::UdpFrameSpec spec;
    spec.src_port = seq;
    burst.push_back(packet::build_udp_frame(spec));
  }
  instance.inject_burst(1, 0, std::move(burst));
  simulator.run();

  // One call per output port, first-seen port first, same-port order kept;
  // context 0's egress sees nothing of context 1's burst.
  ASSERT_EQ(calls.size(), 2u);
  EXPECT_EQ(calls[0].ctx, 1u);
  EXPECT_EQ(calls[0].port, 1u);
  EXPECT_EQ(calls[0].seqs, (std::vector<std::uint16_t>{1, 3, 5, 7}));
  EXPECT_EQ(calls[1].ctx, 1u);
  EXPECT_EQ(calls[1].port, 0u);
  EXPECT_EQ(calls[1].seqs, (std::vector<std::uint16_t>{2, 4, 6}));
  EXPECT_EQ(instance.queue_stats().completed, 1u);  // one station item
}

// ---------------------------------------------------------------------------
// Templates
// ---------------------------------------------------------------------------

TEST(Templates, BuiltinsCoverAllTypes) {
  auto registry = VnfTemplateRegistry::with_builtin_templates();
  EXPECT_EQ(registry.types().size(), 4u);
  for (const char* type : {"bridge", "firewall", "nat", "ipsec"}) {
    EXPECT_TRUE(registry.has(type)) << type;
    auto tmpl = registry.find(type);
    ASSERT_TRUE(tmpl.is_ok());
    auto function = tmpl->factory();
    ASSERT_TRUE(function.is_ok());
    EXPECT_EQ(function.value()->type(), type);
  }
  EXPECT_FALSE(registry.find("ghost").is_ok());
}

TEST(Templates, RegistrationValidation) {
  VnfTemplateRegistry registry;
  VnfTemplate bad;
  EXPECT_FALSE(registry.register_template(bad).is_ok());  // empty type
  bad.functional_type = "x";
  EXPECT_FALSE(registry.register_template(bad).is_ok());  // no factory
  bad.factory = []() {
    return util::Result<std::unique_ptr<nnf::NetworkFunction>>(
        std::make_unique<nnf::Bridge>());
  };
  EXPECT_TRUE(registry.register_template(bad).is_ok());
  EXPECT_FALSE(registry.register_template(bad).is_ok());  // duplicate
}

// ---------------------------------------------------------------------------
// Generic drivers
// ---------------------------------------------------------------------------

class GenericDriverFixture : public ::testing::Test {
 protected:
  GenericDriverFixture()
      : repository_(core::VnfRepository::with_builtins()),
        disk_(4096ULL * virt::kMiB),
        ram_(1024ULL * virt::kMiB),
        lsi_(1, "LSI-g1") {
    env_.simulator = &simulator_;
    env_.templates = &repository_.templates();
    env_.images = &repository_.images();
    env_.disk = &disk_;
    env_.ram = &ram_;
  }

  NfDeploySpec spec_for(const std::string& type) {
    NfDeploySpec spec;
    spec.graph_id = "g1";
    spec.nf_id = "nf1";
    spec.functional_type = type;
    spec.num_ports = 2;
    return spec;
  }

  sim::Simulator simulator_;
  core::VnfRepository repository_;
  virt::DiskLedger disk_;
  virt::RamLedger ram_;
  nfswitch::Lsi lsi_;
  DriverEnv env_;
};

TEST_F(GenericDriverFixture, DockerDeployCreatesPortsAndAccounts) {
  GenericVnfDriver driver(virt::BackendKind::kDocker, env_);
  EXPECT_TRUE(driver.can_deploy("ipsec"));
  EXPECT_FALSE(driver.can_deploy("ghost"));

  auto deployed = driver.deploy(spec_for("ipsec"), lsi_);
  ASSERT_TRUE(deployed.is_ok());
  EXPECT_EQ(deployed->backend, virt::BackendKind::kDocker);
  EXPECT_EQ(deployed->ports.size(), 2u);
  EXPECT_TRUE(lsi_.has_port(deployed->ports[0].lsi_port));
  // Table 1 shape: Docker RAM ~24.2 MB, image ~240 MB.
  EXPECT_NEAR(static_cast<double>(deployed->ram_bytes) / (1024 * 1024), 24.2,
              0.5);
  EXPECT_NEAR(static_cast<double>(deployed->image_bytes) / (1024 * 1024),
              240.0, 1.0);
  EXPECT_EQ(ram_.used(), deployed->ram_bytes);
  EXPECT_GT(disk_.used(), 0u);
  EXPECT_EQ(driver.instance_count(), 1u);

  ASSERT_TRUE(driver.undeploy(deployed.value()).is_ok());
  EXPECT_EQ(ram_.used(), 0u);
  EXPECT_EQ(disk_.used(), 0u);
  EXPECT_FALSE(lsi_.has_port(deployed->ports[0].lsi_port));
  EXPECT_EQ(driver.instance_count(), 0u);
}

TEST_F(GenericDriverFixture, VmUsesVmConstants) {
  GenericVnfDriver driver(virt::BackendKind::kVm, env_);
  auto deployed = driver.deploy(spec_for("ipsec"), lsi_);
  ASSERT_TRUE(deployed.is_ok());
  EXPECT_EQ(std::string(driver.name()), "libvirt");
  EXPECT_NEAR(static_cast<double>(deployed->ram_bytes) / (1024 * 1024),
              390.6, 1.0);
  EXPECT_NEAR(static_cast<double>(deployed->image_bytes) / (1024 * 1024),
              522.0, 1.0);
  EXPECT_EQ(deployed->boot_time, 9 * sim::kSecond);
}

TEST_F(GenericDriverFixture, DeployFailsWhenRamExhausted) {
  virt::RamLedger tiny(10 * virt::kMiB);
  env_.ram = &tiny;
  GenericVnfDriver driver(virt::BackendKind::kVm, env_);
  auto deployed = driver.deploy(spec_for("ipsec"), lsi_);
  ASSERT_FALSE(deployed.is_ok());
  EXPECT_EQ(deployed.status().code(), util::ErrorCode::kResourceExhausted);
  // No partial state: disk rolled back, no ports added.
  EXPECT_EQ(disk_.used(), 0u);
  EXPECT_EQ(lsi_.ports().size(), 0u);
}

TEST_F(GenericDriverFixture, DeployFailsOnBadConfig) {
  GenericVnfDriver driver(virt::BackendKind::kDocker, env_);
  NfDeploySpec spec = spec_for("nat");
  spec.config["external_ip"] = "not-an-ip";
  auto deployed = driver.deploy(spec, lsi_);
  EXPECT_FALSE(deployed.is_ok());
  EXPECT_EQ(ram_.used(), 0u);
  EXPECT_EQ(disk_.used(), 0u);
}

TEST_F(GenericDriverFixture, DatapathFlowsThroughLsi) {
  GenericVnfDriver driver(virt::BackendKind::kDocker, env_);
  auto deployed = driver.deploy(spec_for("bridge"), lsi_);
  ASSERT_TRUE(deployed.is_ok());

  // Wire an external port and steer: ext -> NF port 0; NF port 1 -> ext2.
  const auto ext_in = lsi_.add_port("ext-in").value();
  const auto ext_out = lsi_.add_port("ext-out").value();
  int delivered = 0;
  (void)lsi_.set_port_peer(ext_out, [&](packet::PacketBurst&& burst) {
    delivered += static_cast<int>(burst.size());
  });
  lsi_.flow_table().add(
      10, nfswitch::match_in_port(ext_in),
      {nfswitch::FlowAction::output(deployed->ports[0].lsi_port)});
  lsi_.flow_table().add(
      10, nfswitch::match_in_port(deployed->ports[1].lsi_port),
      {nfswitch::FlowAction::output(ext_out)});

  lsi_.receive(ext_in, test_frame());
  simulator_.run();
  EXPECT_EQ(delivered, 1);  // bridge flooded out its port 1 -> ext-out
}

TEST_F(GenericDriverFixture, UndeployWithBurstInServiceQueue) {
  // The instance is undeployed while a burst is in service, its completion
  // event still in the simulator. Running that event afterwards must
  // release the frames, not touch the freed instance or deliver them.
  const packet::MbufPoolStats before = packet::MbufPool::global_stats();
  int delivered = 0;
  {
    GenericVnfDriver driver(virt::BackendKind::kDocker, env_);
    auto deployed = driver.deploy(spec_for("bridge"), lsi_);
    ASSERT_TRUE(deployed.is_ok());
    const auto ext_in = lsi_.add_port("ext-in").value();
    const auto ext_out = lsi_.add_port("ext-out").value();
    (void)lsi_.set_port_peer(ext_out, [&](packet::PacketBurst&& burst) {
      delivered += static_cast<int>(burst.size());
    });
    lsi_.flow_table().add(
        10, nfswitch::match_in_port(ext_in),
        {nfswitch::FlowAction::output(deployed->ports[0].lsi_port)});
    lsi_.flow_table().add(
        10, nfswitch::match_in_port(deployed->ports[1].lsi_port),
        {nfswitch::FlowAction::output(ext_out)});

    lsi_.receive(ext_in, test_frame());
    EXPECT_FALSE(simulator_.idle());  // the burst is in service
    ASSERT_TRUE(driver.undeploy(deployed.value()).is_ok());
    simulator_.run();
  }
  EXPECT_EQ(delivered, 0);
  const packet::MbufPoolStats after = packet::MbufPool::global_stats();
  EXPECT_EQ(after.segment_allocs - before.segment_allocs,
            after.segment_frees - before.segment_frees);
}

TEST_F(GenericDriverFixture, UpdateReconfiguresFunction) {
  GenericVnfDriver driver(virt::BackendKind::kDocker, env_);
  auto deployed = driver.deploy(spec_for("nat"), lsi_);
  ASSERT_TRUE(deployed.is_ok());
  EXPECT_TRUE(
      driver.update(deployed.value(), {{"external_ip", "203.0.113.9"}})
          .is_ok());
  EXPECT_FALSE(driver.update(deployed.value(), {{"bad", "1"}}).is_ok());
  DeployedNf ghost = deployed.value();
  ghost.instance = 999;
  EXPECT_FALSE(driver.update(ghost, {}).is_ok());
}

TEST_F(GenericDriverFixture, SharedLayersAcrossBackends) {
  GenericVnfDriver docker(virt::BackendKind::kDocker, env_);
  GenericVnfDriver dpdk(virt::BackendKind::kDpdk, env_);
  auto a = docker.deploy(spec_for("ipsec"), lsi_);
  ASSERT_TRUE(a.is_ok());
  const std::uint64_t after_docker = disk_.used();
  NfDeploySpec spec2 = spec_for("ipsec");
  spec2.nf_id = "nf2";
  auto b = dpdk.deploy(spec2, lsi_);
  ASSERT_TRUE(b.is_ok());
  // The 5 MB package layer is shared between docker and dpdk images.
  EXPECT_EQ(disk_.used(),
            after_docker + b->image_bytes - 5ULL * virt::kMiB);
}

// ---------------------------------------------------------------------------
// ComputeManager
// ---------------------------------------------------------------------------

TEST_F(GenericDriverFixture, ManagerDispatchesAndTracks) {
  ComputeManager manager;
  auto driver = [this](virt::BackendKind kind) {
    return std::make_unique<GenericVnfDriver>(kind, env_);
  };
  ASSERT_TRUE(
      manager.register_driver(driver(virt::BackendKind::kDocker)).is_ok());
  ASSERT_TRUE(manager.register_driver(driver(virt::BackendKind::kVm)).is_ok());
  EXPECT_FALSE(manager.register_driver(driver(virt::BackendKind::kVm)).is_ok());
  EXPECT_FALSE(manager.register_driver(nullptr).is_ok());
  EXPECT_TRUE(manager.has_driver(virt::BackendKind::kDocker));
  EXPECT_FALSE(manager.has_driver(virt::BackendKind::kNative));
  EXPECT_EQ(manager.backends().size(), 2u);

  auto deployed =
      manager.deploy(virt::BackendKind::kDocker, spec_for("ipsec"), lsi_);
  ASSERT_TRUE(deployed.is_ok());
  EXPECT_EQ(manager.total_deployments(), 1u);
  EXPECT_EQ(manager.deployments_of("g1").size(), 1u);
  EXPECT_TRUE(manager.deployments_of("other").empty());
  EXPECT_EQ(manager.dispatch_counts().at(virt::BackendKind::kDocker), 1u);

  auto missing =
      manager.deploy(virt::BackendKind::kDpdk, spec_for("ipsec"), lsi_);
  EXPECT_FALSE(missing.is_ok());
  EXPECT_EQ(missing.status().code(), util::ErrorCode::kUnavailable);

  EXPECT_TRUE(manager.undeploy(deployed.value()).is_ok());
  EXPECT_EQ(manager.total_deployments(), 0u);
}

}  // namespace
}  // namespace nnfv::compute
