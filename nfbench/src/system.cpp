#include "system.hpp"

#include <array>

#include "core/node.hpp"
#include "nffg/nffg.hpp"

namespace nfbench {

namespace core = nnfv::core;
namespace nffg = nnfv::nffg;
namespace packet = nnfv::packet;
using nnfv::virt::BackendKind;

namespace {

constexpr const char* kEncKey = "000102030405060708090a0b0c0d0e0f";
constexpr const char* kAuthKey =
    "202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f";

/// lan -> nf -> wan chain with return rules, one native NF.
nffg::NfFg chain_graph(const std::string& id, const std::string& type) {
  nffg::NfFg graph;
  graph.id = id;
  graph.add_nf("nf", type).backend_hint = BackendKind::kNative;
  graph.add_endpoint("lan", "eth0");
  graph.add_endpoint("wan", "eth1");
  graph.connect("r1", nffg::endpoint_ref("lan"), nffg::nf_port("nf", 0));
  graph.connect("r2", nffg::nf_port("nf", 1), nffg::endpoint_ref("wan"));
  graph.connect("r3", nffg::endpoint_ref("wan"), nffg::nf_port("nf", 1));
  graph.connect("r4", nffg::nf_port("nf", 0), nffg::endpoint_ref("lan"));
  return graph;
}

/// The Table-1 tunnel: the CPE encapsulates, the head-end mirrors SPIs.
nffg::NfFg tunnel_graph(bool cpe) {
  nffg::NfFg graph = chain_graph(cpe ? "cpe" : "headend", "ipsec");
  graph.nfs[0].config = tunnel_config(cpe);
  return graph;
}

std::string lan_port(std::size_t c) { return "c" + std::to_string(c) + "-lan"; }
std::string wan_port(std::size_t c) { return "c" + std::to_string(c) + "-wan"; }
std::string customer_id(std::size_t c) { return "cust" + std::to_string(c); }

/// One customer: firewall -> NAT on the customer's own lan/wan ports. The
/// firewall and the NAT are single-interface sharable NNFs, so all
/// customers share one instance of each through the adaptation layer.
nffg::NfFg customer_graph(std::size_t c, bool churn) {
  nffg::NfFg graph;
  graph.id = customer_id(c);
  nffg::NfNode& fw = graph.add_nf("fw", "firewall");
  fw.backend_hint = BackendKind::kNative;
  fw.config = firewall_config();
  nffg::NfNode& nat = graph.add_nf("nat", "nat");
  nat.backend_hint = BackendKind::kNative;
  nat.config = nat_config(c, churn);
  graph.add_endpoint("lan", lan_port(c));
  graph.add_endpoint("wan", wan_port(c));
  graph.connect("r1", nffg::endpoint_ref("lan"), nffg::nf_port("fw", 0));
  graph.connect("r2", nffg::nf_port("fw", 1), nffg::nf_port("nat", 0));
  graph.connect("r3", nffg::nf_port("nat", 1), nffg::endpoint_ref("wan"));
  graph.connect("r4", nffg::endpoint_ref("wan"), nffg::nf_port("nat", 1));
  graph.connect("r5", nffg::nf_port("nat", 0), nffg::nf_port("fw", 1));
  graph.connect("r6", nffg::nf_port("fw", 0), nffg::endpoint_ref("lan"));
  return graph;
}

bool timed_deploy(core::UniversalNode& node, const nffg::NfFg& graph,
                  std::vector<double>& deploy_ms, std::string& error) {
  const std::int64_t start = now_ns();
  auto report = node.orchestrator().deploy(graph);
  deploy_ms.push_back(static_cast<double>(now_ns() - start) / 1e6);
  if (!report) {
    error = "deploy " + graph.id + ": " + report.status().to_string();
    return false;
  }
  return true;
}

LookupPoint lookup_point(nnfv::nfswitch::Lsi* lsi, const std::string& port) {
  if (lsi == nullptr) return {};
  auto id = lsi->port_by_name(port);
  if (!id) return {};
  return {&lsi->flow_table(), id.value()};
}

/// Reserves `count` bursts of kBurst frames; keeps their storage.
void reserve_bursts(std::vector<packet::PacketBurst>& bursts,
                    std::size_t count) {
  if (bursts.size() < count) bursts.resize(count);
  for (packet::PacketBurst& burst : bursts) {
    burst.clear();
    burst.reserve(kBurst);
  }
}

class IpsecPair final : public System {
 public:
  explicit IpsecPair(std::size_t cpe_workers)
      : cpe_(config(cpe_workers)), headend_(config(0)) {}

  bool deploy(std::vector<double>& deploy_ms, std::string& error) {
    if (!timed_deploy(cpe_, tunnel_graph(true), deploy_ms, error) ||
        !timed_deploy(headend_, tunnel_graph(false), deploy_ms, error)) {
      return false;
    }
    (void)cpe_.set_egress("eth1", [this](packet::PacketBuffer&& frame) {
      on_wire(std::move(frame));
    });
    (void)headend_.set_egress("eth0", [this](packet::PacketBuffer&& frame) {
      deliver(std::move(frame), 0);
    });
    return true;
  }

  void prepare(std::size_t packets, bool timestamps) override {
    System::prepare(packets, timestamps);
    reserve_bursts(wire_, (packets + kBurst - 1) / kBurst + 1);
    wire_fill_ = 0;
  }

  void inject(std::size_t /*port*/, packet::PacketBurst&& burst,
              Tracer& tracer) override {
    Span span(tracer, SpanName::kInject,
              static_cast<std::uint32_t>(burst.size()));
    (void)cpe_.inject_burst(kRed, std::move(burst));
  }

  std::uint64_t complete(Tracer& tracer) override {
    std::uint64_t events = 0;
    {
      Span span(tracer, SpanName::kDrain);  // a no-op on the inline path
      cpe_.drain_datapath();
    }
    {
      Span span(tracer, SpanName::kSimRun);
      events += cpe_.simulator().run();
    }
    // The wire carries the CPE's ESP output to the head-end in bursts.
    for (std::size_t i = 0; i <= wire_fill_ && i < wire_.size(); ++i) {
      packet::PacketBurst& burst = wire_[i];
      if (burst.empty()) continue;
      Span span(tracer, SpanName::kInject,
                static_cast<std::uint32_t>(burst.size()));
      (void)headend_.inject_burst(kBlack, std::move(burst));
      burst.clear();
    }
    wire_fill_ = 0;
    {
      Span span(tracer, SpanName::kSimRun);
      events += headend_.simulator().run();
    }
    return events;
  }

  void set_wire_flip(bool on) override { flip_ = on; }

  std::vector<LookupPoint> lookup_points(std::size_t /*port*/) override {
    nnfv::nfswitch::Lsi& base = cpe_.network().base_lsi();
    return {lookup_point(&base, kRed),
            lookup_point(cpe_.network().graph_lsi("cpe"), "vl:lan")};
  }

  std::vector<const nnfv::nfswitch::FlowTable*> flow_tables() override {
    std::vector<const nnfv::nfswitch::FlowTable*> tables;
    for (core::UniversalNode* node : {&cpe_, &headend_}) {
      tables.push_back(&node->network().base_lsi().flow_table());
      for (const std::string& id : node->network().graph_ids()) {
        tables.push_back(&node->network().graph_lsi(id)->flow_table());
      }
    }
    return tables;
  }

  std::vector<nnfv::exec::WorkerStats> worker_stats() override {
    std::vector<nnfv::exec::WorkerStats> stats;
    if (nnfv::exec::DatapathExecutor* dp = cpe_.datapath()) {
      for (std::size_t w = 0; w < dp->worker_count(); ++w) {
        stats.push_back(dp->worker_stats(w));
      }
    }
    return stats;
  }

  nnfv::sim::SimTime model_clock() override { return cpe_.simulator().now(); }

 private:
  static inline const std::string kRed = "eth0";
  static inline const std::string kBlack = "eth1";
  /// First ciphertext byte: Ethernet + outer IPv4 + ESP header + IV.
  static constexpr std::size_t kFlipOffset = 14 + 20 + 8 + 8;

  static core::UniversalNodeConfig config(std::size_t workers) {
    core::UniversalNodeConfig c;
    c.datapath_workers = workers;
    return c;
  }

  void on_wire(packet::PacketBuffer&& frame) {
    if (flip_ && frame.size() > kFlipOffset) {
      frame.unshare();
      frame[kFlipOffset] ^= 0x01;
    }
    if (wire_fill_ >= wire_.size()) wire_.emplace_back();
    if (wire_[wire_fill_].size() == kBurst) {
      ++wire_fill_;
      if (wire_fill_ >= wire_.size()) wire_.emplace_back();
    }
    wire_[wire_fill_].push_back(std::move(frame));
  }

  core::UniversalNode cpe_;
  core::UniversalNode headend_;
  std::vector<packet::PacketBurst> wire_;
  std::size_t wire_fill_ = 0;
  bool flip_ = false;
};

class SharedGateway final : public System {
 public:
  SharedGateway() : node_(config()) {
    for (std::size_t c = 0; c < kCustomers; ++c) lan_[c] = lan_port(c);
  }

  bool deploy(bool churn, std::vector<double>& deploy_ms,
              std::string& error) {
    for (std::size_t c = 0; c < kCustomers; ++c) {
      if (!timed_deploy(node_, customer_graph(c, churn), deploy_ms, error)) {
        return false;
      }
      const auto port = static_cast<std::uint16_t>(c);
      (void)node_.set_egress(wan_port(c),
                             [this, port](packet::PacketBuffer&& frame) {
                               deliver(std::move(frame), port);
                             });
    }
    return true;
  }

  void inject(std::size_t port, packet::PacketBurst&& burst,
              Tracer& tracer) override {
    Span span(tracer, SpanName::kInject,
              static_cast<std::uint32_t>(burst.size()));
    (void)node_.inject_burst(lan_[port], std::move(burst));
  }

  std::uint64_t complete(Tracer& tracer) override {
    {
      Span span(tracer, SpanName::kDrain);  // a no-op on the inline path
      node_.drain_datapath();
    }
    Span span(tracer, SpanName::kSimRun);
    return node_.simulator().run();
  }

  std::vector<LookupPoint> lookup_points(std::size_t port) override {
    return {lookup_point(&node_.network().base_lsi(), lan_[port]),
            lookup_point(node_.network().graph_lsi(customer_id(port)),
                         "vl:lan")};
  }

  std::vector<const nnfv::nfswitch::FlowTable*> flow_tables() override {
    std::vector<const nnfv::nfswitch::FlowTable*> tables = {
        &node_.network().base_lsi().flow_table()};
    for (const std::string& id : node_.network().graph_ids()) {
      tables.push_back(&node_.network().graph_lsi(id)->flow_table());
    }
    return tables;
  }

  std::vector<nnfv::exec::WorkerStats> worker_stats() override { return {}; }

  nnfv::sim::SimTime model_clock() override {
    return node_.simulator().now();
  }

 private:
  static core::UniversalNodeConfig config() {
    core::UniversalNodeConfig c;
    c.physical_ports.clear();
    for (std::size_t i = 0; i < kCustomers; ++i) {
      c.physical_ports.push_back(lan_port(i));
      c.physical_ports.push_back(wan_port(i));
    }
    return c;
  }

  core::UniversalNode node_;
  std::array<std::string, kCustomers> lan_;
};

}  // namespace

nnfv::nnf::NfConfig tunnel_config(bool cpe) {
  return {{"local_ip", cpe ? "198.51.100.1" : "198.51.100.2"},
          {"peer_ip", cpe ? "198.51.100.2" : "198.51.100.1"},
          {"spi_out", cpe ? "1001" : "2002"},
          {"spi_in", cpe ? "2002" : "1001"},
          {"enc_key", kEncKey},
          {"auth_key", kAuthKey},
          {"esp_transform", "gcm"}};
}

nnfv::nnf::NfConfig firewall_config() {
  return {{"policy", "accept"}, {"rule.1", "drop,any,any,udp,23"}};
}

nnfv::nnf::NfConfig nat_config(std::size_t customer, bool churn) {
  nnfv::nnf::NfConfig config = {
      {"external_ip", Traffic::external_ip(customer).to_string()}};
  // Churn: sessions go idle after a flow's last packet and must expire.
  if (churn) config["idle_timeout_ms"] = "5";
  return config;
}

void System::prepare(std::size_t packets, bool timestamps) {
  egress_.clear();
  egress_.reserve(packets);
  stamp_ = timestamps;
}

std::unique_ptr<System> make_system(const Workload& workload,
                                    std::vector<double>& deploy_ms,
                                    std::string& error) {
  if (workload.topology == Topology::kIpsecTunnel) {
    auto pair = std::make_unique<IpsecPair>(workload.cpe_workers);
    if (!pair->deploy(deploy_ms, error)) return nullptr;
    return pair;
  }
  auto gateway = std::make_unique<SharedGateway>();
  if (!gateway->deploy(workload.packets_per_flow > 0, deploy_ms, error)) {
    return nullptr;
  }
  return gateway;
}

}  // namespace nfbench
