// The per-burst hot path: no heap allocation that scales with the number
// of packets between inject and egress, and counters that are published
// once per burst yet stay exact (docs/datapath.md §6 and §8).
//
// The allocation check replaces the global operator new of this test
// binary with a counting one. It only counts while a test has switched
// it on, and it counts every thread, so datapath workers are included.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <new>
#include <string>
#include <vector>

#include "core/node.hpp"
#include "exec/datapath_executor.hpp"
#include "nffg/nffg.hpp"
#include "nnf/firewall.hpp"
#include "nnf/ipsec.hpp"
#include "nnf/nat.hpp"
#include "packet/builder.hpp"
#include "switch/lsi.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else if (posix_memalign(&p, align, size) != 0) {
    p = nullptr;
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

/// Heap allocations made (by any thread) while `body` runs.
template <typename Body>
std::uint64_t allocations_during(Body body) {
  const std::uint64_t before = g_allocations.load();
  g_counting.store(true);
  body();
  g_counting.store(false);
  return g_allocations.load() - before;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size, 0); }
void* operator new[](std::size_t size) { return counted_alloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size, 0);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size, 0);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace nnfv {
namespace {

constexpr std::size_t kCustomers = 2;
constexpr std::size_t kFlows = 8;

packet::PacketBuffer udp_frame(const std::string& src, std::uint16_t sport,
                               std::uint16_t dport, std::size_t payload) {
  static const std::vector<std::uint8_t> kPayload(256, 0x5A);
  packet::UdpFrameSpec spec;
  spec.eth_src = packet::MacAddress::from_id(0xC1);
  spec.eth_dst = packet::MacAddress::from_id(0xC2);
  spec.ip_src = *packet::Ipv4Address::parse(src);
  spec.ip_dst = *packet::Ipv4Address::parse("198.18.0.1");
  spec.src_port = sport;
  spec.dst_port = dport;
  spec.payload = {kPayload.data(), payload};
  return packet::build_udp_frame(spec);
}

/// lan -> firewall -> NAT -> wan for one customer; every customer's graph
/// shares the one native firewall and NAT through VLAN marks.
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

/// `copies` frames of each of kFlows flows of customer `c`, interleaved.
packet::PacketBurst customer_burst(std::size_t c, std::size_t copies) {
  packet::PacketBurst burst;
  burst.reserve(copies * kFlows);
  for (std::size_t i = 0; i < copies; ++i) {
    for (std::size_t f = 0; f < kFlows; ++f) {
      burst.push_back(udp_frame("192.168.1." + std::to_string(10 + c),
                                static_cast<std::uint16_t>(5000 + f), 53,
                                18 + f));
    }
  }
  return burst;
}

void expect_constant_allocations_per_burst(std::size_t workers) {
  core::UniversalNodeConfig config;
  config.physical_ports.clear();
  for (std::size_t c = 0; c < kCustomers; ++c) {
    config.physical_ports.push_back("lan" + std::to_string(c));
    config.physical_ports.push_back("wan" + std::to_string(c));
  }
  config.datapath_workers = workers;
  core::UniversalNode node(config);
  std::uint64_t delivered = 0;
  for (std::size_t c = 0; c < kCustomers; ++c) {
    ASSERT_TRUE(node.orchestrator().deploy(customer_graph(c)).is_ok());
    ASSERT_TRUE(node.set_egress("wan" + std::to_string(c),
                                [&delivered](packet::PacketBuffer&&) {
                                  ++delivered;
                                })
                    .is_ok());
  }
  EXPECT_EQ(node.catalog().status_of("nat")->running_instances, 1u);

  // Injects one burst per customer and drives it to egress.
  auto run = [&](std::vector<packet::PacketBurst>& bursts) {
    for (std::size_t c = 0; c < kCustomers; ++c) {
      ASSERT_TRUE(
          node.inject_burst("lan" + std::to_string(c), std::move(bursts[c]))
              .is_ok());
    }
    node.drain_datapath();
    node.simulator().run();
  };
  auto bursts_of = [](std::size_t copies) {
    std::vector<packet::PacketBurst> bursts;
    for (std::size_t c = 0; c < kCustomers; ++c) {
      bursts.push_back(customer_burst(c, copies));
    }
    return bursts;
  };

  // Warm-up: NAT sessions, microflow caches, scratch vectors and the
  // simulator's queues reach their steady-state size.
  for (int i = 0; i < 8; ++i) {
    auto warm = bursts_of(i % 2 == 0 ? 4 : 1);
    run(warm);
  }
  const std::uint64_t warm_delivered = delivered;
  EXPECT_EQ(warm_delivered, kCustomers * kFlows * (4 + 1) * 4);

  // With workers the order in which their hand-offs reach the simulator
  // varies, and a new order can grow a queue's capacity once. Such
  // one-off growth never repeats, so each size is measured a few times
  // and the steady state is the smallest count.
  std::uint64_t big_allocs = ~0ULL;
  std::uint64_t small_allocs = ~0ULL;
  for (int rep = 0; rep < 3; ++rep) {
    auto big = bursts_of(4);    // 32 frames per customer
    auto small = bursts_of(1);  // 8 frames, the same 8 flows
    big_allocs =
        std::min(big_allocs, allocations_during([&] { run(big); }));
    small_allocs =
        std::min(small_allocs, allocations_during([&] { run(small); }));
  }
  ASSERT_EQ(delivered - warm_delivered, kCustomers * kFlows * 5 * 3);

  // Allocations are a per-burst constant: 24 more frames cost nothing.
  EXPECT_EQ(big_allocs, small_allocs);
}

TEST(BurstHotPath, AllocationsPerBurstAreConstantInline) {
  expect_constant_allocations_per_burst(0);
}

TEST(BurstHotPath, AllocationsPerBurstAreConstantWithWorkers) {
  expect_constant_allocations_per_burst(2);
}

/// Encap then decap of one `frames`-frame burst between two endpoints;
/// returns the allocations the two process_burst calls make. Frames are
/// built and outputs torn down outside the counted region.
std::uint64_t esp_round_trip_allocations(nnf::IpsecEndpoint& initiator,
                                         nnf::IpsecEndpoint& responder,
                                         std::size_t frames) {
  packet::PacketBurst red;
  red.reserve(frames);
  for (std::size_t i = 0; i < frames; ++i) {
    red.push_back(udp_frame("192.168.1.10",
                            static_cast<std::uint16_t>(5000 + i % kFlows), 53,
                            18 + 29 * (i % 8)));
  }
  std::vector<nnf::NfOutput> black;
  std::uint64_t allocations = allocations_during([&] {
    black = initiator.process_burst(nnf::kDefaultContext, 0, 0,
                                    std::move(red));
  });
  packet::PacketBurst esp;
  esp.reserve(black.size());
  for (nnf::NfOutput& o : black) esp.push_back(std::move(o.frame));
  std::vector<nnf::NfOutput> inner;
  allocations += allocations_during([&] {
    inner = responder.process_burst(nnf::kDefaultContext, 1, 0,
                                    std::move(esp));
  });
  EXPECT_EQ(inner.size(), frames);
  return allocations;
}

void expect_constant_esp_allocations(const std::string& transform, bool esn) {
  SCOPED_TRACE(transform + (esn ? " esn" : ""));
  const std::string esn_value = esn ? "on" : "off";
  const std::string enc_key = "000102030405060708090a0b0c0d0e0f";
  const std::string auth_key =
      "202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f";
  nnf::IpsecEndpoint initiator;
  nnf::IpsecEndpoint responder;
  ASSERT_TRUE(initiator
                  .configure(nnf::kDefaultContext,
                             {{"local_ip", "198.51.100.1"},
                              {"peer_ip", "198.51.100.2"},
                              {"spi_out", "1001"},
                              {"spi_in", "2002"},
                              {"esp_transform", transform},
                              {"esn", esn_value},
                              {"enc_key", enc_key},
                              {"auth_key", auth_key}})
                  .is_ok());
  ASSERT_TRUE(responder
                  .configure(nnf::kDefaultContext,
                             {{"local_ip", "198.51.100.2"},
                              {"peer_ip", "198.51.100.1"},
                              {"spi_out", "2002"},
                              {"spi_in", "1001"},
                              {"esp_transform", transform},
                              {"esn", esn_value},
                              {"enc_key", enc_key},
                              {"auth_key", auth_key}})
                  .is_ok());
  // Warm-up: lazily built key tables and the mbuf pool reach steady state.
  for (int i = 0; i < 4; ++i) {
    esp_round_trip_allocations(initiator, responder, 32);
  }
  std::uint64_t big_allocs = ~0ULL;
  std::uint64_t small_allocs = ~0ULL;
  for (int rep = 0; rep < 3; ++rep) {
    big_allocs = std::min(big_allocs,
                          esp_round_trip_allocations(initiator, responder, 32));
    small_allocs = std::min(
        small_allocs, esp_round_trip_allocations(initiator, responder, 8));
  }
  EXPECT_EQ(big_allocs, small_allocs);
}

TEST(BurstHotPath, IpsecAllocationsPerBurstAreConstant) {
  expect_constant_esp_allocations("gcm", false);
  expect_constant_esp_allocations("gcm", true);
  expect_constant_esp_allocations("cbc-hmac", false);
}

/// One 32-frame burst of outbound UDP frames, flows `first`..`first`+31.
packet::PacketBurst nat_flows(std::uint32_t first) {
  packet::PacketBurst burst;
  for (std::uint32_t f = first; f < first + 32; ++f) {
    burst.push_back(udp_frame("192.168.1." + std::to_string(10 + f / 30000),
                              static_cast<std::uint16_t>(1024 + f % 30000),
                              53, 18));
  }
  return burst;
}

TEST(BurstHotPath, NatSessionChurnAllocatesLikeHits) {
  // Every round comes one idle timeout after the last, so its sweep
  // expires the previous round's 32 sessions before 32 new flows open
  // theirs. Once the table has grown to that live set, opening a session
  // must cost no more allocations than hitting one.
  nnf::Nat nat;
  ASSERT_TRUE(nat.configure(nnf::kDefaultContext,
                            {{"external_ip", "203.0.113.1"},
                             {"idle_timeout_ms", "1"}})
                  .is_ok());
  sim::SimTime now = 0;
  std::uint32_t next_flow = 0;
  auto translate = [&](packet::PacketBurst&& burst) {
    std::vector<nnf::NfOutput> outs;
    const std::uint64_t allocations = allocations_during([&] {
      outs = nat.process_burst(nnf::kDefaultContext, 0, now,
                               std::move(burst));
    });
    EXPECT_EQ(outs.size(), 32u);
    return allocations;
  };
  for (int warm = 0; warm < 4; ++warm) {
    now += 2 * sim::kMillisecond;
    translate(nat_flows(next_flow));
    next_flow += 32;
  }
  std::uint64_t churn_allocs = ~0ULL;
  std::uint64_t hit_allocs = ~0ULL;
  for (int rep = 0; rep < 3; ++rep) {
    now += 2 * sim::kMillisecond;
    churn_allocs = std::min(churn_allocs, translate(nat_flows(next_flow)));
    hit_allocs = std::min(hit_allocs, translate(nat_flows(next_flow)));
    next_flow += 32;
    EXPECT_EQ(nat.session_count(nnf::kDefaultContext), 32u);
  }
  EXPECT_EQ(churn_allocs, hit_allocs);
}

// ---------------------------------------------------------------------------
// Batched counters stay exact
// ---------------------------------------------------------------------------

/// One LSI: ingress `in` classifies into a firewall behind port `fw`, a
/// replicating rule, and a table miss; the firewall's output re-enters
/// the LSI on `fw` and leaves through `out`.
struct CounterBench {
  nfswitch::Lsi lsi{1, "counters"};
  nnf::Firewall firewall;
  nfswitch::PortId in = 0, fw = 0, out = 0, mirror = 0;
  nfswitch::FlowEntryId r_a = 0, r_b = 0, r_drop = 0, r_rep = 0, r_back = 0;
  std::mutex sink_mutex;
  std::uint64_t out_frames = 0;
  std::uint64_t mirror_frames = 0;

  CounterBench() {
    in = lsi.add_port("in").value();
    fw = lsi.add_port("fw").value();
    out = lsi.add_port("out").value();
    mirror = lsi.add_port("mirror").value();
    EXPECT_TRUE(firewall
                    .configure(nnf::kDefaultContext,
                               {{"policy", "accept"},
                                {"rule.1", "drop,any,any,udp,23"}})
                    .is_ok());
    auto udp_to = [this](std::uint16_t dport) {
      nfswitch::FlowMatch match = nfswitch::match_in_port(in);
      match.ip_proto = packet::kIpProtoUdp;
      match.tp_dst = dport;
      return match;
    };
    using nfswitch::FlowAction;
    r_a = lsi.flow_table().add(10, udp_to(1000), {FlowAction::output(fw)});
    r_b = lsi.flow_table().add(10, udp_to(2000), {FlowAction::output(fw)});
    r_drop = lsi.flow_table().add(10, udp_to(23), {FlowAction::output(fw)});
    r_rep = lsi.flow_table().add(
        10, udp_to(3000),
        {FlowAction::output(out), FlowAction::output(mirror)});
    r_back = lsi.flow_table().add(10, nfswitch::match_in_port(fw),
                                  {FlowAction::output(out)});
    // Nothing matches udp/4000 from `in`: a table miss.
    EXPECT_TRUE(lsi.set_port_peer(fw, [this](packet::PacketBurst&& b) {
                  auto outputs = firewall.process_burst(
                      nnf::kDefaultContext, 0, 0, std::move(b));
                  packet::PacketBurst back;
                  for (nnf::NfOutput& o : outputs) {
                    back.push_back(std::move(o.frame));
                  }
                  lsi.receive_burst(fw, std::move(back));
                }).is_ok());
    EXPECT_TRUE(lsi.set_port_peer(out, [this](packet::PacketBurst&& b) {
                  std::lock_guard<std::mutex> lock(sink_mutex);
                  out_frames += b.size();
                }).is_ok());
    EXPECT_TRUE(lsi.set_port_peer(mirror, [this](packet::PacketBurst&& b) {
                  std::lock_guard<std::mutex> lock(sink_mutex);
                  mirror_frames += b.size();
                }).is_ok());
  }
};

struct Sent {
  std::uint16_t dport;
  std::uint16_t sport;
  std::size_t bytes;
};

/// Two flows interleaved with a miss, a firewall drop and a replicated
/// flow; sizes differ per frame so byte counters are checked too.
std::vector<Sent> mixed_burst_plan() {
  const std::uint16_t dports[] = {1000, 2000, 4000, 23, 3000, 1000,
                                  2000, 1000, 23,   3000, 4000, 2000};
  std::vector<Sent> plan;
  for (std::size_t i = 0; i < std::size(dports); ++i) {
    plan.push_back({dports[i], static_cast<std::uint16_t>(7000 + dports[i]),
                    20 + 7 * i});
  }
  return plan;
}

void expect_exact_counters(CounterBench& bench, const std::vector<Sent>& plan,
                           std::size_t frame_overhead) {
  std::uint64_t rx_bytes = 0;
  std::uint64_t a = 0, a_bytes = 0, b = 0, b_bytes = 0, miss = 0;
  std::uint64_t drop = 0, drop_bytes = 0, rep = 0, rep_bytes = 0;
  for (const Sent& s : plan) {
    const std::uint64_t size = s.bytes + frame_overhead;
    rx_bytes += size;
    switch (s.dport) {
      case 1000: ++a, a_bytes += size; break;
      case 2000: ++b, b_bytes += size; break;
      case 23: ++drop, drop_bytes += size; break;
      case 3000: ++rep, rep_bytes += size; break;
      default: ++miss; break;
    }
  }
  const nfswitch::PortStats& in = *bench.lsi.port_stats(bench.in);
  EXPECT_EQ(in.rx_packets, plan.size());
  EXPECT_EQ(in.rx_bytes, rx_bytes);
  EXPECT_EQ(in.rx_bulk, plan.size());
  EXPECT_EQ(in.rx_control, 0u);

  const nfswitch::FlowTable& table = bench.lsi.flow_table();
  auto stats = [&](nfswitch::FlowEntryId id) {
    return std::pair<std::uint64_t, std::uint64_t>{
        table.find(id)->stats.packets, table.find(id)->stats.bytes};
  };
  using Counts = std::pair<std::uint64_t, std::uint64_t>;
  EXPECT_EQ(stats(bench.r_a), (Counts{a, a_bytes}));
  EXPECT_EQ(stats(bench.r_b), (Counts{b, b_bytes}));
  EXPECT_EQ(stats(bench.r_drop), (Counts{drop, drop_bytes}));
  EXPECT_EQ(stats(bench.r_rep), (Counts{rep, rep_bytes}));
  EXPECT_EQ(stats(bench.r_back), (Counts{a + b, a_bytes + b_bytes}));
  EXPECT_EQ(table.misses(), miss);

  // Every classification is one lookup; only the first packet of each of
  // the 7 distinct keys (5 on `in`, 2 back from the firewall) fills the
  // owning worker's microflow cache, every later one hits it.
  const std::uint64_t lookups = plan.size() + a + b;
  EXPECT_EQ(table.cache_lookups(), lookups);
  EXPECT_EQ(table.cache_hits(), lookups - 7);
  EXPECT_EQ(bench.lsi.processed_packets(), lookups);

  const nfswitch::PortStats& fw = *bench.lsi.port_stats(bench.fw);
  EXPECT_EQ(fw.tx_packets, a + b + drop);
  EXPECT_EQ(fw.tx_bytes, a_bytes + b_bytes + drop_bytes);
  EXPECT_EQ(fw.rx_packets, a + b);
  const nfswitch::PortStats& out = *bench.lsi.port_stats(bench.out);
  EXPECT_EQ(out.tx_packets, a + b + rep);
  EXPECT_EQ(out.tx_bytes, a_bytes + b_bytes + rep_bytes);
  const nfswitch::PortStats& mirror = *bench.lsi.port_stats(bench.mirror);
  EXPECT_EQ(mirror.tx_packets, rep);
  EXPECT_EQ(mirror.tx_bytes, rep_bytes);
  EXPECT_EQ(bench.out_frames, a + b + rep);
  EXPECT_EQ(bench.mirror_frames, rep);

  const nnf::NfCounters& nf = bench.firewall.counters();
  EXPECT_EQ(nf.in_packets, a + b + drop);
  EXPECT_EQ(nf.out_packets, a + b);
  EXPECT_EQ(nf.dropped, drop);
  EXPECT_EQ(nf.errors, 0u);
}

packet::PacketBurst build(const std::vector<Sent>& plan,
                          std::size_t& frame_overhead) {
  packet::PacketBurst burst;
  for (const Sent& s : plan) {
    burst.push_back(udp_frame("10.0.0.1", s.sport, s.dport, s.bytes));
    frame_overhead = burst.back().size() - s.bytes;
  }
  return burst;
}

TEST(BurstHotPath, BatchedCountersAreExactInline) {
  CounterBench bench;
  const std::vector<Sent> plan = mixed_burst_plan();
  std::size_t overhead = 0;
  bench.lsi.receive_burst(bench.in, build(plan, overhead));
  expect_exact_counters(bench, plan, overhead);
}

TEST(BurstHotPath, BatchedCountersAreExactAfterDrainWithWorkers) {
  CounterBench bench;
  exec::DatapathExecutorConfig config;
  config.workers = 2;
  exec::DatapathExecutor executor(
      config, [&bench](exec::WorkerContext&, std::uint32_t tag,
                       packet::PacketBurst&& burst) {
        bench.lsi.receive_burst(static_cast<nfswitch::PortId>(tag),
                                std::move(burst));
      });
  const std::vector<Sent> plan = mixed_burst_plan();
  std::size_t overhead = 0;
  EXPECT_EQ(executor.submit_burst(bench.in, build(plan, overhead)),
            plan.size());
  executor.drain();
  EXPECT_EQ(executor.total_processed(), plan.size());
  expect_exact_counters(bench, plan, overhead);
}

}  // namespace
}  // namespace nnfv
