// Experiment A3 — steering cost: flow-table lookup scaling.
//
// LSI-0 classifies every packet entering the node; its rule count grows
// with the number of deployed graphs (one rule per graph VLAN here). The
// production FlowTable uses the tiered classifier (microflow cache +
// tuple-space search); LinearTable below replicates the seed's linear
// priority scan as the baseline. Emits the JSON result block described in
// bench_json.hpp; the headline `speedup_vs_linear` at 1024 entries is the
// acceptance metric for the classifier rewrite. The `lsi_hop_*` rows time
// one whole switch hop (decode, priority split, lookup, actions, egress)
// per frame through Lsi::receive_burst, and `lsi_link_hop_512_flows` a
// frame's way from LSI-0 across a virtual link through a graph LSI to its
// port; the `nat_hit_*` rows time a NAT
// session hit per frame (decode, lookup, in-place rewrite),
// `nat_new_session_64` a frame that opens a NAT session (with sweeps
// expiring old ones) and the `internet_checksum_*` rows the checksum
// kernel per call. Those rows report ns_per_op only.
#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "core/network_manager.hpp"
#include "nnf/nat.hpp"
#include "packet/builder.hpp"
#include "packet/checksum.hpp"
#include "switch/flow_table.hpp"
#include "switch/lsi.hpp"
#include "util/byteorder.hpp"
#include "virt/cost_model.hpp"

namespace {

using namespace nnfv;  // NOLINT(google-build-using-namespace): bench

/// The seed's FlowTable lookup: a linear scan over priority-ordered
/// entries, each probed with FlowMatch::matches().
class LinearTable {
 public:
  void add(std::uint16_t priority, nfswitch::FlowMatch match) {
    Entry entry{next_id_++, priority, std::move(match)};
    auto pos = std::find_if(entries_.begin(), entries_.end(),
                            [priority](const Entry& e) {
                              return e.priority < priority;
                            });
    entries_.insert(pos, std::move(entry));
  }

  const nfswitch::FlowMatch* lookup(const nfswitch::FlowContext& ctx) const {
    for (const Entry& entry : entries_) {
      if (entry.match.matches(ctx)) return &entry.match;
    }
    return nullptr;
  }

 private:
  struct Entry {
    std::uint64_t id;
    std::uint16_t priority;
    nfswitch::FlowMatch match;
  };
  std::vector<Entry> entries_;
  std::uint64_t next_id_ = 1;
};

packet::PacketBuffer make_frame(std::uint16_t vlan) {
  packet::UdpFrameSpec spec;
  spec.vlan = vlan;
  spec.ip_src = *packet::Ipv4Address::parse("10.0.0.1");
  spec.ip_dst = *packet::Ipv4Address::parse("10.0.0.2");
  spec.src_port = 1000;
  spec.dst_port = 2000;
  static const std::vector<std::uint8_t> payload(64, 0);
  spec.payload = payload;
  return packet::build_udp_frame(spec);
}

nfswitch::FlowMatch rule_for(int graph) {
  nfswitch::FlowMatch match;
  match.in_port = 1;
  match.vlan = static_cast<std::uint16_t>(100 + graph);
  return match;
}

nfswitch::FlowContext context_for(std::uint16_t vlan) {
  auto frame = make_frame(vlan);
  auto fields = packet::extract_flow_fields(frame.data());
  return nfswitch::FlowContext{1, fields.value()};
}

constexpr int kHopBurst = 32;

/// One LSI hop per frame: 32-frame bursts of 64 B UDP frames, cycling
/// over `flows` distinct flows, in through one port and out by per-port
/// rules: the frame at burst position i leaves by port `port_of[i]`. With
/// one port a burst leaves whole; with more it takes the per-port
/// grouping path. The egress peers hand the frames back and the loop
/// re-sends them in the same order. Returns {ns per frame, bursts timed}.
std::pair<double, std::uint64_t> measure_lsi_hop(
    int flows, const std::vector<std::size_t>& port_of) {
  nfswitch::Lsi lsi(1, "bench");
  const nfswitch::PortId in = lsi.add_port("in").value();
  const std::size_t ports =
      *std::max_element(port_of.begin(), port_of.end()) + 1;
  std::vector<packet::PacketBurst> returned(ports);
  for (std::size_t p = 0; p < ports; ++p) {
    const nfswitch::PortId out =
        lsi.add_port("out" + std::to_string(p)).value();
    nfswitch::FlowMatch match = nfswitch::match_in_port(in);
    match.tp_dst = static_cast<std::uint16_t>(2000 + p);
    lsi.flow_table().add(10, match, {nfswitch::FlowAction::output(out)});
    (void)lsi.set_port_peer(
        out, [&returned, p](packet::PacketBurst&& burst) {
          returned[p] = std::move(burst);
        });
  }
  std::vector<packet::PacketBurst> bursts(
      static_cast<std::size_t>(std::max(1, flows / kHopBurst)));
  static const std::vector<std::uint8_t> payload(22, 0);  // 64 B frames
  for (int i = 0; i < static_cast<int>(bursts.size()) * kHopBurst; ++i) {
    packet::UdpFrameSpec spec;
    spec.ip_src = *packet::Ipv4Address::parse("10.0.0.1");
    spec.ip_dst = *packet::Ipv4Address::parse("10.0.0.2");
    spec.src_port = static_cast<std::uint16_t>(1000 + i % flows);
    spec.dst_port = static_cast<std::uint16_t>(
        2000 + port_of[static_cast<std::size_t>(i % kHopBurst)]);
    spec.payload = payload;
    bursts[static_cast<std::size_t>(i / kHopBurst)].push_back(
        packet::build_udp_frame(spec));
  }
  std::size_t next = 0;
  std::vector<std::size_t> taken(ports);
  auto [ns, iters] = bench::measure_ns([&]() {
    packet::PacketBurst& burst = bursts[next];
    lsi.receive_burst(in, std::move(burst));
    if (ports == 1) {
      burst = std::move(returned[0]);
    } else {
      burst.clear();
      std::fill(taken.begin(), taken.end(), 0);
      for (std::size_t p : port_of) {
        burst.push_back(std::move(returned[p][taken[p]++]));
      }
    }
    next = next + 1 == bursts.size() ? 0 : next + 1;
  });
  return {ns / kHopBurst, iters};
}

/// LSI-0 -> virtual link -> graph LSI -> port, per frame: 32-frame bursts
/// of 64 B UDP frames over `flows` flows enter LSI-0's physical port, whose
/// rule outputs to the link; the graph LSI's rule sends them to one port,
/// whose peer hands them back for the next round. The link is built by
/// NetworkManager::create_virtual_link, as a deployed graph's is.
/// Returns {ns per frame, bursts timed}.
std::pair<double, std::uint64_t> measure_lsi_link_hop(int flows) {
  core::NetworkManager network;
  const nfswitch::PortId in = network.add_physical_port("in").value();
  nfswitch::Lsi& graph = *network.create_graph_lsi("g").value();
  const core::VirtualLink link =
      network.create_virtual_link("g", "lan").value();
  const nfswitch::PortId out = graph.add_port("out").value();
  network.base_lsi().flow_table().add(
      10, nfswitch::match_in_port(in),
      {nfswitch::FlowAction::output(link.base_port)});
  nfswitch::FlowMatch match = nfswitch::match_in_port(link.graph_port);
  match.tp_dst = 2000;
  graph.flow_table().add(10, match, {nfswitch::FlowAction::output(out)});
  packet::PacketBurst returned;
  (void)graph.set_port_peer(out, [&returned](packet::PacketBurst&& burst) {
    returned = std::move(burst);
  });
  std::vector<packet::PacketBurst> bursts(
      static_cast<std::size_t>(std::max(1, flows / kHopBurst)));
  static const std::vector<std::uint8_t> payload(22, 0);  // 64 B frames
  for (int i = 0; i < static_cast<int>(bursts.size()) * kHopBurst; ++i) {
    packet::UdpFrameSpec spec;
    spec.ip_src = *packet::Ipv4Address::parse("10.0.0.1");
    spec.ip_dst = *packet::Ipv4Address::parse("10.0.0.2");
    spec.src_port = static_cast<std::uint16_t>(1000 + i % flows);
    spec.dst_port = 2000;
    spec.payload = payload;
    bursts[static_cast<std::size_t>(i / kHopBurst)].push_back(
        packet::build_udp_frame(spec));
  }
  std::size_t next = 0;
  auto [ns, iters] = bench::measure_ns([&]() {
    packet::PacketBurst& burst = bursts[next];
    network.base_lsi().receive_burst(in, std::move(burst));
    burst = std::move(returned);
    next = next + 1 == bursts.size() ? 0 : next + 1;
  });
  return {ns / kHopBurst, iters};
}

/// NAT session hits: 32-frame bursts of `frame_size` B UDP frames over 32
/// established flows, LAN to WAN through Nat::process_burst. Between
/// bursts each frame gets its 42 header bytes back from a copy, so every
/// burst translates the same inside flows; the restore is in the time.
/// The NAT sums the UDP checksum over the whole datagram, so the time
/// grows with `frame_size`.
/// Returns {ns per frame, bursts timed}.
std::pair<double, std::uint64_t> measure_nat_hit(std::size_t frame_size) {
  constexpr std::size_t kHeaders = 14 + 20 + 8;
  nnf::Nat nat;
  (void)nat.configure(nnf::kDefaultContext, {{"external_ip", "203.0.113.1"}});
  const std::vector<std::uint8_t> payload(frame_size - kHeaders, 0x5A);
  packet::PacketBurst burst;
  std::vector<std::array<std::uint8_t, kHeaders>> headers(kHopBurst);
  for (int i = 0; i < kHopBurst; ++i) {
    packet::UdpFrameSpec spec;
    spec.ip_src = *packet::Ipv4Address::parse("192.168.1.10");
    spec.ip_dst = *packet::Ipv4Address::parse("198.51.100.7");
    spec.src_port = static_cast<std::uint16_t>(40000 + i);
    spec.dst_port = 443;
    spec.payload = payload;
    burst.push_back(packet::build_udp_frame(spec));
    std::copy_n(burst.back().data().begin(), kHeaders,
                headers[static_cast<std::size_t>(i)].begin());
  }
  auto restore = [&]() {
    for (std::size_t i = 0; i < burst.size(); ++i) {
      std::copy(headers[i].begin(), headers[i].end(),
                burst[i].data().begin());
    }
  };
  auto translate = [&]() {
    auto outs = nat.process_burst(nnf::kDefaultContext, 0, 0,
                                  std::move(burst));
    burst.clear();
    for (nnf::NfOutput& out : outs) burst.push_back(std::move(out.frame));
    restore();
  };
  translate();  // opens the 32 sessions
  auto [ns, iters] = bench::measure_ns(translate);
  return {ns / kHopBurst, iters};
}

/// NAT session setup: 32-frame bursts of 64 B UDP frames, LAN to WAN
/// through Nat::process_burst, where every frame opens a new flow. Each
/// burst's 42 header bytes are restored from a copy and its frames get
/// fresh (source port, destination port) pairs; the restore is in the
/// time. The simulated clock advances by the cost model's native NAT
/// service time per frame and the idle timeout is 5 ms (nfbench's
/// nat_churn_64), so sweeps run and keep about 5 ms of flows live.
/// Returns {ns per frame, bursts timed}.
std::pair<double, std::uint64_t> measure_nat_new_session() {
  constexpr std::size_t kHeaders = 14 + 20 + 8;
  nnf::Nat nat;
  (void)nat.configure(nnf::kDefaultContext, {{"external_ip", "203.0.113.1"},
                                             {"idle_timeout_ms", "5"}});
  const sim::SimTime per_frame =
      virt::CostModel(virt::BackendKind::kNative, virt::profile_nat())
          .service_time(64);
  const std::vector<std::uint8_t> payload(64 - kHeaders, 0x5A);
  packet::UdpFrameSpec spec;
  spec.ip_src = *packet::Ipv4Address::parse("192.168.1.10");
  spec.ip_dst = *packet::Ipv4Address::parse("198.51.100.7");
  spec.payload = payload;
  const packet::PacketBuffer tmpl = packet::build_udp_frame(spec);
  packet::PacketBurst burst;
  for (int i = 0; i < kHopBurst; ++i) burst.push_back(tmpl.copy());
  std::uint32_t next_flow = 0;
  sim::SimTime now = 0;
  auto translate = [&]() {
    for (packet::PacketBuffer& frame : burst) {
      std::uint8_t* bytes = frame.data().data();
      std::copy_n(tmpl.data().begin(), kHeaders, bytes);
      util::store_be16(bytes + 34, static_cast<std::uint16_t>(next_flow));
      util::store_be16(bytes + 36,
                       static_cast<std::uint16_t>(1 + (next_flow >> 16)));
      ++next_flow;
    }
    now += per_frame * kHopBurst;
    auto outs = nat.process_burst(nnf::kDefaultContext, 0, now,
                                  std::move(burst));
    burst.clear();
    for (nnf::NfOutput& out : outs) burst.push_back(std::move(out.frame));
  };
  auto [ns, iters] = bench::measure_ns(translate);
  return {ns / kHopBurst, iters};
}

struct Scenario {
  const char* name;
  std::uint16_t vlan;  ///< packet VLAN for this scenario
};

}  // namespace

int main(int argc, char** argv) {
  bench::parse_cli(argc, argv);
  bench::JsonReport report("bench_flowtable");
  std::printf("=== A3: flow-table lookup scaling "
              "(tiered classifier vs seed linear scan) ===\n\n");
  std::printf("%-28s %12s %12s %10s\n", "scenario", "linear ns", "tiered ns",
              "speedup");

  double speedup_1024 = 0.0;
  for (int graphs : {4, 64, 1024}) {
    LinearTable linear;
    nfswitch::FlowTable tiered;
    for (int g = 0; g < graphs; ++g) {
      linear.add(100, rule_for(g));
      tiered.add(100, rule_for(g),
                 {nfswitch::FlowAction::output(
                     static_cast<nfswitch::PortId>(10 + g))});
    }

    const Scenario scenarios[] = {
        {"first_rule", 100},
        {"last_rule", static_cast<std::uint16_t>(100 + graphs - 1)},
        {"miss", 99},
    };
    for (const Scenario& s : scenarios) {
      const nfswitch::FlowContext ctx = context_for(s.vlan);
      const nfswitch::FlowKeyView key =
          nfswitch::FlowKeyView::from_context(ctx);

      auto [linear_ns, linear_iters] = bench::measure_ns(
          [&]() { bench::do_not_optimize(linear.lookup(ctx)); });
      auto [tiered_ns, tiered_iters] = bench::measure_ns(
          [&]() { bench::do_not_optimize(tiered.lookup_key(key, 64)); });

      const double speedup = tiered_ns > 0.0 ? linear_ns / tiered_ns : 0.0;
      char name[64];
      std::snprintf(name, sizeof(name), "lookup_%d_%s", graphs, s.name);
      std::printf("%-28s %12.1f %12.1f %9.1fx\n", name, linear_ns, tiered_ns,
                  speedup);

      auto& result = report.add(name, tiered_iters, tiered_ns);
      result.extra.emplace_back("linear_ns_per_op", linear_ns);
      result.extra.emplace_back("speedup_vs_linear", speedup);
      (void)linear_iters;
    }

    // Multiflow: cycle 4096 distinct flows (defeats the microflow cache
    // often enough to exercise the tuple-space tier).
    std::vector<nfswitch::FlowKeyView> keys;
    std::vector<nfswitch::FlowContext> contexts;
    for (int i = 0; i < 4096; ++i) {
      contexts.push_back(
          context_for(static_cast<std::uint16_t>(100 + (i % graphs))));
      keys.push_back(nfswitch::FlowKeyView::from_context(contexts.back()));
    }
    std::size_t li = 0, ti = 0;
    auto [linear_ns, linear_iters] = bench::measure_ns([&]() {
      bench::do_not_optimize(linear.lookup(contexts[li++ & 4095]));
    });
    auto [tiered_ns, tiered_iters] = bench::measure_ns([&]() {
      bench::do_not_optimize(tiered.lookup_key(keys[ti++ & 4095], 64));
    });
    char name[64];
    std::snprintf(name, sizeof(name), "lookup_%d_multiflow", graphs);
    const double speedup = tiered_ns > 0.0 ? linear_ns / tiered_ns : 0.0;
    std::printf("%-28s %12.1f %12.1f %9.1fx\n", name, linear_ns, tiered_ns,
                speedup);
    auto& result = report.add(name, tiered_iters, tiered_ns);
    result.extra.emplace_back("linear_ns_per_op", linear_ns);
    result.extra.emplace_back("speedup_vs_linear", speedup);
    (void)linear_iters;
    // The acceptance gate uses the 4096-flow working set, which exercises
    // the tuple-space tier rather than pure microflow-cache hits.
    if (graphs == 1024) speedup_1024 = speedup;
  }

  // Install/remove churn: 64 rules in, one cookie's worth out.
  auto [churn_ns, churn_iters] = bench::measure_ns([&]() {
    nfswitch::FlowTable table;
    for (int g = 0; g < 64; ++g) {
      table.add(100, rule_for(g), {nfswitch::FlowAction::output(2)},
                static_cast<nfswitch::Cookie>(g % 4));
    }
    bench::do_not_optimize(table.remove_by_cookie(2));
  });
  std::printf("%-28s %12s %12.1f\n", "install64_remove_cookie", "-",
              churn_ns);
  report.add("install64_remove_cookie", churn_iters, churn_ns);

  // Whole hops: a cache-resident flow and a 512-flow working set leaving
  // by one port; the 512-flow set alternating over two ports; and the
  // same set with only the last frame of each burst on a second port
  // (the longest prefix to move out of the burst's own storage).
  std::vector<std::size_t> one_port(kHopBurst, 0);
  std::vector<std::size_t> alternating(kHopBurst);
  for (std::size_t i = 0; i < alternating.size(); ++i) alternating[i] = i % 2;
  std::vector<std::size_t> last_elsewhere(kHopBurst, 0);
  last_elsewhere.back() = 1;
  struct Hop {
    const char* name;
    int flows;
    const std::vector<std::size_t>& port_of;
  };
  for (const Hop& hop : {Hop{"lsi_hop_1_flows", 1, one_port},
                         Hop{"lsi_hop_512_flows", 512, one_port},
                         Hop{"lsi_hop_512_flows_2_ports", 512, alternating},
                         Hop{"lsi_hop_512_flows_last_spills", 512,
                             last_elsewhere}}) {
    auto [hop_ns, hop_iters] = measure_lsi_hop(hop.flows, hop.port_of);
    std::printf("%-28s %12s %12.1f\n", hop.name, "-", hop_ns);
    report.add(hop.name, hop_iters, hop_ns);
  }
  {
    auto [link_ns, link_iters] = measure_lsi_link_hop(512);
    std::printf("%-28s %12s %12.1f\n", "lsi_link_hop_512_flows", "-",
                link_ns);
    report.add("lsi_link_hop_512_flows", link_iters, link_ns);
  }

  for (std::size_t size : {64u, 1408u}) {
    auto [nat_ns, nat_iters] = measure_nat_hit(size);
    const std::string name = "nat_hit_" + std::to_string(size);
    std::printf("%-28s %12s %12.1f\n", name.c_str(), "-", nat_ns);
    report.add(name, nat_iters, nat_ns);
  }
  {
    auto [new_ns, new_iters] = measure_nat_new_session();
    std::printf("%-28s %12s %12.1f\n", "nat_new_session_64", "-", new_ns);
    report.add("nat_new_session_64", new_iters, new_ns);
  }
  for (std::size_t size : {20u, 72u, 1408u}) {
    std::vector<std::uint8_t> data(size);
    for (std::size_t i = 0; i < size; ++i) {
      data[i] = static_cast<std::uint8_t>(i * 31 + 7);
    }
    auto [sum_ns, sum_iters] = bench::measure_ns([&]() {
      bench::do_not_optimize(packet::internet_checksum(data));
    });
    const std::string name = "internet_checksum_" + std::to_string(size);
    std::printf("%-28s %12s %12.1f\n", name.c_str(), "-", sum_ns);
    report.add(name, sum_iters, sum_ns);
  }

  std::printf("\nacceptance: 1024-entry multiflow speedup %.1fx "
              "(target >= 10x)\n\n", speedup_1024);
  report.emit();
  if (!bench::gates_enabled()) return 0;  // smoke / unoptimised build
  return speedup_1024 >= 10.0 ? 0 : 1;
}
