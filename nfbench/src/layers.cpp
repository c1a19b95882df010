#include "layers.hpp"

#include <array>
#include <cstring>
#include <vector>

#include "crypto/cipher_modes.hpp"
#include "nnf/adaptation.hpp"
#include "nnf/firewall.hpp"
#include "nnf/ipsec.hpp"
#include "nnf/nat.hpp"
#include "packet/builder.hpp"
#include "packet/flow_key.hpp"
#include "virt/cost_model.hpp"

namespace nfbench {

namespace nnf = nnfv::nnf;
namespace packet = nnfv::packet;

namespace {

/// Calls `body` on fresh rounds of the workload for `seconds` of wall time.
template <typename Body>
void run_for(double seconds, const Workload& workload, std::uint64_t seed,
             Body body) {
  Traffic traffic(workload, seed);
  const std::vector<std::size_t> ports = traffic.round_ports();
  Round round;
  const std::int64_t end =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  do {
    traffic.fill(round, ports, /*warmup=*/false);
    body(round);
  } while (now_ns() < end);
}

std::size_t contexts_of(const Workload& workload) {
  return workload.topology == Topology::kSharedGateway ? kCustomers : 1;
}

/// One context per customer; context 0 always exists.
bool add_contexts(nnf::NetworkFunction& nf, std::size_t count) {
  for (nnf::ContextId c = 1; c < count; ++c) {
    if (!nf.add_context(c).is_ok()) return false;
  }
  return true;
}

/// The frames of a burst the customer's firewall accepts, i.e. what the
/// NAT behind it sees.
packet::PacketBurst accepted(const Round& round, std::size_t first,
                             packet::PacketBurst& burst) {
  packet::PacketBurst out;
  out.reserve(burst.size());
  for (std::size_t i = 0; i < burst.size(); ++i) {
    if (!round.packets[first + i].drop) out.push_back(std::move(burst[i]));
  }
  return out;
}

std::size_t accepted_count(const Round& round, std::size_t first,
                           std::size_t n) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) count += !round.packets[first + i].drop;
  return count;
}

/// Sends every frame out of the other port, so an adaptation layer around
/// it measures the layer's own demultiplex and re-mark cost.
class PassThrough final : public nnf::NetworkFunction {
 public:
  [[nodiscard]] std::string_view type() const override {
    return "passthrough";
  }
  [[nodiscard]] std::size_t num_ports() const override { return 2; }
  nnfv::util::Status configure(nnf::ContextId,
                               const nnf::NfConfig&) override {
    return nnfv::util::Status::ok();
  }
  std::vector<nnf::NfOutput> process(nnf::ContextId, nnf::NfPortIndex in_port,
                                     nnfv::sim::SimTime,
                                     packet::PacketBuffer&& frame) override {
    std::vector<nnf::NfOutput> out;
    out.push_back({in_port ^ 1u, std::move(frame)});
    return out;
  }
  std::vector<nnf::NfOutput> process_burst(
      nnf::ContextId, nnf::NfPortIndex in_port, nnfv::sim::SimTime,
      packet::PacketBurst&& burst) override {
    std::vector<nnf::NfOutput> out;
    out.reserve(burst.size());
    for (packet::PacketBuffer& frame : burst) {
      out.push_back({in_port ^ 1u, std::move(frame)});
    }
    return out;
  }
};

bool measure_ipsec(const Workload& workload, std::uint64_t seed,
                   double seconds, Tracer& tracer) {
  nnf::IpsecEndpoint cpe;
  nnf::IpsecEndpoint headend;
  if (!cpe.configure(nnf::kDefaultContext, tunnel_config(true)).is_ok() ||
      !headend.configure(nnf::kDefaultContext, tunnel_config(false))
           .is_ok()) {
    return false;
  }
  bool ok = true;
  run_for(seconds, workload, seed, [&](Round& round) {
    for (auto& [port, burst] : round.bursts) {
      const std::size_t n = burst.size();
      std::vector<nnf::NfOutput> encap;
      {
        Span span(tracer, SpanName::kIpsecEncap,
                  static_cast<std::uint32_t>(n));
        encap = cpe.process_burst(nnf::kDefaultContext, 0, 0,
                                  std::move(burst));
      }
      packet::PacketBurst black;
      black.reserve(encap.size());
      for (nnf::NfOutput& out : encap) black.push_back(std::move(out.frame));
      std::vector<nnf::NfOutput> decap;
      {
        Span span(tracer, SpanName::kIpsecDecap,
                  static_cast<std::uint32_t>(black.size()));
        decap = headend.process_burst(nnf::kDefaultContext, 1, 0,
                                      std::move(black));
      }
      ok = ok && decap.size() == n;
    }
  });
  return ok;
}

bool measure_nat(const Workload& workload, std::uint64_t seed,
                 double seconds, Tracer& tracer, double& sessions_live) {
  const std::size_t contexts = contexts_of(workload);
  const bool churn = workload.packets_per_flow > 0;
  nnf::Nat nat;
  if (!add_contexts(nat, contexts)) return false;
  for (nnf::ContextId c = 0; c < contexts; ++c) {
    if (!nat.configure(c, nat_config(c, churn)).is_ok()) return false;
  }
  // The deployed NAT sees simulated time advance by its own service time
  // per frame (tagged by the adaptation layer); mirror that clock here.
  const nnfv::virt::CostModel model(nnfv::virt::BackendKind::kNative,
                                    nnfv::virt::profile_nat());
  nnfv::sim::SimTime now = 0;
  bool ok = true;
  run_for(seconds, workload, seed, [&](Round& round) {
    std::size_t first = 0;
    for (auto& [port, burst] : round.bursts) {
      packet::PacketBurst in = accepted(round, first, burst);
      first += burst.size();
      const std::size_t n = in.size();
      for (const packet::PacketBuffer& frame : in) {
        now += model.service_time(frame.size() + packet::kVlanTagSize);
      }
      std::vector<nnf::NfOutput> out;
      {
        Span span(tracer, SpanName::kNat, static_cast<std::uint32_t>(n));
        out = nat.process_burst(static_cast<nnf::ContextId>(port), 0, now,
                                std::move(in));
      }
      ok = ok && out.size() == n;
    }
  });
  sessions_live = 0.0;
  for (nnf::ContextId c = 0; c < contexts; ++c) {
    sessions_live += static_cast<double>(nat.session_count(c));
  }
  return ok;
}

bool measure_firewall(const Workload& workload, std::uint64_t seed,
                      double seconds, Tracer& tracer) {
  const std::size_t contexts = contexts_of(workload);
  nnf::Firewall firewall;
  if (!add_contexts(firewall, contexts)) return false;
  for (nnf::ContextId c = 0; c < contexts; ++c) {
    if (!firewall.configure(c, firewall_config()).is_ok()) return false;
  }
  bool ok = true;
  run_for(seconds, workload, seed, [&](Round& round) {
    std::size_t first = 0;
    for (auto& [port, burst] : round.bursts) {
      const std::size_t n = burst.size();
      const std::size_t expected = accepted_count(round, first, n);
      first += n;
      std::vector<nnf::NfOutput> out;
      {
        Span span(tracer, SpanName::kFirewall, static_cast<std::uint32_t>(n));
        out = firewall.process_burst(static_cast<nnf::ContextId>(port), 0, 0,
                                     std::move(burst));
      }
      ok = ok && out.size() == expected;
    }
  });
  return ok;
}

bool measure_adaptation(const Workload& workload, std::uint64_t seed,
                        double seconds, Tracer& tracer) {
  const std::size_t contexts = contexts_of(workload);
  PassThrough nf;
  if (!add_contexts(nf, contexts)) return false;
  nnf::AdaptationLayer layer(nf);
  auto mark = [](std::size_t c, nnf::NfPortIndex p) {
    return static_cast<nnf::Mark>(100 + 2 * c + p);
  };
  for (nnf::ContextId c = 0; c < contexts; ++c) {
    if (!layer.bind(c, 0, mark(c, 0)).is_ok() ||
        !layer.bind(c, 1, mark(c, 1)).is_ok()) {
      return false;
    }
  }
  std::uint64_t in = 0;
  std::uint64_t out = 0;
  layer.set_burst_transmit(
      [&out](packet::PacketBurst&& burst) { out += burst.size(); });
  run_for(seconds, workload, seed, [&](Round& round) {
    for (auto& [port, burst] : round.bursts) {
      for (packet::PacketBuffer& frame : burst) {
        packet::set_vlan(frame, mark(port, 0));
      }
      in += burst.size();
      Span span(tracer, SpanName::kAdaptation,
                static_cast<std::uint32_t>(burst.size()));
      layer.receive_burst(0, std::move(burst));
    }
  });
  return in == out;
}

bool measure_crypto(const Workload& workload, std::uint64_t seed,
                    double seconds, Tracer& tracer, double& esp_bytes) {
  std::array<std::uint8_t, 16> key{};
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(i);
  }
  auto gcm = nnfv::crypto::GcmContext::create(key);
  if (!gcm) return false;
  using nnfv::crypto::GcmContext;
  constexpr std::size_t kAad = 8;
  std::vector<std::uint8_t> plain, sealed, opened, ivs, aads, tags;
  std::vector<std::size_t> offsets;
  std::vector<nnfv::crypto::GcmMbOp> ops;
  std::array<bool, kBurst> lane_ok{};
  std::uint64_t lanes = 0;
  std::uint64_t bytes = 0;
  std::uint64_t counter = 0;
  bool ok = true;
  run_for(seconds, workload, seed, [&](Round& round) {
    for (auto& [port, burst] : round.bursts) {
      // ESP plaintext per frame: the inner IP packet plus the trailer,
      // padded to 4 bytes, as the tunnel seals it.
      const std::size_t n = burst.size();
      offsets.assign(1, 0);
      for (const packet::PacketBuffer& frame : burst) {
        const std::size_t l3 = frame.size() - packet::kEthernetHeaderSize;
        offsets.push_back(offsets.back() + ((l3 + 2 + 3) & ~std::size_t{3}));
      }
      plain.assign(offsets.back(), 0);
      sealed.assign(offsets.back(), 0);
      opened.assign(offsets.back(), 0);
      ivs.assign(n * GcmContext::kIvSize, 0);
      aads.assign(n * kAad, 0);
      tags.assign(n * GcmContext::kTagSize, 0);
      ops.assign(n, {});
      for (std::size_t i = 0; i < n; ++i) {
        const auto l3 = burst[i].data().subspan(packet::kEthernetHeaderSize);
        std::memcpy(plain.data() + offsets[i], l3.data(), l3.size());
        ++counter;
        std::memcpy(ivs.data() + i * GcmContext::kIvSize + 4, &counter, 8);
        std::memcpy(aads.data() + i * kAad + 4, &counter, 4);
        ops[i].iv = {ivs.data() + i * GcmContext::kIvSize,
                     GcmContext::kIvSize};
        ops[i].aad = {aads.data() + i * kAad, kAad};
        ops[i].input = {plain.data() + offsets[i], offsets[i + 1] - offsets[i]};
        ops[i].output = sealed.data() + offsets[i];
        ops[i].tag = tags.data() + i * GcmContext::kTagSize;
        bytes += offsets[i + 1] - offsets[i];
      }
      lanes += n;
      {
        Span span(tracer, SpanName::kSeal, static_cast<std::uint32_t>(n));
        ok = gcm->seal_mb(ops.data(), n).is_ok() && ok;
      }
      for (std::size_t i = 0; i < n; ++i) {
        ops[i].input = {sealed.data() + offsets[i],
                        offsets[i + 1] - offsets[i]};
        ops[i].output = opened.data() + offsets[i];
      }
      bool opened_ok = false;
      {
        Span span(tracer, SpanName::kOpen, static_cast<std::uint32_t>(n));
        opened_ok = gcm->open_mb(ops.data(), n, lane_ok.data());
      }
      ok = ok && opened_ok && opened == plain;
    }
  });
  esp_bytes = lanes > 0 ? static_cast<double>(bytes) / lanes : 0.0;
  return ok;
}

bool measure_lookup(const Workload& workload, std::uint64_t seed,
                    System& system, double seconds, Tracer& tracer) {
  std::vector<std::vector<LookupPoint>> points;
  for (std::size_t port = 0; port < kCustomers; ++port) {
    points.push_back(system.lookup_points(port));
    for (const LookupPoint& p : points.back()) {
      if (p.table == nullptr) return false;
    }
  }
  std::vector<nnfv::nfswitch::FlowContext> contexts;
  std::vector<std::size_t> sizes;
  bool ok = true;
  run_for(seconds, workload, seed, [&](Round& round) {
    for (auto& [port, burst] : round.bursts) {
      contexts.clear();
      sizes.clear();
      for (const packet::PacketBuffer& frame : burst) {
        auto fields = packet::extract_flow_fields(frame.data());
        if (!fields) {
          ok = false;
          return;
        }
        contexts.push_back({0, fields.value()});
        sizes.push_back(frame.size());
      }
      for (const LookupPoint& point : points[port]) {
        std::size_t hits = 0;
        {
          Span span(tracer, SpanName::kLookup,
                    static_cast<std::uint32_t>(contexts.size()));
          for (std::size_t i = 0; i < contexts.size(); ++i) {
            contexts[i].in_port = point.in_port;
            hits += point.table->lookup(contexts[i], sizes[i]) != nullptr;
          }
        }
        ok = ok && hits == contexts.size();
      }
    }
  });
  return ok && !contexts.empty();
}

}  // namespace

LayerReport measure_layers(const Workload& workload, std::uint64_t seed,
                           System& system, double seconds_each,
                           Tracer& tracer) {
  LayerReport report;
  report.ok = measure_ipsec(workload, seed, seconds_each, tracer) &&
              measure_nat(workload, seed, seconds_each, tracer,
                          report.nat_sessions_live) &&
              measure_firewall(workload, seed, seconds_each, tracer) &&
              measure_adaptation(workload, seed, seconds_each, tracer) &&
              measure_crypto(workload, seed, seconds_each, tracer,
                             report.esp_bytes_per_pkt) &&
              measure_lookup(workload, seed, system, seconds_each, tracer);
  return report;
}

}  // namespace nfbench
