// nfbench: wall-clock benchmark of deployed native-NF graphs.
//
//   nfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--trace-dir <dir>]
//
// Deploys the workload's NF-FGs on core::UniversalNodes, drives seeded
// frames through them and checks every delivered packet. --trace 0 prints
// the end-to-end metrics, --trace 1 the per-layer metrics of a separate
// traced run (spans are written to --trace-dir when given). The last line
// of stdout is one JSON object with the keys correct, attempted, failed and
// metrics. See nfbench/README.md for the workloads and metric definitions.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "alloc_count.hpp"
#include "layers.hpp"
#include "packet/mbuf.hpp"
#include "system.hpp"
#include "trace.hpp"
#include "traffic.hpp"
#include "virt/cost_model.hpp"

namespace nfbench {
namespace {

/// Metrics are taken per window of this much measured time. The machine
/// the benchmark was tuned on shares its cores: for seconds at a time the
/// node runs up to 1.5x slower, and in such phases the VM stalls for
/// milliseconds several times a second. Windows are short enough that most
/// fall wholly inside one phase and hold no stall, and each metric reports
/// the window quantile on the uncontended side (see README.md). A run has
/// 600-1300 windows per metric, so at least a dozen lie beyond it.
constexpr double kWindowNs = 10e6;
constexpr double kLow = 0.02;
constexpr double kHigh = 0.98;
/// Set-up is timed once per segment (31 times in a 20 s run); its
/// uncontended side is the third-fastest of those.
constexpr double kSetupLow = 0.10;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir;
};

bool parse_options(int argc, char** argv, Options& options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value, &end);
    } else if (key == "--trace") {
      options.trace = std::strtol(value, &end, 10) != 0;
    } else if (key == "--trace-dir") {
      options.trace_dir = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !options.workload.empty() && options.seconds > 0.0;
}

/// Nearest-rank quantile (reorders `values`).
template <typename T>
double quantile(std::vector<T>& values, double q) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::max(0.0, std::ceil(q * static_cast<double>(values.size())) - 1));
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(rank),
                   values.end());
  return static_cast<double>(values[rank]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t pool_heap_events() {
  const packet::MbufPoolStats stats = packet::MbufPool::global_stats();
  return stats.slab_allocs + stats.heap_allocs;
}

/// Closed-loop goodput per window of timed (inject..complete) time.
struct GoodputWindows {
  double ns = 0.0;
  double bits = 0.0;
  std::vector<double> mbps;

  void add(double round_ns, std::uint64_t payload_bytes) {
    ns += round_ns;
    bits += static_cast<double>(payload_bytes) * 8.0;
    if (ns >= kWindowNs) {
      mbps.push_back(bits * 1e3 / ns);
      ns = bits = 0.0;
    }
  }
};

/// Open-loop latency quantiles per window of offered time.
struct LatencyWindows {
  std::vector<double> p50_us;
  std::vector<double> p99_us;
  std::vector<double> late_p99_us;
  std::size_t samples = 0;
};

/// One deployed system with its own traffic generator and oracle.
class Runner {
 public:
  Runner(const Workload& workload, std::uint64_t seed)
      : workload_(workload),
        gateway_(workload.topology == Topology::kSharedGateway),
        traffic_(workload, seed),
        oracle_(traffic_),
        ports_(traffic_.round_ports()) {}

  /// Node construction, every deploy() and the warm-up rounds that grow
  /// the mbuf pools, fill the caches and (churn) reach the NAT's steady
  /// state. Returns the wall time in seconds, or a negative value.
  double set_up(std::vector<double>& deploy_ms, std::string& error) {
    const std::int64_t start = now_ns();
    system_ = make_system(workload_, deploy_ms, error);
    if (system_ == nullptr) return -1.0;
    const std::size_t rounds =
        workload_.packets_per_flow > 0
            ? 32  // past the first NAT expiry sweep
            : std::max<std::size_t>(4, workload_.flows / kBurst);
    Tracer off(false);
    for (std::size_t i = 0; i < rounds; ++i) {
      double ns = 0.0;
      std::uint64_t events = 0;
      warmup_.add(round(off, /*warmup=*/true, /*flip=*/false, ns, events));
    }
    return static_cast<double>(now_ns() - start) / 1e9;
  }

  /// One closed-loop round: kBurstsInFlight bursts injected, then driven to
  /// completion. Only inject..complete is timed (added to `timed_ns`);
  /// generation and the oracle run outside.
  Tally round(Tracer& tracer, bool warmup, bool flip, double& timed_ns,
              std::uint64_t& events) {
    traffic_.fill(round_, ports_, warmup, flip && gateway_);
    system_->set_wire_flip(flip && !gateway_);
    system_->prepare(round_.packets.size(), /*timestamps=*/false);
    tracer.set_burst(next_round_++);
    alloc_count::set_counting(count_allocs_);
    const std::int64_t start = now_ns();
    {
      Span span(tracer, SpanName::kRound,
                static_cast<std::uint32_t>(round_.packets.size()));
      for (auto& [port, burst] : round_.bursts) {
        system_->inject(port, std::move(burst), tracer);
      }
      events += system_->complete(tracer);
    }
    timed_ns += static_cast<double>(now_ns() - start);
    alloc_count::set_counting(false);
    return oracle_.check(round_, system_->egress(), nullptr);
  }

  /// Closed loop for `seconds` of wall time.
  Tally closed(double seconds, Tracer& tracer, GoodputWindows& windows,
               std::uint64_t& events) {
    Tally tally;
    const std::int64_t end =
        now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    do {
      double ns = 0.0;
      const Tally t = round(tracer, false, false, ns, events);
      windows.add(ns, t.payload_bytes);
      tally.add(t);
    } while (now_ns() < end);
    return tally;
  }

  /// Open loop for `seconds`: one burst due every kBurst / open_loop_pps
  /// seconds, whether or not the previous one is done. A packet's latency
  /// runs from when its burst was due to its egress.
  Tally open(double seconds, LatencyWindows& windows) {
    Tally tally;
    Tracer off(false);
    const double gap_ns =
        static_cast<double>(kBurst) * 1e9 / workload_.open_loop_pps;
    const auto per_window = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(kWindowNs / gap_ns));
    const auto bursts = std::max<std::uint64_t>(
        per_window, static_cast<std::uint64_t>(seconds * 1e9 / gap_ns) /
                        per_window * per_window);
    std::vector<std::size_t> port(1, 0);
    std::vector<std::int64_t> latency;
    std::vector<std::int64_t> late;
    const std::int64_t start = now_ns() + 1000000;
    for (std::uint64_t i = 0; i < bursts; ++i) {
      port[0] = gateway_ ? i % kCustomers : 0;
      traffic_.fill(round_, port, /*warmup=*/false);
      const std::int64_t due =
          start + static_cast<std::int64_t>(static_cast<double>(i) * gap_ns);
      for (Expected& e : round_.packets) e.due_ns = due;
      system_->prepare(round_.packets.size(), /*timestamps=*/true);
      std::int64_t now = now_ns();
      while (now < due) now = now_ns();
      late.push_back(now - due);
      for (auto& [p, burst] : round_.bursts) {
        system_->inject(p, std::move(burst), off);
      }
      system_->complete(off);
      tally.add(oracle_.check(round_, system_->egress(), &latency));
      if ((i + 1) % per_window == 0) {
        windows.samples += latency.size();
        windows.p50_us.push_back(quantile(latency, 0.50) / 1e3);
        windows.p99_us.push_back(quantile(latency, 0.99) / 1e3);
        windows.late_p99_us.push_back(quantile(late, 0.99) / 1e3);
        latency.clear();
        late.clear();
      }
    }
    return tally;
  }

  /// Corrupts every frame (an ESP byte on the wire, or a payload byte
  /// behind the oracle's back) for two rounds: every packet must fail.
  bool self_check(Tally& tally) {
    Tracer off(false);
    for (int i = 0; i < 2; ++i) {
      double ns = 0.0;
      std::uint64_t events = 0;
      tally.add(round(off, false, /*flip=*/true, ns, events));
    }
    system_->set_wire_flip(false);
    const std::uint64_t must_fail = tally.offered - tally.expected_drops;
    return must_fail > 0 && tally.verified == 0 &&
           tally.failed() == must_fail;
  }

  void count_allocations(bool on) { count_allocs_ = on; }
  System& system() { return *system_; }
  [[nodiscard]] const Tally& warmup() const { return warmup_; }

 private:
  const Workload& workload_;
  const bool gateway_;
  Traffic traffic_;
  Oracle oracle_;
  const std::vector<std::size_t> ports_;
  std::unique_ptr<System> system_;
  Round round_;
  bool count_allocs_ = false;
  std::uint64_t next_round_ = 0;
  Tally warmup_;
};

/// Set-up is repeated between measurement segments, each time on a fresh
/// system of its own, so its samples cover the whole run.
class SetupTimer {
 public:
  SetupTimer(const Workload& workload, std::uint64_t seed)
      : workload_(workload), seed_(seed) {}

  bool once(std::string& error) {
    Runner runner(workload_, seed_);
    const double seconds = runner.set_up(deploy_ms_, error);
    if (seconds < 0.0) return false;
    seconds_.push_back(seconds);
    warmup_failed_ += runner.warmup().failed();
    return true;
  }
  void add(double seconds) { seconds_.push_back(seconds); }

  /// Quantile `q` of the set-up times so far.
  double seconds(double q) { return quantile(seconds_, q); }
  double median_deploy_ms() { return quantile(deploy_ms_, 0.5); }
  std::vector<double>& deploy_ms() { return deploy_ms_; }
  [[nodiscard]] std::uint64_t warmup_failed() const { return warmup_failed_; }

 private:
  const Workload& workload_;
  std::uint64_t seed_;
  std::vector<double> seconds_;
  std::vector<double> deploy_ms_;
  std::uint64_t warmup_failed_ = 0;
};

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

void emit(bool correct, const Tally& measured,
          const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(measured.offered);
  out += ", \"failed\": " + std::to_string(measured.failed());
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += i == 0 ? "\"" : ", \"";
    out += metrics[i].name;
    out += "\": {\"value\": ";
    out += buf;
    out += ", \"unit\": \"";
    out += metrics[i].unit;
    out += "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

bool all_finite(const std::vector<Metric>& metrics) {
  return std::all_of(metrics.begin(), metrics.end(),
                     [](const Metric& m) { return std::isfinite(m.value); });
}

int refuse(const Tally& tally) {
  std::fprintf(stderr,
               "self-check failed: with every frame corrupted, %llu of %llu "
               "packets still verified and %llu failed; the oracle cannot be "
               "trusted, so no numbers are reported\n",
               static_cast<unsigned long long>(tally.verified),
               static_cast<unsigned long long>(tally.offered),
               static_cast<unsigned long long>(tally.failed()));
  return 1;
}

/// Segments alternate closed loop, open loop (and, traced, the other
/// loops), with a set-up repetition before each group, so a slow stretch
/// of the machine touches every metric alike. At 1.5 groups per second the
/// set-up samples spread over the whole run, not over a few of its phases.
int segments_for(double seconds) {
  return std::max(1, static_cast<int>(seconds * 1.5));
}

int run_end_to_end(const Workload& workload, const Options& options) {
  SetupTimer setup(workload, options.seed);
  Runner runner(workload, options.seed);
  std::string error;
  const double first = runner.set_up(setup.deploy_ms(), error);
  if (first < 0.0) {
    std::fprintf(stderr, "setup failed: %s\n", error.c_str());
    return 1;
  }
  setup.add(first);

  // A third of the time goes to the closed loop and two thirds to the open
  // loop, whose tail needs more samples to settle.
  const int groups = segments_for(options.seconds);
  const double segment = options.seconds / (3.0 * groups);
  Tally measured;
  GoodputWindows goodput;
  LatencyWindows latency;
  double model_bits = 0.0;
  nnfv::sim::SimTime model_ns = 0;
  for (int g = 0; g < groups; ++g) {
    if (!setup.once(error)) {
      std::fprintf(stderr, "setup failed: %s\n", error.c_str());
      return 1;
    }
    Tracer off(false);
    std::uint64_t events = 0;
    const nnfv::sim::SimTime before = runner.system().model_clock();
    const Tally closed = runner.closed(segment, off, goodput, events);
    model_ns += runner.system().model_clock() - before;
    model_bits += static_cast<double>(closed.payload_bytes) * 8.0;
    measured.add(closed);
    measured.add(runner.open(2.0 * segment, latency));
  }
  Tally check;
  if (!runner.self_check(check)) return refuse(check);
  const double fail_frac = static_cast<double>(measured.failed()) /
                           static_cast<double>(measured.offered);
  const std::vector<Metric> metrics = {
      {"goodput_mbps", quantile(goodput.mbps, kHigh), "Mb/s"},
      {"lat_p50_us", quantile(latency.p50_us, kLow), "us"},
      {"lat_p99_us", quantile(latency.p99_us, kLow), "us"},
      {"delivered_frac", 1.0 - fail_frac, "ratio"},
      {"setup_s", setup.seconds(kSetupLow), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  // Informational: the cost model's goodput for the same verified traffic
  // on the simulated clock (the ipsec workloads' CPE station paces it),
  // and how the run was spread.
  std::printf(
      "info: {\"fail_frac\": %.6g, \"lost\": %llu, \"mismatched\": %llu, "
      "\"expected_drops\": %llu, "
      "\"goodput_windows\": %zu, \"goodput_median_mbps\": %.6g, "
      "\"latency_windows\": %zu, \"latency_samples\": %zu, "
      "\"lat_p99_median_us\": %.6g, \"open_loop_pps\": %.0f, "
      "\"model_goodput_mbps\": %.6g, \"setup_median_s\": %.6g, "
      "\"self_check_failed\": %llu}\n",
      fail_frac, static_cast<unsigned long long>(measured.lost),
      static_cast<unsigned long long>(measured.mismatched),
      static_cast<unsigned long long>(measured.expected_drops),
      goodput.mbps.size(), quantile(goodput.mbps, 0.5),
      latency.p99_us.size(), latency.samples,
      quantile(latency.p99_us, 0.5), workload.open_loop_pps,
      model_ns > 0 ? model_bits * 1e3 / static_cast<double>(model_ns) : 0.0,
      setup.seconds(0.5), static_cast<unsigned long long>(check.failed()));
  const bool correct = measured.failed() == 0 &&
                       runner.warmup().failed() == 0 &&
                       setup.warmup_failed() == 0 && all_finite(metrics);
  emit(correct, measured, metrics);
  return 0;
}

int run_traced(const Workload& workload, const Options& options) {
  SetupTimer setup(workload, options.seed);
  Runner runner(workload, options.seed);
  std::string error;
  const double first = runner.set_up(setup.deploy_ms(), error);
  if (first < 0.0) {
    std::fprintf(stderr, "setup failed: %s\n", error.c_str());
    return 1;
  }
  setup.add(first);
  System& system = runner.system();
  Tracer tracer(true);

  // A quarter each: untraced closed loop, traced closed loop, open loop,
  // standalone layers.
  const int groups = segments_for(options.seconds);
  const double segment = options.seconds / (4.0 * groups);
  Tally measured;
  Tally traced;
  GoodputWindows plain_windows;
  GoodputWindows traced_windows;
  LatencyWindows latency;
  std::uint64_t events = 0, pool = 0, heap = 0, hits = 0, lookups = 0;
  const auto cache = [&system](std::uint64_t sign, std::uint64_t& h,
                               std::uint64_t& l) {
    for (const auto* table : system.flow_tables()) {
      h += sign * table->cache_hits();
      l += sign * table->cache_lookups();
    }
  };
  for (int g = 0; g < groups; ++g) {
    if (!setup.once(error)) {
      std::fprintf(stderr, "setup failed: %s\n", error.c_str());
      return 1;
    }
    Tracer off(false);
    std::uint64_t untraced_events = 0;
    measured.add(runner.closed(segment, off, plain_windows, untraced_events));

    cache(~0ULL, hits, lookups);  // unsigned wrap: subtracts the counters
    const std::uint64_t pool0 = pool_heap_events();
    const std::uint64_t heap0 = alloc_count::allocations();
    runner.count_allocations(true);
    const Tally t = runner.closed(segment, tracer, traced_windows, events);
    runner.count_allocations(false);
    heap += alloc_count::allocations() - heap0;
    pool += pool_heap_events() - pool0;
    cache(1, hits, lookups);
    measured.add(t);
    traced.add(t);

    measured.add(runner.open(segment, latency));
  }
  const LayerReport layers =
      measure_layers(workload, options.seed, system,
                     options.seconds / 4.0 / kLayerCount, tracer);
  Tally check;
  if (!runner.self_check(check)) return refuse(check);

  const auto totals = tracer.totals();
  const auto span = [&totals](SpanName n) {
    return totals[static_cast<std::size_t>(n)];
  };
  const double pkts = static_cast<double>(traced.offered);
  const auto per_pkt = [pkts](double v) { return pkts > 0 ? v / pkts : 0.0; };
  const double run_ns = per_pkt(span(SpanName::kSimRun).self_ns);
  const double encap = span(SpanName::kIpsecEncap).ns_per_packet();
  const double decap = span(SpanName::kIpsecDecap).ns_per_packet();
  const double nat = span(SpanName::kNat).ns_per_packet();
  const double firewall = span(SpanName::kFirewall).ns_per_packet();
  const double adaptation = span(SpanName::kAdaptation).ns_per_packet();
  const double seal = span(SpanName::kSeal).ns_per_packet();
  // What sim.run spends beyond the NF work itself: stations, holders,
  // std::function dispatch, output vectors, LSI hops on the way out.
  const double nf_work = workload.topology == Topology::kIpsecTunnel
                             ? encap + decap
                             : firewall + nat + 2.0 * adaptation;

  double share_min = 1.0;  // the inline path: one thread carries it all
  std::uint64_t ingress_drops = 0;
  const std::vector<nnfv::exec::WorkerStats> workers = system.worker_stats();
  if (!workers.empty()) {
    std::uint64_t total = 0, least = ~0ULL;
    for (const auto& w : workers) {
      total += w.processed;
      least = std::min(least, w.processed);
      ingress_drops += w.ingress_drops;
    }
    share_min = total > 0 ? static_cast<double>(least) *
                                static_cast<double>(workers.size()) /
                                static_cast<double>(total)
                          : 0.0;
  }
  const double traced_mbps = quantile(traced_windows.mbps, kHigh);
  const double plain_mbps = quantile(plain_windows.mbps, kHigh);

  const std::vector<Metric> metrics = {
      {"core.deploy_ms", setup.median_deploy_ms(), "ms"},
      {"core.inject_ns_per_pkt", per_pkt(span(SpanName::kInject).self_ns),
       "ns"},
      {"sim.run_ns_per_pkt", run_ns, "ns"},
      {"sim.events_per_pkt", per_pkt(static_cast<double>(events)), "count"},
      {"compute.glue_ns_per_pkt", run_ns - nf_work, "ns"},
      {"exec.drain_wait_ns_per_pkt", per_pkt(span(SpanName::kDrain).self_ns),
       "ns"},
      {"exec.worker_share_min", share_min, "ratio"},
      {"exec.ingress_drops", static_cast<double>(ingress_drops), "count"},
      {"switch.lookup_ns", span(SpanName::kLookup).ns_per_packet(), "ns"},
      {"switch.cache_hit_ratio",
       lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups)
                   : 0.0,
       "ratio"},
      {"nnf.ipsec.encap_ns_per_pkt", encap, "ns"},
      {"nnf.ipsec.decap_ns_per_pkt", decap, "ns"},
      {"nnf.nat.ns_per_pkt", nat, "ns"},
      {"nnf.nat.sessions_live", layers.nat_sessions_live, "count"},
      {"nnf.firewall.ns_per_pkt", firewall, "ns"},
      {"nnf.adaptation.ns_per_pkt", adaptation, "ns"},
      {"crypto.seal_ns_per_pkt", seal, "ns"},
      {"crypto.open_ns_per_pkt", span(SpanName::kOpen).ns_per_packet(), "ns"},
      {"packet.pool_allocs_per_pkt", per_pkt(static_cast<double>(pool)),
       "count"},
      {"packet.heap_allocs_per_pkt", per_pkt(static_cast<double>(heap)),
       "count"},
      {"harness.gen_late_us_p99", quantile(latency.late_p99_us, 0.5), "us"},
      {"harness.trace_overhead",
       plain_mbps > 0.0 ? 1.0 - traced_mbps / plain_mbps : 0.0, "ratio"},
  };
  // Informational: the cost model assumes 5.83 ns/B of ESP work; the
  // measured GCM seal cost per byte sits next to it.
  std::printf(
      "info: {\"traced_goodput_mbps\": %.6g, \"untraced_goodput_mbps\": "
      "%.6g, \"model_esp_ns_per_byte\": %.6g, "
      "\"measured_seal_ns_per_byte\": %.6g, \"spans\": %zu, "
      "\"spans_dropped\": %llu}\n",
      traced_mbps, plain_mbps, nnfv::virt::profile_ipsec_esp().per_byte_ns,
      layers.esp_bytes_per_pkt > 0.0 ? seal / layers.esp_bytes_per_pkt : 0.0,
      tracer.size(), static_cast<unsigned long long>(tracer.dropped()));

  if (!options.trace_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options.trace_dir, ec);
    // One file per workload, overwritten by its next traced run.
    const std::string path =
        options.trace_dir + "/" + workload.name + ".spans.csv";
    if (ec || !tracer.write_csv(path)) {
      std::fprintf(stderr, "could not write spans to %s\n", path.c_str());
    }
  }
  const bool correct = measured.failed() == 0 &&
                       runner.warmup().failed() == 0 &&
                       setup.warmup_failed() == 0 && layers.ok &&
                       all_finite(metrics);
  emit(correct, measured, metrics);
  return 0;
}

}  // namespace
}  // namespace nfbench

int main(int argc, char** argv) {
  using namespace nfbench;  // NOLINT(google-build-using-namespace): main
  Options options;
  if (!parse_options(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: nfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-dir <dir>]\n");
    return 2;
  }
  const Workload* workload = find_workload(options.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  return options.trace ? run_traced(*workload, options)
                       : run_end_to_end(*workload, options);
}
