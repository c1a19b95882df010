// Experiment: goodput under overload with priority-aware shedding.
//
// An unprotected run-to-completion datapath collapses under overload:
// every frame admitted past capacity steals pipeline cycles from frames
// that could still complete, so goodput falls as offered load rises
// past saturation. The shedding path (datapath_executor.cpp,
// should_shed) drops bulk frames at submit — before any classify/crypto
// work is invested — once a shard's ingress occupancy crosses the high
// watermark, while control frames (here: DHCP) are admitted until the
// hard watermark.
//
// Phase 1 measures saturation goodput: 2 workers, backpressure
// submission (block_on_full), classify -> ESP encap to completion.
// Phase 2 offers 1x, 2x and 4x that rate, paced, with shedding on and
// backpressure off; the traffic is ~90% bulk (32 UDP flows) + ~10%
// control (DHCP).
//
// Acceptance (>= 4 cores, non-smoke): goodput at 2x offered load stays
// >= 85% of saturation — overload sheds cheap, not expensive — and the
// control share survives while bulk is shed (shed_control == 0,
// shed_bulk > 0 at 2x). The 2x ratio is trend-gated via
// bench/baseline.json as overload_2x.speedup_vs_saturation; the 1x and
// 4x points are curve context (see EXCLUDED_METRICS in
// scripts/regen_baseline.py).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "exec/datapath_executor.hpp"
#include "nnf/ipsec.hpp"
#include "packet/mbuf.hpp"
#include "switch/flow_action.hpp"
#include "switch/lsi.hpp"
#include "traffic/source.hpp"

namespace {

using namespace nnfv;  // NOLINT(google-build-using-namespace): bench

constexpr const char* kEncKey = "000102030405060708090a0b0c0d0e0f";
constexpr const char* kAuthKey =
    "202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f";

/// Collects exactly `count` frames from a UdpSource into `pool`.
void collect_frames(packet::PacketBurst& pool, std::size_t count,
                    std::uint16_t src_port_base, std::uint16_t dst_port,
                    std::size_t flow_count) {
  sim::Simulator simulator;
  traffic::UdpSourceConfig config;
  config.packets_per_second = 1e6;  // 1 us apart: sim time is free
  config.payload_bytes = 256;
  config.src_port = src_port_base;
  config.dst_port = dst_port;
  config.flow_count = flow_count;
  config.stop = static_cast<sim::SimTime>(count) * sim::kMicrosecond;
  traffic::UdpSource source(simulator, config,
                            [&](packet::PacketBuffer&& frame) {
                              pool.push_back(std::move(frame));
                            });
  source.begin();
  simulator.run();
}

/// ~90% bulk (32 UDP flows) interleaved 9:1 with DHCP control frames
/// (src 68 -> dst 67, which classify_priority tags kControl).
packet::PacketBurst make_pool(std::size_t frames) {
  packet::PacketBurst bulk, control, pool;
  collect_frames(bulk, frames * 9 / 10, 40000, 5001, 32);
  collect_frames(control, frames - bulk.size(), 68, 67, 1);
  pool.reserve(frames);
  std::size_t b = 0, c = 0;
  while (b < bulk.size() || c < control.size()) {
    for (int i = 0; i < 9 && b < bulk.size(); ++i) {
      pool.push_back(std::move(bulk[b++]));
    }
    if (c < control.size()) pool.push_back(std::move(control[c++]));
  }
  return pool;
}

packet::PacketBurst copy_burst(const packet::PacketBurst& pool) {
  packet::PacketBurst out;
  out.reserve(pool.size());
  for (const packet::PacketBuffer& frame : pool) out.push_back(frame.copy());
  return out;
}

/// The classify -> ESP encap pipeline shared by every load point.
struct EncapPipeline {
  nnf::IpsecEndpoint tunnel;
  nfswitch::Lsi lsi{0, "LSI-0"};
  nfswitch::PortId in = 0;

  bool init() {
    const nnf::NfConfig config = {
        {"local_ip", "198.51.100.1"}, {"peer_ip", "198.51.100.2"},
        {"spi_out", "1001"},          {"spi_in", "2002"},
        {"enc_key", kEncKey},         {"auth_key", kAuthKey}};
    if (!tunnel.configure(nnf::kDefaultContext, config).is_ok()) return false;
    in = lsi.add_port("eth0").value();
    const nfswitch::PortId out = lsi.add_port("eth1").value();
    nfswitch::FlowMatch any;
    lsi.flow_table().add(1, any, {nfswitch::FlowAction::output(out)});
    (void)lsi.set_port_peer(out, [this](packet::PacketBurst&& burst) {
      auto outs = tunnel.process_burst(nnf::kDefaultContext, 0, 0,
                                       std::move(burst));
      bench::do_not_optimize(outs.size());
    });
    return true;
  }
};

struct LoadResult {
  double offered_pps = 0.0;
  double goodput_pps = 0.0;
  std::uint64_t offered = 0;
  std::uint64_t processed = 0;
  std::uint64_t shed_bulk = 0;
  std::uint64_t shed_control = 0;
  std::uint64_t ingress_drops = 0;
};

/// Saturation goodput: backpressure submission, no shedding — the
/// pipeline's maximum sustainable rate over this pool.
double run_saturation(const packet::PacketBurst& pool, std::size_t workers,
                      double budget_ms) {
  EncapPipeline pipeline;
  if (!pipeline.init()) return 0.0;
  exec::DatapathExecutorConfig dp;
  dp.workers = workers;
  exec::DatapathExecutor executor(
      dp, [&](exec::WorkerContext&, std::uint32_t tag,
              packet::PacketBurst&& burst) {
        pipeline.lsi.receive_burst(static_cast<nfswitch::PortId>(tag),
                                   std::move(burst));
      });
  using Clock = std::chrono::steady_clock;
  // Warmup round grows the mbuf pools to the working set.
  executor.submit_burst(pipeline.in, copy_burst(pool));
  executor.drain();
  std::uint64_t frames = 0;
  double elapsed_ms = 0.0;
  while (elapsed_ms < budget_ms) {
    packet::PacketBurst round = copy_burst(pool);
    const auto start = Clock::now();
    executor.submit_burst(pipeline.in, std::move(round));
    executor.drain();
    elapsed_ms +=
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    frames += pool.size();
  }
  executor.stop();
  return elapsed_ms > 0.0
             ? static_cast<double>(frames) * 1e3 / elapsed_ms
             : 0.0;
}

/// Offered-load point: submission paced at `offered_pps` with shedding
/// on and backpressure off; goodput is what the workers processed.
LoadResult run_offered(const packet::PacketBurst& pool, std::size_t workers,
                       double offered_pps, double budget_ms) {
  EncapPipeline pipeline;
  LoadResult result;
  if (!pipeline.init() || offered_pps <= 0.0) return result;
  exec::DatapathExecutorConfig dp;
  dp.workers = workers;
  dp.block_on_full = false;
  dp.shed_enabled = true;
  exec::DatapathExecutor executor(
      dp, [&](exec::WorkerContext&, std::uint32_t tag,
              packet::PacketBurst&& burst) {
        pipeline.lsi.receive_burst(static_cast<nfswitch::PortId>(tag),
                                   std::move(burst));
      });
  using Clock = std::chrono::steady_clock;
  executor.submit_burst(pipeline.in, copy_burst(pool));
  executor.drain();
  const std::uint64_t processed_start = executor.total_processed();

  // Pace in pool-sized rounds: round i's submission may not start
  // before start + i * pool_period. Submitting a round takes well under
  // a period (shedding is the point), so the offered rate holds.
  const std::chrono::duration<double> pool_period(
      static_cast<double>(pool.size()) / offered_pps);
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration<double, std::milli>(budget_ms);
  std::size_t round = 0;
  while (Clock::now() < deadline) {
    packet::PacketBurst copy = copy_burst(pool);
    std::this_thread::sleep_until(
        start + pool_period * static_cast<double>(round));
    executor.submit_burst(pipeline.in, std::move(copy));
    result.offered += pool.size();
    ++round;
  }
  executor.drain();
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start)
          .count();
  result.processed = executor.total_processed() - processed_start;
  for (std::size_t w = 0; w < executor.worker_count(); ++w) {
    const exec::WorkerStats stats = executor.worker_stats(w);
    result.shed_bulk += stats.shed_bulk;
    result.shed_control += stats.shed_control;
    result.ingress_drops += stats.ingress_drops;
  }
  executor.stop();
  if (elapsed_ms > 0.0) {
    result.offered_pps =
        static_cast<double>(result.offered) * 1e3 / elapsed_ms;
    result.goodput_pps =
        static_cast<double>(result.processed) * 1e3 / elapsed_ms;
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_cli(argc, argv);
  bench::JsonReport report("bench_overload");
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  report.set_num_field("cpus", cpus);

  constexpr std::size_t kWorkers = 2;
  const std::size_t pool_frames = bench::smoke_mode() ? 256 : 4096;
  const double budget_ms = bench::smoke_mode() ? 2.0 : 500.0;

  const packet::PacketBurst pool = make_pool(pool_frames);
  std::printf("=== overload goodput (classify -> ESP encap, %zu workers, "
              "%u hardware threads) ===\n\n", kWorkers, cpus);

  const double sat_pps = run_saturation(pool, kWorkers, budget_ms);
  std::printf("%-12s %14s %14s %10s %12s %12s\n", "point", "offered/s",
              "goodput/s", "vs sat", "shed_bulk", "shed_ctrl");
  std::printf("%-12s %14s %14.0f %9.2fx %12s %12s\n", "saturation", "-",
              sat_pps, 1.0, "-", "-");
  report.add_metric("saturation", "pps", sat_pps);

  double goodput_ratio_2x = 0.0;
  std::uint64_t shed_bulk_2x = 0, shed_control_2x = 0;
  for (const double multiple : {1.0, 2.0, 4.0}) {
    const LoadResult r =
        run_offered(pool, kWorkers, sat_pps * multiple, budget_ms);
    const double ratio = sat_pps > 0.0 ? r.goodput_pps / sat_pps : 0.0;
    char name[32];
    std::snprintf(name, sizeof(name), "overload_%.0fx", multiple);
    std::printf("%-12s %14.0f %14.0f %9.2fx %12llu %12llu\n", name,
                r.offered_pps, r.goodput_pps, ratio,
                static_cast<unsigned long long>(r.shed_bulk),
                static_cast<unsigned long long>(r.shed_control));
    auto& entry = report.add(name, r.offered,
                             r.goodput_pps > 0.0 ? 1e9 / r.goodput_pps : 0.0);
    entry.extra.emplace_back("offered_pps", r.offered_pps);
    entry.extra.emplace_back("goodput_pps", r.goodput_pps);
    entry.extra.emplace_back("speedup_vs_saturation", ratio);
    entry.extra.emplace_back("shed_bulk", static_cast<double>(r.shed_bulk));
    entry.extra.emplace_back("shed_control",
                             static_cast<double>(r.shed_control));
    entry.extra.emplace_back("ingress_drops",
                             static_cast<double>(r.ingress_drops));
    if (multiple == 2.0) {
      goodput_ratio_2x = ratio;
      shed_bulk_2x = r.shed_bulk;
      shed_control_2x = r.shed_control;
    }
  }

  std::printf("\nacceptance: goodput at 2x offered load %.2fx of saturation "
              "(target >= 0.85 on >= 4 cores), control shed at 2x %llu "
              "(target 0), bulk shed at 2x %llu (target > 0)\n\n",
              goodput_ratio_2x,
              static_cast<unsigned long long>(shed_control_2x),
              static_cast<unsigned long long>(shed_bulk_2x));
  report.emit();
  if (!bench::gates_enabled()) return 0;  // smoke / unoptimised build
  if (cpus < 4) return 0;  // submit thread + 2 workers need their own cores
  if (goodput_ratio_2x < 0.85) return 1;
  if (shed_control_2x != 0) return 1;  // control must survive overload
  if (shed_bulk_2x == 0) return 1;     // 2x offered load must actually shed
  return 0;
}
