// Sharded-datapath tests: the SPSC handoff ring, the RSS hash contract,
// worker-slot identity, the DatapathExecutor run-to-completion loop, and
// multi-worker runs of the stateful NFs (LSI classify, IPsec encap with a
// shared tunnel, NAT port slices and session churn) plus the UniversalNode
// wiring.
//
// These are the tests the TSan CI job pins (docs/datapath.md §6).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "core/node.hpp"
#include "exec/datapath_executor.hpp"
#include "exec/rss.hpp"
#include "exec/spsc_ring.hpp"
#include "exec/worker_slot.hpp"
#include "nnf/ipsec.hpp"
#include "nnf/nat.hpp"
#include "packet/builder.hpp"
#include "packet/flow_key.hpp"
#include "packet/headers.hpp"
#include "switch/lsi.hpp"

namespace nnfv {
namespace {

packet::PacketBuffer make_udp(std::uint32_t flow, std::uint16_t sport) {
  packet::UdpFrameSpec spec;
  spec.eth_src = packet::MacAddress::from_id(0x11);
  spec.eth_dst = packet::MacAddress::from_id(0x22);
  spec.ip_src = packet::Ipv4Address{0x0A000000u + flow};  // 10.0.x.x
  spec.ip_dst = *packet::Ipv4Address::parse("192.0.2.1");
  spec.src_port = sport;
  spec.dst_port = 4789;
  static const std::vector<std::uint8_t> payload(64, 0xAB);
  spec.payload = payload;
  return packet::build_udp_frame(spec);
}

// ---------------------------------------------------------------------------
// SpscRing
// ---------------------------------------------------------------------------

TEST(SpscRing, PushPopKeepsFifoOrder) {
  exec::SpscRing<int> ring(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(ring.push(int{i}));
  int out = -1;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(ring.pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(ring.pop(out));  // empty again
}

TEST(SpscRing, RejectsPushWhenFull) {
  exec::SpscRing<int> ring(4);
  std::size_t pushed = 0;
  while (ring.push(static_cast<int>(pushed))) ++pushed;
  EXPECT_EQ(pushed, ring.capacity());
  int out = -1;
  ASSERT_TRUE(ring.pop(out));
  EXPECT_EQ(out, 0);
  EXPECT_TRUE(ring.push(99));  // one slot freed
}

TEST(SpscRing, BatchOpsMoveWholeRuns) {
  exec::SpscRing<int> ring(16);
  std::vector<int> in{1, 2, 3, 4, 5, 6, 7};
  EXPECT_EQ(ring.push_batch(in.data(), in.size()), in.size());
  std::vector<int> out;
  EXPECT_EQ(ring.pop_batch(out, 4), 4u);
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(ring.pop_batch(out, 100), 3u);
  EXPECT_EQ(out.back(), 7);
}

TEST(SpscRing, WrapAroundSurvivesManyCycles) {
  exec::SpscRing<std::uint64_t> ring(4);
  std::uint64_t next_in = 0, next_out = 0;
  for (int cycle = 0; cycle < 1000; ++cycle) {
    while (ring.push(std::uint64_t{next_in})) ++next_in;
    std::uint64_t v = 0;
    while (ring.pop(v)) EXPECT_EQ(v, next_out++);
  }
  EXPECT_EQ(next_in, next_out);
}

TEST(SpscRing, CrossThreadTransfersEverythingInOrder) {
  exec::SpscRing<std::uint64_t> ring(64);
  constexpr std::uint64_t kCount = 200000;
  std::thread producer([&]() {
    for (std::uint64_t i = 0; i < kCount;) {
      if (ring.push(std::uint64_t{i})) ++i;
    }
  });
  std::uint64_t expected = 0;
  while (expected < kCount) {
    std::uint64_t v = 0;
    if (ring.pop(v)) {
      ASSERT_EQ(v, expected);
      ++expected;
    }
  }
  producer.join();
  EXPECT_TRUE(ring.empty_approx());
}

TEST(SpscRing, ProducerSizeTracksOccupancyAtBoundaries) {
  exec::SpscRing<int> ring(8);
  EXPECT_EQ(ring.producer_size(), 0u);
  // Fill to capacity: producer_size tracks exactly on the producer
  // thread with no concurrent consumer.
  for (std::size_t i = 0; i < ring.capacity(); ++i) {
    EXPECT_EQ(ring.producer_size(), i);
    ASSERT_TRUE(ring.push(static_cast<int>(i)));
  }
  EXPECT_EQ(ring.producer_size(), ring.capacity());
  EXPECT_FALSE(ring.push(-1));  // full: occupancy must not move
  EXPECT_EQ(ring.producer_size(), ring.capacity());
  int out = 0;
  while (ring.pop(out)) {
  }
  EXPECT_EQ(ring.producer_size(), 0u);
}

TEST(SpscRing, ProducerSizeSurvivesIndexWraparound) {
  exec::SpscRing<int> ring(4);
  // Run the head/tail indices far past the ring size so the masked
  // subtraction in producer_size() is exercised across wraps.
  int out = 0;
  for (int cycle = 0; cycle < 1000; ++cycle) {
    ASSERT_TRUE(ring.push(int{cycle}));
    ASSERT_TRUE(ring.push(int{cycle}));
    EXPECT_EQ(ring.producer_size(), 2u);
    ASSERT_TRUE(ring.pop(out));
    EXPECT_EQ(ring.producer_size(), 1u);
    ASSERT_TRUE(ring.pop(out));
    EXPECT_EQ(ring.producer_size(), 0u);
  }
}

TEST(SpscRing, ProducerSizeIsBoundedUnderConcurrentDrain) {
  // The shedding watermarks compare producer_size() against capacity,
  // so the one invariant that matters under concurrency: the estimate
  // never exceeds capacity (stale head only makes it an overestimate,
  // which errs toward shedding, never past the ring).
  exec::SpscRing<std::uint64_t> ring(64);
  constexpr std::uint64_t kCount = 50000;
  std::atomic<bool> done{false};
  std::thread consumer([&]() {
    std::uint64_t expected = 0;
    while (expected < kCount) {
      std::uint64_t v = 0;
      if (ring.pop(v)) {
        ASSERT_EQ(v, expected);
        ++expected;
      }
    }
    done.store(true);
  });
  for (std::uint64_t i = 0; i < kCount;) {
    const std::size_t occupancy = ring.producer_size();
    ASSERT_LE(occupancy, ring.capacity());
    if (ring.push(std::uint64_t{i})) ++i;
  }
  consumer.join();
  EXPECT_TRUE(done.load());
  EXPECT_EQ(ring.producer_size(), 0u);
}

// ---------------------------------------------------------------------------
// RSS hash
// ---------------------------------------------------------------------------

TEST(Rss, SameFlowAlwaysSameShard) {
  auto frame = make_udp(1, 5000);
  const std::uint64_t h1 = exec::rss_hash_frame(frame.data());
  const std::uint64_t h2 = exec::rss_hash_frame(frame.data());
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(exec::shard_for(h1, 4), exec::shard_for(h2, 4));
}

TEST(Rss, DistinctFlowsSpreadAcrossShards) {
  std::set<std::size_t> shards;
  for (std::uint32_t flow = 0; flow < 64; ++flow) {
    auto frame = make_udp(flow, static_cast<std::uint16_t>(5000 + flow));
    shards.insert(exec::shard_for(exec::rss_hash_frame(frame.data()), 4));
  }
  // 64 distinct tuples into 4 shards: every shard must be hit.
  EXPECT_EQ(shards.size(), 4u);
}

TEST(Rss, UndecodableFramesAllLandOnShardZero) {
  std::vector<std::uint8_t> runt(6, 0);
  EXPECT_EQ(exec::rss_hash_frame(runt), 0u);
  EXPECT_EQ(exec::shard_for(0, 4), 0u);
}

// ---------------------------------------------------------------------------
// Worker slots
// ---------------------------------------------------------------------------

TEST(WorkerSlot, ControlThreadIsSlotZero) {
  EXPECT_EQ(exec::current_worker_slot(), 0u);
  {
    exec::ScopedWorkerSlot scope(3);
    EXPECT_EQ(exec::current_worker_slot(), 3u);
    {
      exec::ScopedWorkerSlot inner(5);
      EXPECT_EQ(exec::current_worker_slot(), 5u);
    }
    EXPECT_EQ(exec::current_worker_slot(), 3u);
  }
  EXPECT_EQ(exec::current_worker_slot(), 0u);
}

// ---------------------------------------------------------------------------
// DatapathExecutor
// ---------------------------------------------------------------------------

TEST(DatapathExecutor, ProcessesEveryFrameExactlyOnce) {
  std::atomic<std::uint64_t> seen{0};
  exec::DatapathExecutorConfig config;
  config.workers = 4;
  exec::DatapathExecutor executor(
      config, [&](exec::WorkerContext&, std::uint32_t,
                  packet::PacketBurst&& burst) {
        seen.fetch_add(burst.size(), std::memory_order_relaxed);
      });
  constexpr std::size_t kFrames = 512;
  packet::PacketBurst burst;
  for (std::size_t i = 0; i < kFrames; ++i) {
    burst.push_back(make_udp(static_cast<std::uint32_t>(i % 32),
                             static_cast<std::uint16_t>(1000 + i % 32)));
  }
  EXPECT_EQ(executor.submit_burst(7, std::move(burst)), kFrames);
  executor.drain();
  EXPECT_EQ(seen.load(), kFrames);
  EXPECT_EQ(executor.total_processed(), kFrames);
  EXPECT_EQ(executor.ingress_drops(), 0u);
  std::uint64_t per_worker = 0;
  for (std::size_t w = 0; w < executor.worker_count(); ++w) {
    per_worker += executor.worker_stats(w).processed;
  }
  EXPECT_EQ(per_worker, kFrames);
}

TEST(DatapathExecutor, FlowsStickToOneWorker) {
  std::mutex mu;
  std::map<std::uint16_t, std::set<std::size_t>> flow_workers;
  exec::DatapathExecutorConfig config;
  config.workers = 4;
  exec::DatapathExecutor executor(
      config, [&](exec::WorkerContext& ctx, std::uint32_t,
                  packet::PacketBurst&& burst) {
        for (const auto& frame : burst) {
          auto eth = packet::parse_ethernet(frame.data());
          auto tuple = packet::extract_five_tuple(
              frame.data().subspan(eth->wire_size()));
          std::lock_guard<std::mutex> lock(mu);
          flow_workers[tuple->src_port].insert(ctx.index());
        }
      });
  packet::PacketBurst burst;
  for (int rep = 0; rep < 8; ++rep) {
    for (std::uint32_t flow = 0; flow < 16; ++flow) {
      burst.push_back(make_udp(flow, static_cast<std::uint16_t>(2000 + flow)));
    }
  }
  executor.submit_burst(0, std::move(burst));
  executor.drain();
  ASSERT_EQ(flow_workers.size(), 16u);
  std::set<std::size_t> used;
  for (const auto& [port, workers] : flow_workers) {
    // The RSS contract: one flow, one worker.
    EXPECT_EQ(workers.size(), 1u) << "flow port " << port;
    used.insert(*workers.begin());
  }
  EXPECT_GT(used.size(), 1u);  // 16 flows must not all collapse to one core
}

TEST(DatapathExecutor, PipelineRunsOnRegisteredWorkerSlot) {
  std::atomic<bool> slot_ok{true};
  exec::DatapathExecutorConfig config;
  config.workers = 2;
  exec::DatapathExecutor executor(
      config, [&](exec::WorkerContext& ctx, std::uint32_t,
                  packet::PacketBurst&&) {
        if (exec::current_worker_slot() != ctx.slot()) slot_ok = false;
        if (ctx.slot() != ctx.index() + 1) slot_ok = false;
      });
  packet::PacketBurst burst;
  for (std::uint32_t i = 0; i < 64; ++i) {
    burst.push_back(make_udp(i, static_cast<std::uint16_t>(3000 + i)));
  }
  executor.submit_burst(0, std::move(burst));
  executor.drain();
  EXPECT_TRUE(slot_ok.load());
}

TEST(DatapathExecutor, HandoffMovesFrameToTargetWorker) {
  constexpr std::uint32_t kIngressTag = 1;
  constexpr std::uint32_t kHandoffTag = 2;
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> hops;  // (from, at)
  exec::DatapathExecutorConfig config;
  config.workers = 3;
  exec::DatapathExecutor executor(
      config, [&](exec::WorkerContext& ctx, std::uint32_t tag,
                  packet::PacketBurst&& burst) {
        for (auto& frame : burst) {
          if (tag == kIngressTag) {
            const std::size_t target =
                (ctx.index() + 1) % ctx.worker_count();
            EXPECT_TRUE(
                ctx.handoff(target, kHandoffTag, std::move(frame)));
          } else {
            std::lock_guard<std::mutex> lock(mu);
            hops.emplace_back(tag, ctx.index());
          }
        }
      });
  packet::PacketBurst burst;
  for (std::uint32_t i = 0; i < 96; ++i) {
    burst.push_back(make_udp(i, static_cast<std::uint16_t>(4000 + i)));
  }
  executor.submit_burst(kIngressTag, std::move(burst));
  executor.drain();
  EXPECT_EQ(hops.size(), 96u);
  for (const auto& [tag, at] : hops) EXPECT_EQ(tag, kHandoffTag);
  std::uint64_t out = 0, in = 0;
  for (std::size_t w = 0; w < executor.worker_count(); ++w) {
    out += executor.worker_stats(w).handoff_out;
    in += executor.worker_stats(w).handoff_in;
  }
  EXPECT_EQ(out, 96u);
  EXPECT_EQ(in, 96u);
}

TEST(DatapathExecutor, SubmitToPinsFrameToChosenWorker) {
  std::atomic<std::uint64_t> on_target{0};
  exec::DatapathExecutorConfig config;
  config.workers = 4;
  exec::DatapathExecutor executor(
      config, [&](exec::WorkerContext& ctx, std::uint32_t,
                  packet::PacketBurst&& burst) {
        if (ctx.index() == 2) on_target += burst.size();
      });
  for (std::uint32_t i = 0; i < 32; ++i) {
    EXPECT_TRUE(executor.submit_to(2, 0, make_udp(i, 5000)));
  }
  executor.drain();
  EXPECT_EQ(on_target.load(), 32u);
}

// ---------------------------------------------------------------------------
// Multi-worker LSI classify (per-slot microflow caches)
// ---------------------------------------------------------------------------

TEST(ShardedDatapath, LsiClassifyFromFourWorkers) {
  nfswitch::Lsi lsi(0, "LSI-0");
  const nfswitch::PortId in = lsi.add_port("in").value();
  const nfswitch::PortId out_a = lsi.add_port("a").value();
  const nfswitch::PortId out_b = lsi.add_port("b").value();
  // Even flows (10.0.0.x, x even src port) to a, rest to b.
  nfswitch::FlowMatch even;
  even.ip_proto = packet::kIpProtoUdp;
  even.tp_dst = 4789;
  even.tp_src = 2000;  // overwritten per rule below
  for (std::uint16_t port = 2000; port < 2016; ++port) {
    nfswitch::FlowMatch match = even;
    match.tp_src = port;
    lsi.flow_table().add(
        10, match,
        {nfswitch::FlowAction::output(port % 2 == 0 ? out_a : out_b)});
  }
  std::atomic<std::uint64_t> got_a{0}, got_b{0};
  ASSERT_TRUE(lsi.set_port_peer(out_a, [&](packet::PacketBurst&& b) {
                got_a += b.size();
              }).is_ok());
  ASSERT_TRUE(lsi.set_port_peer(out_b, [&](packet::PacketBurst&& b) {
                got_b += b.size();
              }).is_ok());

  exec::DatapathExecutorConfig config;
  config.workers = 4;
  exec::DatapathExecutor executor(
      config, [&](exec::WorkerContext&, std::uint32_t tag,
                  packet::PacketBurst&& burst) {
        lsi.receive_burst(static_cast<nfswitch::PortId>(tag),
                          std::move(burst));
      });
  constexpr int kReps = 32;
  packet::PacketBurst burst;
  for (int rep = 0; rep < kReps; ++rep) {
    for (std::uint32_t flow = 0; flow < 16; ++flow) {
      burst.push_back(make_udp(flow, static_cast<std::uint16_t>(2000 + flow)));
    }
  }
  executor.submit_burst(in, std::move(burst));
  executor.drain();
  EXPECT_EQ(got_a.load(), 8u * kReps);
  EXPECT_EQ(got_b.load(), 8u * kReps);
  EXPECT_EQ(lsi.processed_packets(), 16u * kReps);
  EXPECT_EQ(lsi.port_stats(in)->rx_packets.load(), 16u * kReps);
}

TEST(ShardedDatapath, LinkedLsisClassifyFromFourWorkers) {
  // LSI-0 sends everything across a virtual link into a graph LSI, which
  // splits even and odd flows over two ports: every crossing composes, on
  // four workers at once, each with its own composed slots. The counters
  // of both hops must be exact after drain().
  nfswitch::Lsi base(0, "LSI-0");
  nfswitch::Lsi graph(1, "LSI-g");
  const nfswitch::PortId in = base.add_port("in").value();
  const nfswitch::PortId base_end = base.add_port("vl").value();
  const nfswitch::PortId graph_end = graph.add_port("vl").value();
  const nfswitch::PortId out_a = graph.add_port("a").value();
  const nfswitch::PortId out_b = graph.add_port("b").value();
  ASSERT_TRUE(base.link(base_end, graph, graph_end).is_ok());
  const nfswitch::FlowEntryId to_graph = base.flow_table().add(
      10, nfswitch::match_in_port(in),
      {nfswitch::FlowAction::output(base_end)});
  std::vector<nfswitch::FlowEntryId> graph_rules;
  for (std::uint16_t port = 2000; port < 2016; ++port) {
    nfswitch::FlowMatch match = nfswitch::match_in_port(graph_end);
    match.tp_src = port;
    graph_rules.push_back(graph.flow_table().add(
        10, match,
        {nfswitch::FlowAction::output(port % 2 == 0 ? out_a : out_b)}));
  }
  std::atomic<std::uint64_t> got_a{0}, got_b{0};
  ASSERT_TRUE(graph.set_port_peer(out_a, [&](packet::PacketBurst&& b) {
                got_a += b.size();
              }).is_ok());
  ASSERT_TRUE(graph.set_port_peer(out_b, [&](packet::PacketBurst&& b) {
                got_b += b.size();
              }).is_ok());

  exec::DatapathExecutorConfig config;
  config.workers = 4;
  exec::DatapathExecutor executor(
      config, [&](exec::WorkerContext&, std::uint32_t tag,
                  packet::PacketBurst&& burst) {
        base.receive_burst(static_cast<nfswitch::PortId>(tag),
                           std::move(burst));
      });
  constexpr int kReps = 32;
  std::uint64_t bytes = 0;
  packet::PacketBurst burst;
  for (int rep = 0; rep < kReps; ++rep) {
    for (std::uint32_t flow = 0; flow < 16; ++flow) {
      burst.push_back(make_udp(flow, static_cast<std::uint16_t>(2000 + flow)));
      bytes += burst.back().size();
    }
  }
  executor.submit_burst(in, std::move(burst));
  executor.drain();
  constexpr std::uint64_t kFrames = 16u * kReps;
  EXPECT_EQ(got_a.load(), kFrames / 2);
  EXPECT_EQ(got_b.load(), kFrames / 2);
  EXPECT_EQ(base.processed_packets(), kFrames);
  EXPECT_EQ(graph.processed_packets(), kFrames);
  EXPECT_EQ(base.port_stats(base_end)->tx_packets.load(), kFrames);
  EXPECT_EQ(base.port_stats(base_end)->tx_bytes.load(), bytes);
  EXPECT_EQ(graph.port_stats(graph_end)->rx_packets.load(), kFrames);
  EXPECT_EQ(graph.port_stats(graph_end)->rx_bytes.load(), bytes);
  EXPECT_EQ(graph.port_stats(graph_end)->rx_bulk.load(), kFrames);
  EXPECT_EQ(graph.port_stats(out_a)->tx_packets.load() +
                graph.port_stats(out_b)->tx_packets.load(),
            kFrames);
  EXPECT_EQ(base.flow_table().find(to_graph)->stats.packets.load(), kFrames);
  std::uint64_t graph_bytes = 0;
  for (nfswitch::FlowEntryId id : graph_rules) {
    EXPECT_EQ(graph.flow_table().find(id)->stats.packets.load(),
              static_cast<std::uint64_t>(kReps));
    graph_bytes += graph.flow_table().find(id)->stats.bytes.load();
  }
  EXPECT_EQ(graph_bytes, bytes);
  for (const nfswitch::FlowTable* table :
       {&base.flow_table(), &graph.flow_table()}) {
    EXPECT_EQ(table->cache_lookups(), kFrames);
    EXPECT_EQ(table->misses(), 0u);
    EXPECT_GT(table->cache_hits(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Multi-worker IPsec: shared tunnel, unique sequence numbers
// ---------------------------------------------------------------------------

constexpr const char* kEncKey = "000102030405060708090a0b0c0d0e0f";
constexpr const char* kAuthKey =
    "202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f";

nnf::NfConfig tunnel_config(const char* local, const char* peer,
                            const char* spi_out, const char* spi_in) {
  return {{"local_ip", local},   {"peer_ip", peer}, {"spi_out", spi_out},
          {"spi_in", spi_in},    {"enc_key", kEncKey},
          {"auth_key", kAuthKey}};
}

std::uint32_t esp_sequence(const packet::PacketBuffer& frame) {
  auto eth = packet::parse_ethernet(frame.data());
  auto esp =
      packet::parse_esp(frame.data().subspan(eth->wire_size() + 20));
  return esp->sequence;
}

TEST(ShardedDatapath, SharedTunnelClaimsUniqueEspSequences) {
  nnf::IpsecEndpoint initiator;
  ASSERT_TRUE(initiator
                  .configure(nnf::kDefaultContext,
                             tunnel_config("198.51.100.1", "198.51.100.2",
                                           "1001", "2002"))
                  .is_ok());
  std::mutex mu;
  packet::PacketBurst encrypted;
  exec::DatapathExecutorConfig config;
  config.workers = 4;
  exec::DatapathExecutor executor(
      config, [&](exec::WorkerContext&, std::uint32_t,
                  packet::PacketBurst&& burst) {
        auto outs = initiator.process_burst(nnf::kDefaultContext, 0, 0,
                                            std::move(burst));
        std::lock_guard<std::mutex> lock(mu);
        for (auto& out : outs) encrypted.push_back(std::move(out.frame));
      });
  constexpr std::size_t kFrames = 256;
  packet::PacketBurst burst;
  for (std::size_t i = 0; i < kFrames; ++i) {
    burst.push_back(make_udp(static_cast<std::uint32_t>(i % 32),
                             static_cast<std::uint16_t>(6000 + i % 32)));
  }
  executor.submit_burst(0, std::move(burst));
  executor.drain();

  ASSERT_EQ(encrypted.size(), kFrames);
  EXPECT_EQ(initiator.stats().encapsulated, kFrames);
  std::set<std::uint32_t> seqs;
  for (const auto& frame : encrypted) seqs.insert(esp_sequence(frame));
  // The atomic claim in encapsulate: no two workers share a sequence.
  EXPECT_EQ(seqs.size(), kFrames);

  // Replay the ciphertext in sequence order through the responder: every
  // frame decapsulates (ordered arrival never trips the replay window).
  nnf::IpsecEndpoint responder;
  ASSERT_TRUE(responder
                  .configure(nnf::kDefaultContext,
                             tunnel_config("198.51.100.2", "198.51.100.1",
                                           "2002", "1001"))
                  .is_ok());
  std::sort(encrypted.begin(), encrypted.end(),
            [](const packet::PacketBuffer& a, const packet::PacketBuffer& b) {
              return esp_sequence(a) < esp_sequence(b);
            });
  std::size_t decapsulated = 0;
  for (auto& frame : encrypted) {
    decapsulated += responder
                        .process(nnf::kDefaultContext, 1, 0, std::move(frame))
                        .size();
  }
  EXPECT_EQ(decapsulated, kFrames);
}

TEST(ShardedDatapath, RekeyUnderTrafficLosesNothing) {
  nnf::IpsecEndpoint initiator;
  nnf::NfConfig base = tunnel_config("198.51.100.1", "198.51.100.2", "1001",
                                     "2002");
  base["life_soft_packets"] = "100";  // cut over mid-run
  ASSERT_TRUE(initiator.configure(nnf::kDefaultContext, base).is_ok());

  std::atomic<std::uint64_t> out_frames{0};
  exec::DatapathExecutorConfig config;
  config.workers = 4;
  exec::DatapathExecutor executor(
      config, [&](exec::WorkerContext&, std::uint32_t,
                  packet::PacketBurst&& burst) {
        auto outs = initiator.process_burst(nnf::kDefaultContext, 0, 0,
                                            std::move(burst));
        out_frames.fetch_add(outs.size(), std::memory_order_relaxed);
      });

  constexpr std::size_t kFrames = 400;
  packet::PacketBurst first_half, second_half;
  for (std::size_t i = 0; i < kFrames; ++i) {
    auto frame = make_udp(static_cast<std::uint32_t>(i % 16),
                          static_cast<std::uint16_t>(7000 + i % 16));
    (i < kFrames / 2 ? first_half : second_half).push_back(std::move(frame));
  }
  executor.submit_burst(0, std::move(first_half));
  // Stage the rekey from the control thread while workers are encrypting:
  // configure() takes the endpoint's writer lock against the fast path.
  ASSERT_TRUE(initiator
                  .configure(nnf::kDefaultContext,
                             {{"rekey_spi_out", "1003"},
                              {"rekey_spi_in", "2004"},
                              {"rekey_enc_key",
                               "f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff"},
                              {"rekey_auth_key",
                               "606162636465666768696a6b6c6d6e6f"
                               "707172737475767778797a7b7c7d7e7f"}})
                  .is_ok());
  executor.submit_burst(0, std::move(second_half));
  executor.drain();

  // Make-before-break: every offered frame leaves encrypted, none dropped
  // in the cutover window.
  EXPECT_EQ(out_frames.load(), kFrames);
  EXPECT_EQ(initiator.stats().encapsulated, kFrames);
  EXPECT_EQ(initiator.stats().rekeys_started, 1u);
  EXPECT_EQ(initiator.stats().rekeys_completed, 1u);
}

// ---------------------------------------------------------------------------
// Multi-worker NAT: per-slot port slices
// ---------------------------------------------------------------------------

TEST(ShardedDatapath, NatWorkersAllocateFromDisjointSlices) {
  nnf::Nat nat;
  ASSERT_TRUE(
      nat.configure(nnf::kDefaultContext, {{"external_ip", "203.0.113.1"}})
          .is_ok());
  nat.set_worker_count(4);

  std::mutex mu;
  std::set<std::uint16_t> external_ports;
  exec::DatapathExecutorConfig config;
  config.workers = 4;
  exec::DatapathExecutor executor(
      config, [&](exec::WorkerContext&, std::uint32_t,
                  packet::PacketBurst&& burst) {
        auto outs = nat.process_burst(nnf::kDefaultContext, 0, 0,
                                      std::move(burst));
        std::lock_guard<std::mutex> lock(mu);
        for (const auto& out : outs) {
          auto eth = packet::parse_ethernet(out.frame.data());
          auto tuple = packet::extract_five_tuple(
              out.frame.data().subspan(eth->wire_size()));
          external_ports.insert(tuple->src_port);
        }
      });
  constexpr std::uint32_t kFlows = 128;
  packet::PacketBurst burst;
  for (std::uint32_t flow = 0; flow < kFlows; ++flow) {
    burst.push_back(
        make_udp(flow, static_cast<std::uint16_t>(10000 + flow)));
  }
  executor.submit_burst(0, std::move(burst));
  executor.drain();

  // Every flow got its own session and its own external port; slices
  // guarantee two workers never hand out the same port concurrently.
  EXPECT_EQ(nat.session_count(nnf::kDefaultContext), kFlows);
  EXPECT_EQ(external_ports.size(), kFlows);
}

TEST(ShardedDatapath, NatChurnFromFourWorkers) {
  // Four workers share one NAT context with a 1 ms idle timeout. Each
  // round (0.3 ms apart) 32 long-lived flows hit their sessions and 96
  // short flows open sessions that are never used again, so every fourth
  // round a sweep evicts hundreds of them while other workers
  // wait on the context's lock or probe the indexes for hits. Every
  // flow has its own server port, which the translation keeps, so an
  // output names its flow.
  nnf::Nat nat;
  ASSERT_TRUE(nat.configure(nnf::kDefaultContext,
                            {{"external_ip", "203.0.113.1"},
                             {"idle_timeout_ms", "1"}})
                  .is_ok());
  nat.set_worker_count(4);
  std::atomic<sim::SimTime> now{0};
  std::mutex mu;
  std::map<std::uint16_t, std::uint16_t> round_ports;  ///< flow -> port
  std::size_t round_outputs = 0;
  exec::DatapathExecutorConfig config;
  config.workers = 4;
  exec::DatapathExecutor executor(
      config, [&](exec::WorkerContext&, std::uint32_t,
                  packet::PacketBurst&& burst) {
        auto outs = nat.process_burst(nnf::kDefaultContext, 0, now.load(),
                                      std::move(burst));
        std::lock_guard<std::mutex> lock(mu);
        for (const auto& out : outs) {
          auto eth = packet::parse_ethernet(out.frame.data());
          auto tuple = packet::extract_five_tuple(
              out.frame.data().subspan(eth->wire_size()));
          round_ports[tuple->dst_port] = tuple->src_port;
          ++round_outputs;
        }
      });
  auto flow_frame = [](std::uint32_t flow) {
    packet::UdpFrameSpec spec;
    spec.ip_src = packet::Ipv4Address{0x0A010000u + flow};
    spec.ip_dst = *packet::Ipv4Address::parse("192.0.2.1");
    spec.src_port = static_cast<std::uint16_t>(5000 + flow % 7);
    spec.dst_port = static_cast<std::uint16_t>(1 + flow);  // names the flow
    static const std::vector<std::uint8_t> payload(18, 0x5A);
    spec.payload = payload;
    return packet::build_udp_frame(spec);
  };
  constexpr std::uint32_t kLong = 32;
  constexpr std::uint32_t kShort = 96;
  constexpr int kRounds = 40;
  std::map<std::uint16_t, std::uint16_t> long_ports;
  for (int round = 0; round < kRounds; ++round) {
    now.store(round * 300 * sim::kMicrosecond);
    packet::PacketBurst burst;
    for (std::uint32_t i = 0; i < kShort; ++i) {
      burst.push_back(flow_frame(kLong + kShort * round + i));
      if (i % 3 == 0) burst.push_back(flow_frame(i / 3));  // a long flow
    }
    round_ports.clear();
    round_outputs = 0;
    executor.submit_burst(0, std::move(burst));
    executor.drain();

    // All of a round's sessions are live together: distinct flows hold
    // distinct ports, and a long flow keeps its port across rounds.
    ASSERT_EQ(round_outputs, kLong + kShort) << "round " << round;
    ASSERT_EQ(round_ports.size(), kLong + kShort);
    std::set<std::uint16_t> ports;
    for (const auto& [flow, port] : round_ports) ports.insert(port);
    EXPECT_EQ(ports.size(), round_ports.size()) << "round " << round;
    for (std::uint16_t flow = 1; flow <= kLong; ++flow) {
      auto [it, first] = long_ports.try_emplace(flow, round_ports[flow]);
      EXPECT_EQ(it->second, round_ports[flow])
          << "long flow " << flow << " round " << round;
    }
    EXPECT_EQ(nat.ports_in_use(nnf::kDefaultContext),
              nat.session_count(nnf::kDefaultContext));
  }
  // A sweep runs every fourth round (1.2 ms) and keeps the four newest
  // rounds of short flows; three more rounds came after the last one.
  EXPECT_EQ(nat.session_count(nnf::kDefaultContext), kLong + 7 * kShort);
}

// ---------------------------------------------------------------------------
// UniversalNode wiring
// ---------------------------------------------------------------------------

TEST(ShardedDatapath, NodeRoutesIngressThroughWorkers) {
  core::UniversalNodeConfig config;
  config.datapath_workers = 2;
  core::UniversalNode node(config);
  ASSERT_NE(node.datapath(), nullptr);
  EXPECT_EQ(node.datapath()->worker_count(), 2u);

  // eth0 -> eth1 passthrough rule on LSI-0.
  auto& lsi = node.network().base_lsi();
  const nfswitch::PortId eth0 = node.network().physical_port("eth0").value();
  const nfswitch::PortId eth1 = node.network().physical_port("eth1").value();
  nfswitch::FlowMatch from_eth0;
  from_eth0.in_port = eth0;
  lsi.flow_table().add(1, from_eth0, {nfswitch::FlowAction::output(eth1)});

  std::atomic<std::uint64_t> egress{0};
  ASSERT_TRUE(node.set_egress("eth1", [&](packet::PacketBuffer&&) {
                    egress.fetch_add(1, std::memory_order_relaxed);
                  }).is_ok());

  constexpr std::size_t kFrames = 128;
  packet::PacketBurst burst;
  for (std::size_t i = 0; i < kFrames; ++i) {
    burst.push_back(make_udp(static_cast<std::uint32_t>(i % 8),
                             static_cast<std::uint16_t>(8000 + i % 8)));
  }
  ASSERT_TRUE(node.inject_burst("eth0", std::move(burst)).is_ok());
  ASSERT_TRUE(node.inject("eth0", make_udp(0, 8000)).is_ok());
  node.drain_datapath();

  EXPECT_EQ(egress.load(), kFrames + 1);
  EXPECT_EQ(node.datapath()->total_processed(), kFrames + 1);
  EXPECT_EQ(node.inject_burst("missing", {}).is_ok(), false);
}

TEST(ShardedDatapath, NodeDefaultStaysInline) {
  core::UniversalNode node;  // datapath_workers = 0
  EXPECT_EQ(node.datapath(), nullptr);
  node.drain_datapath();  // no-op, must not crash
}

}  // namespace
}  // namespace nnfv
