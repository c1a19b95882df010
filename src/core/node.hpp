// UniversalNode: the fully assembled NFV compute node of Figure 1 — one
// object wiring simulator, namespaces, NNF catalog, repository, resource
// ledgers, the four management drivers, the network manager and the local
// orchestrator. This is the main entry point of the library.
//
//   core::UniversalNode node(core::UniversalNodeConfig{});
//   auto report = node.orchestrator().deploy(graph);
//   node.inject("eth0", std::move(frame));
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "compute/manager.hpp"
#include "core/network_manager.hpp"
#include "exec/datapath_executor.hpp"
#include "exec/watchdog.hpp"
#include "core/orchestrator.hpp"
#include "core/repository.hpp"
#include "core/resolver.hpp"
#include "core/resource_manager.hpp"
#include "core/scheduler.hpp"
#include "netns/netns.hpp"
#include "nnf/catalog.hpp"
#include "nnf/marking.hpp"
#include "sim/simulator.hpp"

namespace nnfv::core {

struct UniversalNodeConfig {
  NodeCapacity capacity;
  std::vector<std::string> physical_ports = {"eth0", "eth1"};
  /// Backends to register drivers for; default all four of Figure 1.
  std::vector<virt::BackendKind> backends = {
      virt::BackendKind::kNative, virt::BackendKind::kDocker,
      virt::BackendKind::kDpdk, virt::BackendKind::kVm};
  bool builtin_nnf_plugins = true;   ///< load the CPE's native functions
  bool builtin_vnf_repository = true;
  /// Wrap NNF plugins in the generic-config translator and add the DHCP
  /// server (the paper's future-work configuration mechanism; see
  /// nnf/translator.hpp).
  bool generic_config_translation = false;
  /// Placement policy the scheduler uses (see core/scheduler.hpp).
  PlacementPolicyKind placement_policy = PlacementPolicyKind::kDefault;
  /// Datapath worker threads for node ingress (docs/datapath.md §6).
  /// 0 (default) keeps the historic inline path: inject() runs the LSI-0
  /// pipeline on the calling thread. N > 0 starts N run-to-completion
  /// workers; inject()/inject_burst() RSS-hash frames to them, and
  /// egress peers / sim-bound NF stations may then be invoked from
  /// worker threads (sim-bound work bounces via Simulator::post()).
  std::size_t datapath_workers = 0;
  /// Priority-aware load shedding at the datapath ingress (docs/
  /// datapath.md §7). Only meaningful with datapath_workers > 0.
  bool datapath_shed_enabled = false;
  /// Shedding watermarks (frames; 0 = executor defaults, see
  /// exec::DatapathExecutorConfig).
  std::size_t datapath_shed_high = 0;
  std::size_t datapath_shed_low = 0;
  std::size_t datapath_shed_hard = 0;
  /// Start the worker watchdog (docs/datapath.md §7). Only meaningful
  /// with datapath_workers > 0.
  bool datapath_watchdog = false;
  /// Watchdog stall threshold (see exec::WatchdogConfig).
  std::uint64_t datapath_stall_timeout_ms = 200;
};

class UniversalNode {
 public:
  explicit UniversalNode(UniversalNodeConfig config = {});

  // Non-copyable/movable: components hold pointers into each other.
  UniversalNode(const UniversalNode&) = delete;
  UniversalNode& operator=(const UniversalNode&) = delete;

  sim::Simulator& simulator() { return simulator_; }
  LocalOrchestrator& orchestrator() { return *orchestrator_; }
  NetworkManager& network() { return network_; }
  compute::ComputeManager& compute() { return compute_; }
  nnf::NnfCatalog& catalog() { return catalog_; }
  netns::NamespaceRegistry& namespaces() { return netns_; }
  nnf::MarkAllocator& marks() { return marks_; }
  ResourceManager& resources() { return resources_; }
  VnfRepository& repository() { return repository_; }

  /// Per-frame sink for a physical port's egress.
  using FrameSink = std::function<void(packet::PacketBuffer&&)>;

  /// External-world helpers (traffic sources/sinks attach here). inject()
  /// is a burst of 1 over inject_burst(); set_egress() hands `sink` each
  /// frame of every burst leaving `port`.
  util::Status inject(const std::string& port, packet::PacketBuffer&& frame);
  util::Status inject_burst(const std::string& port,
                            packet::PacketBurst&& burst);
  util::Status set_egress(const std::string& port, FrameSink sink);

  /// Node description JSON (REST: GET /node).
  [[nodiscard]] json::Value describe() const;

  /// Node health JSON (REST: GET /health): per-worker datapath state —
  /// heartbeat, occupancy, drops, sheds, stalls, restarts — plus mbuf
  /// pool accounting and watchdog counters. Works on the inline path
  /// too (status + pool stats, no workers).
  [[nodiscard]] json::Value health() const;

  /// The sharded-ingress executor, or nullptr when datapath_workers == 0.
  exec::DatapathExecutor* datapath() { return executor_.get(); }

  /// The worker watchdog, or nullptr unless datapath_watchdog was set.
  exec::Watchdog* watchdog() { return watchdog_.get(); }

  /// Blocks until all worker-submitted ingress frames have left the
  /// datapath (no-op on the inline path). Sim-bound continuations the
  /// workers posted still need a simulator().run*() afterwards.
  void drain_datapath();

 private:
  sim::Simulator simulator_;
  netns::NamespaceRegistry netns_;
  nnf::NnfCatalog catalog_;
  nnf::MarkAllocator marks_;
  ResourceManager resources_;
  VnfRepository repository_;
  NetworkManager network_;
  compute::ComputeManager compute_;
  VnfResolver resolver_;
  VnfScheduler scheduler_;
  std::unique_ptr<LocalOrchestrator> orchestrator_;
  /// Near-last member: workers must stop before the components they
  /// touch.
  std::unique_ptr<exec::DatapathExecutor> executor_;
  /// After executor_: the watchdog must stop before the executor its
  /// restart_worker() calls touch (destroyed first).
  std::unique_ptr<exec::Watchdog> watchdog_;
};

}  // namespace nnfv::core
