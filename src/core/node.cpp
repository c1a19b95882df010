#include "core/node.hpp"

#include "compute/generic_driver.hpp"
#include "compute/native_driver.hpp"
#include "nnf/translator.hpp"
#include "packet/mbuf.hpp"

namespace nnfv::core {

UniversalNode::UniversalNode(UniversalNodeConfig config)
    : catalog_(config.builtin_nnf_plugins
                   ? (config.generic_config_translation
                          ? nnf::translating_builtin_catalog()
                          : nnf::NnfCatalog::with_builtin_plugins())
                   : nnf::NnfCatalog{}),
      resources_(config.capacity),
      repository_(config.builtin_vnf_repository
                      ? VnfRepository::with_builtins()
                      : VnfRepository{}),
      resolver_(&repository_, &catalog_),
      scheduler_(make_policy(config.placement_policy)) {
  for (const std::string& port : config.physical_ports) {
    (void)network_.add_physical_port(port);
  }

  compute::DriverEnv generic_env;
  generic_env.simulator = &simulator_;
  generic_env.templates = &repository_.templates();
  generic_env.images = &repository_.images();
  generic_env.disk = &resources_.disk();
  generic_env.ram = &resources_.ram();

  compute::NativeDriverEnv native_env;
  native_env.simulator = &simulator_;
  native_env.catalog = &catalog_;
  native_env.netns = &netns_;
  native_env.marks = &marks_;
  native_env.ram = &resources_.ram();

  for (virt::BackendKind kind : config.backends) {
    if (kind == virt::BackendKind::kNative) {
      (void)compute_.register_driver(
          std::make_unique<compute::NativeDriver>(native_env));
    } else {
      (void)compute_.register_driver(
          std::make_unique<compute::GenericVnfDriver>(kind, generic_env));
    }
  }
  resources_.set_backends(compute_.backends());

  orchestrator_ = std::make_unique<LocalOrchestrator>(
      &compute_, &network_, &resolver_, &scheduler_, &resources_);

  if (config.datapath_workers > 0) {
    exec::DatapathExecutorConfig dp;
    dp.workers = config.datapath_workers;
    dp.shed_enabled = config.datapath_shed_enabled;
    dp.shed_high_watermark = config.datapath_shed_high;
    dp.shed_low_watermark = config.datapath_shed_low;
    dp.shed_hard_watermark = config.datapath_shed_hard;
    // The pipeline tag is the LSI-0 ingress PortId; each worker runs the
    // full classify -> NNF -> egress chain to completion on its core.
    executor_ = std::make_unique<exec::DatapathExecutor>(
        dp, [this](exec::WorkerContext&, std::uint32_t tag,
                   packet::PacketBurst&& burst) {
          network_.base_lsi().receive_burst(
              static_cast<nfswitch::PortId>(tag), std::move(burst));
        });
    if (config.datapath_watchdog) {
      exec::WatchdogConfig wd;
      wd.stall_timeout_ms = config.datapath_stall_timeout_ms;
      watchdog_ = std::make_unique<exec::Watchdog>(*executor_, wd);
    }
  }
}

util::Status UniversalNode::inject(const std::string& port,
                                   packet::PacketBuffer&& frame) {
  return inject_burst(port, packet::burst_of(std::move(frame)));
}

util::Status UniversalNode::inject_burst(const std::string& port,
                                         packet::PacketBurst&& burst) {
  if (executor_ != nullptr) {
    auto id = network_.physical_port(port);
    if (!id.is_ok()) return id.status();
    executor_->submit_burst(static_cast<std::uint32_t>(id.value()),
                            std::move(burst));
    return util::Status::ok();
  }
  return network_.inject_burst(port, std::move(burst));
}

void UniversalNode::drain_datapath() {
  if (executor_ != nullptr) executor_->drain();
}

util::Status UniversalNode::set_egress(const std::string& port,
                                       FrameSink sink) {
  return network_.set_physical_egress(
      port, [sink = std::move(sink)](packet::PacketBurst&& burst) {
        for (packet::PacketBuffer& frame : burst) sink(std::move(frame));
      });
}

json::Value UniversalNode::describe() const {
  json::Value doc = resources_.describe();
  json::Object& obj = doc.as_object();

  json::Array nnfs;
  for (const std::string& type : catalog_.types()) {
    json::Object entry;
    entry["functional_type"] = type;
    auto plugin = catalog_.plugin(type);
    if (plugin) {
      const nnf::NnfDescriptor& desc = plugin.value()->descriptor();
      entry["sharable"] = desc.sharable;
      entry["single_interface"] = desc.single_interface;
      entry["max_instances"] = static_cast<double>(desc.max_instances);
    }
    const nnf::NnfStatus* status = catalog_.status_of(type);
    if (status != nullptr) {
      entry["running_instances"] =
          static_cast<double>(status->running_instances);
      entry["serving_graphs"] = static_cast<double>(status->graphs.size());
    }
    nnfs.push_back(std::move(entry));
  }
  obj["native_functions"] = std::move(nnfs);

  json::Array images;
  for (const std::string& name : repository_.images().names()) {
    images.push_back(name);
  }
  obj["images"] = std::move(images);
  obj["lsi_count"] = static_cast<double>(network_.lsi_count());
  return doc;
}

json::Value UniversalNode::health() const {
  json::Object health;
  health["status"] = "ok";
  if (executor_ != nullptr) {
    health["datapath"] = executor_->describe_stats();
  } else {
    json::Object inline_path;
    inline_path["workers"] = 0;
    health["datapath"] = std::move(inline_path);
  }
  if (watchdog_ != nullptr) {
    json::Object wd;
    wd["stalls_detected"] = watchdog_->stalls_detected();
    wd["restarts_performed"] = watchdog_->restarts_performed();
    health["watchdog"] = std::move(wd);
  }
  const packet::MbufPoolStats pool = packet::MbufPool::global_stats();
  json::Object mbuf;
  mbuf["segment_allocs"] = pool.segment_allocs;
  mbuf["segment_frees"] = pool.segment_frees;
  mbuf["slab_allocs"] = pool.slab_allocs;
  mbuf["heap_allocs"] = pool.heap_allocs;
  mbuf["cross_worker_frees"] = pool.cross_worker_frees;
  health["mbuf_pool"] = std::move(mbuf);
  return json::Value(std::move(health));
}

}  // namespace nnfv::core
