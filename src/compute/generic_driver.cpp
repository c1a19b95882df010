#include "compute/generic_driver.hpp"

#include "util/logging.hpp"

namespace nnfv::compute {

using util::Result;
using util::Status;

namespace {

/// Figure 1's name for the driver of each generic backend.
std::string_view driver_name(virt::BackendKind kind) {
  switch (kind) {
    case virt::BackendKind::kVm:
      return "libvirt";
    case virt::BackendKind::kDocker:
      return "docker";
    case virt::BackendKind::kDpdk:
      return "dpdk";
    case virt::BackendKind::kNative:
      break;
  }
  return "generic";
}

}  // namespace

GenericVnfDriver::GenericVnfDriver(virt::BackendKind kind, DriverEnv env)
    : kind_(kind), name_(driver_name(kind)), env_(env) {}

bool GenericVnfDriver::can_deploy(const std::string& functional_type) const {
  return env_.templates != nullptr && env_.templates->has(functional_type) &&
         env_.images != nullptr &&
         env_.images->contains(default_image(functional_type));
}

std::string GenericVnfDriver::default_image(
    const std::string& functional_type) const {
  return functional_type + ":" + std::string(virt::backend_name(kind_));
}

Result<DeployedNf> GenericVnfDriver::deploy(const NfDeploySpec& spec,
                                            nfswitch::Lsi& lsi) {
  auto tmpl = env_.templates->find(spec.functional_type);
  if (!tmpl) return tmpl.status();

  const std::string image_name =
      spec.image.empty() ? default_image(spec.functional_type) : spec.image;
  auto image = env_.images->find(image_name);
  if (!image) return image.status();

  // Resources first, so failure leaves no partial state.
  NNFV_RETURN_IF_ERROR(env_.disk->install(image.value()));
  const std::uint64_t ram = virt::instance_ram(kind_, tmpl->memory);
  if (!env_.ram->reserve(ram)) {
    env_.disk->remove(image.value());
    return util::resource_exhausted(
        "RAM: instance needs " + std::to_string(ram) + " bytes, " +
        std::to_string(env_.ram->available()) + " available");
  }

  auto function = tmpl->factory();
  if (!function) {
    env_.ram->release(ram);
    env_.disk->remove(image.value());
    return function.status();
  }

  const InstanceId iid = next_instance_++;
  const std::string instance_name =
      spec.graph_id + "/" + spec.nf_id + "@" + std::string(name_);
  auto instance = std::make_shared<NfInstance>(
      iid, instance_name, std::move(function.value()),
      virt::CostModel(kind_, tmpl->compute), *env_.simulator);

  if (!spec.config.empty()) {
    Status config_status =
        instance->function().configure(nnf::kDefaultContext, spec.config);
    if (!config_status.is_ok()) {
      env_.ram->release(ram);
      env_.disk->remove(image.value());
      return config_status;
    }
  }

  // Attach: one LSI port per logical NF port, wired both ways.
  DeployedNf deployed;
  deployed.graph_id = spec.graph_id;
  deployed.nf_id = spec.nf_id;
  deployed.functional_type = spec.functional_type;
  deployed.backend = kind_;
  deployed.instance = iid;
  deployed.context = nnf::kDefaultContext;
  deployed.ram_bytes = ram;
  deployed.image_bytes = image->total_size();
  deployed.boot_time = virt::backend_cost(kind_).boot_ns;

  Record record;
  record.instance = instance;
  record.lsi = &lsi;
  record.image = image.value();
  record.ram_bytes = ram;

  const std::uint32_t ports =
      spec.num_ports == 0 ? tmpl->num_ports : spec.num_ports;
  for (std::uint32_t p = 0; p < ports; ++p) {
    auto port = lsi.add_port(spec.nf_id + ":" + std::to_string(p));
    if (!port) {
      for (nfswitch::PortId created : record.lsi_ports) {
        (void)lsi.remove_port(created);
      }
      env_.ram->release(ram);
      env_.disk->remove(image.value());
      return port.status();
    }
    record.lsi_ports.push_back(port.value());
    deployed.ports.push_back(PortAttachment{port.value(), std::nullopt});
  }
  attach_ports(instance, nnf::kDefaultContext, lsi, record.lsi_ports);

  NNFV_RETURN_IF_ERROR(instance->start());
  instances_[iid] = std::move(record);
  NNFV_LOG(kInfo, "compute") << name_ << ": deployed " << instance_name
                             << " (image " << image_name << ")";
  return deployed;
}

Status GenericVnfDriver::update(const DeployedNf& deployed,
                                const nnf::NfConfig& config) {
  auto it = instances_.find(deployed.instance);
  if (it == instances_.end()) {
    return util::not_found("instance " + std::to_string(deployed.instance));
  }
  return it->second.instance->function().configure(deployed.context, config);
}

util::Result<json::Value> GenericVnfDriver::nf_stats(
    const DeployedNf& deployed) const {
  auto it = instances_.find(deployed.instance);
  if (it == instances_.end()) {
    return util::not_found("instance " + std::to_string(deployed.instance));
  }
  return it->second.instance->function().describe_stats(deployed.context);
}

Status GenericVnfDriver::undeploy(const DeployedNf& deployed) {
  auto it = instances_.find(deployed.instance);
  if (it == instances_.end()) {
    return util::not_found("instance " + std::to_string(deployed.instance));
  }
  Record& record = it->second;
  for (nfswitch::PortId port : record.lsi_ports) {
    (void)record.lsi->remove_port(port);
  }
  (void)record.instance->destroy();
  env_.ram->release(record.ram_bytes);
  env_.disk->remove(record.image);
  instances_.erase(it);
  return Status::ok();
}

}  // namespace nnfv::compute
