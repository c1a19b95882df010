#include "nnf/policer.hpp"

#include "nnf/plugin.hpp"
#include "util/strings.hpp"
#include "virt/cost_model.hpp"

namespace nnfv::nnf {

util::Status TokenBucketPolicer::configure(ContextId ctx,
                                           const NfConfig& config) {
  NNFV_RETURN_IF_ERROR(require_context(ctx));
  Bucket& bucket = buckets_[ctx];
  for (const auto& [key, value] : config) {
    if (key == "rate_mbps") {
      std::uint64_t mbps = 0;
      if (!util::parse_u64(value, mbps) || mbps == 0) {
        return util::invalid_argument("policer: bad rate_mbps '" + value +
                                      "'");
      }
      // Mbit/s -> bytes/ns: mbps * 1e6 / 8 bytes per second / 1e9.
      bucket.rate_bytes_per_ns = static_cast<double>(mbps) / 8000.0;
    } else if (key == "burst_kb") {
      std::uint64_t kb = 0;
      if (!util::parse_u64(value, kb) || kb == 0) {
        return util::invalid_argument("policer: bad burst_kb '" + value +
                                      "'");
      }
      bucket.burst_bytes = static_cast<double>(kb) * 1024.0;
      bucket.tokens = bucket.burst_bytes;
    } else if (key == "direction") {
      if (value == "both") {
        bucket.police_up_only = false;
      } else if (value == "up") {
        bucket.police_up_only = true;
      } else {
        return util::invalid_argument("policer: bad direction '" + value +
                                      "'");
      }
    } else {
      return util::invalid_argument("policer: unknown config key '" + key +
                                    "'");
    }
  }
  return util::Status::ok();
}

std::vector<NfOutput> TokenBucketPolicer::process_burst(
    ContextId ctx, NfPortIndex in_port, sim::SimTime now,
    packet::PacketBurst&& burst) {
  std::vector<NfOutput> out;
  if (!has_context(ctx) || in_port >= 2) {
    burst.clear();
    return out;
  }
  out.reserve(burst.size());
  Bucket& bucket = buckets_[ctx];
  const NfPortIndex out_port = in_port == 0 ? 1u : 0u;

  // Unpoliced direction or unconfigured bucket: pass through.
  const bool policed = bucket.rate_bytes_per_ns > 0.0 &&
                       (!bucket.police_up_only || in_port == 0);
  // Refill once: every frame of the burst arrives at `now`.
  if (policed && now > bucket.last_refill) {
    bucket.tokens = std::min(
        bucket.burst_bytes,
        bucket.tokens + static_cast<double>(now - bucket.last_refill) *
                            bucket.rate_bytes_per_ns);
    bucket.last_refill = now;
  }
  for (packet::PacketBuffer& frame : burst) {
    const double cost = static_cast<double>(frame.size());
    if (!policed || bucket.tokens >= cost) {
      if (policed) bucket.tokens -= cost;
      out.push_back(NfOutput{out_port, std::move(frame)});
    }
  }
  stats_.conformed += out.size();
  stats_.exceeded += burst.size() - out.size();
  burst.clear();
  return out;
}

util::Status TokenBucketPolicer::remove_context(ContextId ctx) {
  NNFV_RETURN_IF_ERROR(NetworkFunction::remove_context(ctx));
  buckets_.erase(ctx);
  return util::Status::ok();
}

double TokenBucketPolicer::tokens(ContextId ctx) const {
  auto it = buckets_.find(ctx);
  return it == buckets_.end() ? 0.0 : it->second.tokens;
}

std::shared_ptr<NnfPlugin> make_policer_plugin() {
  NnfDescriptor d;
  d.functional_type = "policer";
  d.max_instances = 1;  // one tc qdisc tree
  d.sharable = true;
  d.single_interface = true;
  d.num_ports = 2;
  d.compute = virt::profile_forwarding();
  d.memory = {512 * 1024, 0, 64 * 1024};
  d.package_bytes = 200 * 1024;  // iproute2 slice
  return std::make_shared<SimpleNnfPlugin>(d, []() {
    return util::Result<std::unique_ptr<NetworkFunction>>(
        std::make_unique<TokenBucketPolicer>());
  });
}

}  // namespace nnfv::nnf
