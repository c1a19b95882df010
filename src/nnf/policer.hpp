// Token-bucket rate policer — the `tc police` role of a Linux CPE, the
// operator's tool for enforcing per-customer rate plans.
//
// Classic single-rate two-color policer: a bucket of `burst_bytes` tokens
// refills at `rate_bps`; conforming packets pass (port 0 <-> port 1),
// excess packets are dropped. Per-context buckets make it sharable (one
// tc, per-graph classes).
#pragma once

#include <map>

#include "nnf/network_function.hpp"

namespace nnfv::nnf {

struct PolicerStats {
  std::uint64_t conformed = 0;
  std::uint64_t exceeded = 0;
};

class TokenBucketPolicer : public NetworkFunction {
 public:
  TokenBucketPolicer() = default;

  [[nodiscard]] std::string_view type() const override { return "policer"; }
  [[nodiscard]] std::size_t num_ports() const override { return 2; }

  /// Config keys:
  ///   rate_mbps    committed rate (decimal, required before traffic)
  ///   burst_kb     bucket depth; default 64
  ///   direction    "both" (default) | "up" (police port0->1 only)
  util::Status configure(ContextId ctx, const NfConfig& config) override;

  std::vector<NfOutput> process_burst(ContextId ctx, NfPortIndex in_port,
                                      sim::SimTime now,
                                      packet::PacketBurst&& burst) override;

  util::Status remove_context(ContextId ctx) override;

  [[nodiscard]] const PolicerStats& stats() const { return stats_; }
  /// Current fill of one context's bucket (tests).
  [[nodiscard]] double tokens(ContextId ctx) const;

 private:
  struct Bucket {
    double rate_bytes_per_ns = 0.0;  ///< 0 = unconfigured (pass all)
    double burst_bytes = 64.0 * 1024.0;
    double tokens = 64.0 * 1024.0;
    sim::SimTime last_refill = 0;
    bool police_up_only = false;
  };

  std::map<ContextId, Bucket> buckets_;
  PolicerStats stats_;
};

/// Plugin: sharable single-instance policer (one tc).
std::shared_ptr<class NnfPlugin> make_policer_plugin();

}  // namespace nnfv::nnf
