// Per-backend datapath cost models.
//
// This is the calibrated substitute for the paper's physical CPE: the
// simulated clock of every NF instance advances by these costs, while the
// real code runs in wall-clock time (nfbench/README.md compares the two).
// An NF's per-packet service time is
//
//   T(bytes) = path_fixed(backend) + nf_fixed
//            + bytes * (nf_per_byte * cpu_factor(backend)
//                       + copy_per_byte(backend))
//
// * path_fixed: cost of moving one packet into/out of the execution
//   environment (kernel path for native/Docker; virtio + VM exits for KVM).
// * copy_per_byte: extra copies crossing the hypervisor boundary.
// * cpu_factor: slowdown of the NF's own work (crypto) when it runs in
//   user space inside a guest instead of the host kernel.
// * nf_fixed / nf_per_byte describe the function itself (NfComputeProfile),
//   independent of where it runs — this is exactly the paper's observation
//   that the same Strongswan code performs differently per flavor.
//
// Calibration (the derivation is at profile_ipsec_esp() in
// cost_model.cpp): nf profile "ipsec-esp" is set so the *native* flavor
// reproduces Table 1's 1094 Mbps on a 1450-byte frame; VM constants are
// structural (exit + copy costs), not fitted to the paper's VM row —
// landing near 796 Mbps is then a model prediction, which
// bench_table1_ipsec checks.
#pragma once

#include <cstdint>
#include <string>

#include "sim/time.hpp"
#include "virt/backend.hpp"

namespace nnfv::virt {

/// Intrinsic per-packet work of a network function, independent of backend.
struct NfComputeProfile {
  sim::SimTime fixed_ns = 0;  ///< per-packet bookkeeping (SA lookup, ...)
  double per_byte_ns = 0.0;   ///< per-byte work (crypto, copies inside NF)
};

/// Well-known profiles used by the benches/examples.
NfComputeProfile profile_forwarding();  ///< bridge/firewall-like, ~O(1)
NfComputeProfile profile_nat();
NfComputeProfile profile_ipsec_esp();   ///< AES-CBC + HMAC-SHA256 per byte

/// Execution-environment constants.
struct BackendCost {
  sim::SimTime path_fixed_ns = 0;
  double copy_per_byte_ns = 0.0;
  double cpu_factor = 1.0;
  sim::SimTime boot_ns = 0;        ///< create -> running
  sim::SimTime config_ns = 0;      ///< apply one configuration update
  sim::SimTime teardown_ns = 0;
};

/// Default constants for each backend (see header comment for meaning).
BackendCost backend_cost(BackendKind kind);

/// Full service-time model for one NF instance on one backend.
class CostModel {
 public:
  CostModel(BackendKind kind, NfComputeProfile profile)
      : kind_(kind), backend_(backend_cost(kind)), profile_(profile) {}

  [[nodiscard]] BackendKind kind() const { return kind_; }
  [[nodiscard]] const BackendCost& backend() const { return backend_; }
  [[nodiscard]] const NfComputeProfile& profile() const { return profile_; }

  /// Per-packet service time for a frame of `bytes`.
  [[nodiscard]] sim::SimTime service_time(std::size_t bytes) const;

  /// Saturation packet rate for a fixed frame size (1/T), packets/s.
  [[nodiscard]] double saturation_pps(std::size_t bytes) const;

 private:
  BackendKind kind_;
  BackendCost backend_;
  NfComputeProfile profile_;
};

}  // namespace nnfv::virt
