// Standalone per-layer timings for the traced run: each layer's public
// entry point is called directly, with the deployed graphs' configuration,
// over fresh frames of the workload generated from the same seed. Times
// are recorded as spans (see trace.hpp); frame generation, copies and
// checks stay outside them.
#pragma once

#include <cstdint>

#include "system.hpp"
#include "trace.hpp"
#include "traffic.hpp"

namespace nfbench {

/// Layers measure_layers() times, one after the other.
inline constexpr int kLayerCount = 6;

struct LayerReport {
  bool ok = true;  ///< every layer produced the outputs it should
  double nat_sessions_live = 0.0;
  double esp_bytes_per_pkt = 0.0;  ///< mean bytes one seal/open lane covers
};

/// Runs each layer for `seconds_each` wall seconds. Switch lookups go to
/// the deployed tables of `system`.
LayerReport measure_layers(const Workload& workload, std::uint64_t seed,
                           System& system, double seconds_each,
                           Tracer& tracer);

}  // namespace nfbench
