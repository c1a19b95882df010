// Frame priority classification for overload shedding.
//
// Two classes: control traffic the node must not drop while it still
// has any headroom (ARP resolution, DHCP, and ESP frames that belong to
// an in-flight IPsec rekey — losing those turns congestion into a dead
// tunnel), and bulk for everything else. Under overload, bulk frames
// are shed at submit — before classify/crypto work is invested — while
// control frames are admitted until a hard watermark (see
// DatapathExecutorConfig).
//
// Rekey-relevant ESP traffic is recognised via the ControlSpiRegistry:
// the IPsec NF registers a staged rekey's SPIs when the rekey is staged
// and unregisters them once the superseded SA retires. The registry is
// process-wide and mutex-protected — it changes at control-plane rate —
// with an atomic size so the per-frame check is one relaxed load when
// no rekey is in flight.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <unordered_map>

#include "packet/flow_key.hpp"

namespace nnfv::exec {

enum class FramePriority : std::uint8_t { kBulk = 0, kControl = 1 };

/// SPIs whose ESP frames are control priority (in-flight rekeys).
/// Multiset semantics: a SPI registered twice needs two removes.
class ControlSpiRegistry {
 public:
  static ControlSpiRegistry& instance();

  void add(std::uint32_t spi);
  void remove(std::uint32_t spi);
  [[nodiscard]] bool contains(std::uint32_t spi) const;
  [[nodiscard]] bool empty() const {
    return count_.load(std::memory_order_relaxed) == 0;
  }

 private:
  ControlSpiRegistry() = default;
  mutable std::mutex mutex_;
  std::unordered_map<std::uint32_t, std::uint32_t> spis_;  // spi -> refs
  std::atomic<std::size_t> count_{0};
};

/// Classifies from an already-decoded flow key; `frame` is only peeked
/// for the ESP SPI (the one field the key does not carry), and only when
/// a rekey is in flight. `key` must be decode_flow_key(frame)'s output
/// for this same frame; a mismatched pair is classified bulk, never read
/// out of bounds.
FramePriority classify_priority(const packet::FlowKey& key,
                                std::span<const std::uint8_t> frame);

/// Classifies a raw frame (submit-side shedding: nothing is decoded yet).
FramePriority classify_priority(std::span<const std::uint8_t> frame);

}  // namespace nnfv::exec
