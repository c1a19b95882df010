// AdaptationLayer: "an additional adaptation layer is required to cope with
// the fact that NNFs may be designed to receive traffic from a single
// network interface. Such layer attaches the NNF to one port of the switch
// and configures it to receive the traffic from multiple service graphs,
// appropriately marked to make it distinguishable." (paper §2)
//
// Concretely: each (context, logical NF port) pair is bound to a mark. The
// mark travels beside a burst, not inside its frames — like NIC VLAN
// offload metadata: every frame of a burst handed to receive(now, mark, …)
// shares the mark of the switch port it left, the layer dispatches the
// burst into the bound internal path, and hands each output group back
// with the mark of its (context, output port) pair so the switch can steer
// it back into the right graph. 802.1Q encoding exists only in the tagged
// adapter (receive_burst / set_burst_transmit) for callers that really hold
// tagged frames.
#pragma once

#include <cstdint>
#include <functional>
#include <map>

#include "nnf/marking.hpp"
#include "nnf/network_function.hpp"

namespace nnfv::nnf {

struct AdaptationStats {
  std::uint64_t in_frames = 0;
  std::uint64_t out_frames = 0;
  std::uint64_t unmapped_in = 0;   ///< ingress mark with no binding
  std::uint64_t unmapped_out = 0;  ///< NF output port with no mark bound
  std::uint64_t untagged = 0;      ///< tagged adapter: frame without a tag
};

class AdaptationLayer {
 public:
  /// Transmit toward the switch: one call per (context, output port)
  /// group of an ingress burst, with that pair's mark; order inside the
  /// group is preserved.
  using Transmit = std::function<void(Mark, packet::PacketBurst&&)>;
  /// Tagged transmit: the same groups, each frame carrying its mark as an
  /// 802.1Q tag.
  using BurstTransmit = std::function<void(packet::PacketBurst&&)>;

  explicit AdaptationLayer(NetworkFunction& nf) : nf_(nf) {}

  void set_transmit(Transmit tx) { tx_ = std::move(tx); }
  /// Tagged adapter over set_transmit: writes each group's mark into its
  /// frames as an 802.1Q tag.
  void set_burst_transmit(BurstTransmit tx);

  /// Binds `mark` to (ctx, port) in both directions.
  util::Status bind(ContextId ctx, NfPortIndex port, Mark mark);

  /// Removes all bindings of one context (graph teardown).
  std::size_t unbind_context(ContextId ctx);

  [[nodiscard]] std::size_t binding_count() const { return by_mark_.size(); }

  /// Burst arriving from the switch port bound to `mark`: ONE
  /// process_burst call into the bound (context, port), so a
  /// single-interface NNF gets the same per-burst amortisation as a
  /// dedicated attachment. A burst on an unbound mark is counted in
  /// unmapped_in and dropped.
  void receive(sim::SimTime now, Mark mark, packet::PacketBurst&& burst);

  /// Tagged adapter: frames carrying their mark as an 802.1Q tag. The tag
  /// is stripped, frames are regrouped per mark (order within a mark is
  /// preserved) and each group goes through receive(now, mark, group).
  void receive_burst(sim::SimTime now, packet::PacketBurst&& tagged);

  /// One tagged frame: a burst of 1 through receive_burst.
  void receive(sim::SimTime now, packet::PacketBuffer&& frame);

  [[nodiscard]] const AdaptationStats& stats() const { return stats_; }

 private:
  NetworkFunction& nf_;
  Transmit tx_;
  std::map<Mark, std::pair<ContextId, NfPortIndex>> by_mark_;
  std::map<std::pair<ContextId, NfPortIndex>, Mark> by_path_;
  AdaptationStats stats_;
};

}  // namespace nnfv::nnf
