// AdaptationLayer: "an additional adaptation layer is required to cope with
// the fact that NNFs may be designed to receive traffic from a single
// network interface. Such layer attaches the NNF to one port of the switch
// and configures it to receive the traffic from multiple service graphs,
// appropriately marked to make it distinguishable." (paper §2)
//
// Concretely: one external attachment carries 802.1Q-marked frames. Each
// (context, logical NF port) pair is bound to a mark. On ingress the layer
// pops the tag and dispatches into the right internal path; on egress it
// re-tags with the mark of the (context, output port) pair so the switch
// can steer the frame back into the right graph.
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
  std::uint64_t untagged = 0;      ///< ingress frame without a mark
};

class AdaptationLayer {
 public:
  /// Transmit function toward the switch port this layer is attached to.
  using Transmit = std::function<void(packet::PacketBuffer&&)>;
  /// Burst-capable transmit: every (re-marked) frame the layer emits for
  /// one ingress burst leaves in a single call, preserving order.
  using BurstTransmit = std::function<void(packet::PacketBurst&&)>;

  explicit AdaptationLayer(NetworkFunction& nf) : nf_(nf) {}

  void set_transmit(Transmit tx) { tx_ = std::move(tx); }
  /// Preferred by receive_burst when set; receive() keeps using the
  /// per-frame transmit.
  void set_burst_transmit(BurstTransmit tx) { burst_tx_ = std::move(tx); }

  /// Binds `mark` to (ctx, port) in both directions.
  util::Status bind(ContextId ctx, NfPortIndex port, Mark mark);

  /// Removes all bindings of one context (graph teardown).
  std::size_t unbind_context(ContextId ctx);

  [[nodiscard]] std::size_t binding_count() const { return by_mark_.size(); }

  /// Frame arriving from the switch (must carry a bound mark).
  void receive(sim::SimTime now, packet::PacketBuffer&& frame);

  /// Burst arriving from the switch. Frames are demultiplexed on their
  /// marks and regrouped per (context, port) — order within a group is
  /// preserved — then each group is ONE process_burst call into the NF,
  /// so a single-interface NNF gets the same per-burst amortisation as a
  /// dedicated attachment.
  void receive_burst(sim::SimTime now, packet::PacketBurst&& burst);

  [[nodiscard]] const AdaptationStats& stats() const { return stats_; }

 private:
  /// Re-marks one NF output with the mark of (ctx, port); returns false
  /// (and counts unmapped_out) when no mark is bound.
  bool remark_output(ContextId ctx, NfOutput& output);

  NetworkFunction& nf_;
  Transmit tx_;
  BurstTransmit burst_tx_;
  std::map<Mark, std::pair<ContextId, NfPortIndex>> by_mark_;
  std::map<std::pair<ContextId, NfPortIndex>, Mark> by_path_;
  AdaptationStats stats_;
};

}  // namespace nnfv::nnf
