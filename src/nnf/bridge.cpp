#include "nnf/bridge.hpp"

#include "util/strings.hpp"

namespace nnfv::nnf {

Bridge::Bridge(std::size_t ports) : ports_(ports < 2 ? 2 : ports) {}

util::Status Bridge::configure(ContextId ctx, const NfConfig& config) {
  NNFV_RETURN_IF_ERROR(require_context(ctx));
  for (const auto& [key, value] : config) {
    if (key == "aging_time_ms") {
      std::uint64_t ms = 0;
      if (!util::parse_u64(value, ms)) {
        return util::invalid_argument("bridge: bad aging_time_ms '" + value +
                                      "'");
      }
      aging_time_ = static_cast<sim::SimTime>(ms) * sim::kMillisecond;
    } else {
      return util::invalid_argument("bridge: unknown config key '" + key +
                                    "'");
    }
  }
  return util::Status::ok();
}

std::vector<NfOutput> Bridge::process_burst(ContextId ctx,
                                            NfPortIndex in_port,
                                            sim::SimTime now,
                                            packet::PacketBurst&& burst) {
  std::vector<NfOutput> out;
  NfTally tally;
  tally.in_packets = burst.size();
  if (!has_context(ctx) || in_port >= ports_) {
    tally.errors = burst.size();
    tally.publish(counters_);
    burst.clear();
    return out;
  }
  out.reserve(burst.size());
  auto& table = fdb_[ctx];
  for (packet::PacketBuffer& frame : burst) {
    auto eth = packet::parse_ethernet(frame.data());
    if (!eth) {
      ++tally.errors;
      continue;
    }

    // Learn the source (unicast sources only).
    if (!eth->src.is_multicast()) {
      table[eth->src] = FdbEntry{in_port, now};
    }

    // Look up the destination, honouring aging.
    NfPortIndex dst_port = ports_;  // sentinel: flood
    if (!eth->dst.is_multicast() && !eth->dst.is_broadcast()) {
      auto it = table.find(eth->dst);
      if (it != table.end()) {
        if (now - it->second.learned_at > aging_time_) {
          table.erase(it);
        } else {
          dst_port = it->second.port;
        }
      }
    }

    if (dst_port < ports_) {
      if (dst_port != in_port) {  // never hairpin
        out.push_back(NfOutput{dst_port, std::move(frame)});
      } else {
        ++tally.dropped;
      }
      continue;
    }

    // Flood to all ports except the ingress.
    for (NfPortIndex p = 0; p < ports_; ++p) {
      if (p != in_port) out.push_back(NfOutput{p, frame.clone()});
    }
  }
  tally.out_packets = out.size();
  tally.publish(counters_);
  burst.clear();
  return out;
}

util::Status Bridge::remove_context(ContextId ctx) {
  NNFV_RETURN_IF_ERROR(NetworkFunction::remove_context(ctx));
  fdb_.erase(ctx);
  return util::Status::ok();
}

std::size_t Bridge::table_size(ContextId ctx) const {
  auto it = fdb_.find(ctx);
  return it == fdb_.end() ? 0 : it->second.size();
}

}  // namespace nnfv::nnf
