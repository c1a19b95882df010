#include "nnf/network_function.hpp"

#include <algorithm>

namespace nnfv::nnf {

// contexts_ is a sorted vector: membership is a binary search instead of
// the linear std::find scans this file used to do on every packet path.

util::Status NetworkFunction::add_context(ContextId ctx) {
  auto pos = std::lower_bound(contexts_.begin(), contexts_.end(), ctx);
  if (pos != contexts_.end() && *pos == ctx) {
    return util::already_exists("context " + std::to_string(ctx));
  }
  contexts_.insert(pos, ctx);
  return util::Status::ok();
}

util::Status NetworkFunction::remove_context(ContextId ctx) {
  if (ctx == kDefaultContext) {
    return util::invalid_argument("context 0 cannot be removed");
  }
  auto pos = std::lower_bound(contexts_.begin(), contexts_.end(), ctx);
  if (pos == contexts_.end() || *pos != ctx) {
    return util::not_found("context " + std::to_string(ctx));
  }
  contexts_.erase(pos);
  return util::Status::ok();
}

bool NetworkFunction::has_context(ContextId ctx) const {
  return std::binary_search(contexts_.begin(), contexts_.end(), ctx);
}

util::Status NetworkFunction::require_context(ContextId ctx) const {
  if (!has_context(ctx)) {
    return util::not_found("context " + std::to_string(ctx));
  }
  return util::Status::ok();
}

std::vector<NfOutput> NetworkFunction::process(ContextId ctx,
                                               NfPortIndex in_port,
                                               sim::SimTime now,
                                               packet::PacketBuffer&& frame) {
  return process_burst(ctx, in_port, now, packet::burst_of(std::move(frame)));
}

}  // namespace nnfv::nnf
