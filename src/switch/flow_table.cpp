#include "switch/flow_table.hpp"

#include <algorithm>

namespace nnfv::nfswitch {

namespace {

/// The target of FlowTable::kNoPeer; never matched or counted.
FlowEntry no_peer;

}  // namespace

FlowEntry* const FlowTable::kNoPeer = &no_peer;

void LookupTally::flush_run() {
  if (entry == nullptr) return;
  entry->stats.packets += entry_packets;
  entry->stats.bytes += entry_bytes;
  entry_packets = 0;
  entry_bytes = 0;
}

void FlowTable::allocate_cache(std::unique_ptr<Cache>& cache) {
  cache = std::make_unique<Cache>();
}

void FlowTable::invalidate_cache() {
  // invalidates every microflow-cache slot (of every worker) at once
  epoch_->fetch_add(1, std::memory_order_release);
}

void FlowTable::touch() {
  invalidate_cache();
  classifier_dirty_.store(true, std::memory_order_release);
}

void FlowTable::join_epoch(FlowTable& other) {
  if (epoch_ != other.epoch_) {
    // Start the shared epoch above both: no slot filled under either old
    // epoch can match it after the bump below.
    other.epoch_->store(std::max(epoch_->load(std::memory_order_acquire),
                                 other.epoch_->load(std::memory_order_acquire)),
                        std::memory_order_release);
    epoch_ = other.epoch_;
  }
  invalidate_cache();
}

void FlowTable::ensure_classifier() const {
  // Mutations only happen with the datapath quiesced, so `dirty` is
  // stable while workers race here: the first one through the mutex
  // rebuilds, everyone else blocks until the release-store below and
  // then sees the fresh classifier.
  if (!classifier_dirty_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(classifier_mutex_);
  if (!classifier_dirty_.load(std::memory_order_relaxed)) return;
  std::vector<FlowEntry*> sorted;
  sorted.reserve(entries_.size());
  for (const auto& e : entries_) sorted.push_back(e.get());
  classifier_.rebuild(sorted);
  classifier_dirty_.store(false, std::memory_order_release);
}

FlowEntry* FlowTable::classify(const FlowKeyView& key) const {
  ensure_classifier();
  return classifier_.match(key);
}

FlowEntryId FlowTable::add(std::uint16_t priority, FlowMatch match,
                           std::vector<FlowAction> actions, Cookie cookie) {
  auto entry = std::make_unique<FlowEntry>();
  entry->id = next_id_++;
  entry->priority = priority;
  entry->match = std::move(match);
  entry->actions = std::move(actions);
  entry->cookie = cookie;

  const FlowEntryId id = entry->id;
  FlowEntry* raw = entry.get();
  auto pos = std::upper_bound(
      entries_.begin(), entries_.end(), std::pair{priority, id},
      [](const std::pair<std::uint16_t, FlowEntryId>& key,
         const std::unique_ptr<FlowEntry>& e) {
        return flow_entry_precedes(key.first, key.second, e->priority, e->id);
      });
  entries_.insert(pos, std::move(entry));
  by_id_.emplace(id, raw);
  by_cookie_[cookie].push_back(raw);
  touch();
  return id;
}

util::Status FlowTable::remove(FlowEntryId id) {
  auto it = by_id_.find(id);
  if (it == by_id_.end()) {
    return util::not_found("flow entry " + std::to_string(id));
  }
  FlowEntry* entry = it->second;

  auto& cookie_list = by_cookie_[entry->cookie];
  cookie_list.erase(std::find(cookie_list.begin(), cookie_list.end(), entry));
  if (cookie_list.empty()) by_cookie_.erase(entry->cookie);
  by_id_.erase(it);

  // (priority, id) is unique and entries_ is sorted by it, so the entry's
  // position is a binary search away; erasing shifts only pointers.
  auto pos = std::lower_bound(
      entries_.begin(), entries_.end(), std::pair{entry->priority, entry->id},
      [](const std::unique_ptr<FlowEntry>& e,
         const std::pair<std::uint16_t, FlowEntryId>& key) {
        return flow_entry_precedes(e->priority, e->id, key.first, key.second);
      });
  entries_.erase(pos);
  touch();
  return util::Status::ok();
}

std::size_t FlowTable::remove_by_cookie(Cookie cookie) {
  auto it = by_cookie_.find(cookie);
  if (it == by_cookie_.end()) return 0;
  const std::size_t removed = it->second.size();
  for (FlowEntry* entry : it->second) by_id_.erase(entry->id);
  by_cookie_.erase(it);
  entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                [cookie](const std::unique_ptr<FlowEntry>& e) {
                                  return e->cookie == cookie;
                                }),
                 entries_.end());
  touch();
  return removed;
}

FlowEntry* FlowTable::lookup(const FlowContext& ctx,
                             std::size_t packet_bytes) {
  return lookup_key(FlowKeyView::from_context(ctx), packet_bytes);
}

FlowEntry* FlowTable::lookup_key(const FlowKeyView& key,
                                 std::size_t packet_bytes) {
  LookupTally tally;
  FlowEntry* entry = lookup_key(key, packet_bytes, tally);
  publish(tally);
  return entry;
}

FlowEntry* FlowTable::lookup_key(const FlowKeyView& key,
                                 std::size_t packet_bytes,
                                 LookupTally& tally) {
  return commit(probe(key), key, packet_bytes, tally);
}

void FlowTable::publish(LookupTally& tally) {
  if (tally.lookups != 0) cache_lookups_ += tally.lookups;
  if (tally.hits != 0) cache_hits_ += tally.hits;
  if (tally.misses != 0) misses_ += tally.misses;
  tally.flush_run();
  tally = LookupTally{};
}

const FlowEntry* FlowTable::peek(const FlowContext& ctx) const {
  return classify(FlowKeyView::from_context(ctx));
}

const FlowEntry* FlowTable::find(FlowEntryId id) const {
  auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : it->second;
}

std::vector<FlowEntryId> FlowTable::entries_by_cookie(Cookie cookie) const {
  std::vector<FlowEntryId> out;
  auto it = by_cookie_.find(cookie);
  if (it == by_cookie_.end()) return out;
  out.reserve(it->second.size());
  for (const FlowEntry* entry : it->second) out.push_back(entry->id);
  return out;
}

std::vector<const FlowEntry*> FlowTable::entries() const {
  std::vector<const FlowEntry*> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) out.push_back(e.get());
  return out;
}

std::size_t FlowTable::classifier_groups() const {
  ensure_classifier();
  return classifier_.group_count();
}

std::string FlowTable::dump() const {
  std::string out;
  for (const auto& entry : entries_) {
    out += "  [" + std::to_string(entry->id) +
           "] prio=" + std::to_string(entry->priority) + " match{" +
           entry->match.to_string() + "} actions{";
    bool first = true;
    for (const FlowAction& action : entry->actions) {
      if (!first) out += ',';
      first = false;
      out += action.to_string();
    }
    out += "} pkts=" + std::to_string(entry->stats.packets) + "\n";
  }
  return out;
}

}  // namespace nnfv::nfswitch
