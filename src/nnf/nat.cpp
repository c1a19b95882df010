#include "nnf/nat.hpp"

#include <algorithm>
#include <bit>
#include <mutex>
#include <shared_mutex>

#include "packet/builder.hpp"
#include "packet/checksum.hpp"
#include "util/byteorder.hpp"
#include "util/strings.hpp"

namespace nnfv::nnf {

PortPool::PortPool(std::uint16_t first, std::size_t count)
    : first_(first), count_(count), bits_((count + 63) / 64, 0) {}

std::uint16_t PortPool::allocate() {
  if (used_ == count_) return 0;
  // Scan from the cursor, skipping fully-used 64-port words.
  const std::size_t words = bits_.size();
  std::uint32_t bit = cursor_;
  for (std::size_t scanned = 0; scanned <= words; ++scanned) {
    const std::size_t word = bit / 64;
    // Mask off bits below the cursor within the first word.
    std::uint64_t free_mask = ~bits_[word];
    if (bit % 64 != 0) free_mask &= ~0ULL << (bit % 64);
    if (word == words - 1 && count_ % 64 != 0) {
      free_mask &= (1ULL << (count_ % 64)) - 1;  // clip past-the-end bits
    }
    if (free_mask != 0) {
      const auto idx =
          static_cast<std::uint32_t>(word * 64 +
                                     std::countr_zero(free_mask));
      bits_[idx / 64] |= 1ULL << (idx % 64);
      ++used_;
      cursor_ = static_cast<std::uint32_t>((idx + 1) % count_);
      return static_cast<std::uint16_t>(first_ + idx);
    }
    bit = static_cast<std::uint32_t>(((word + 1) % words) * 64);
  }
  return 0;  // unreachable: used_ < count_ guarantees a free bit
}

void PortPool::release(std::uint16_t port) {
  if (port < first_) return;
  const std::uint32_t idx = static_cast<std::uint32_t>(port - first_);
  if (idx >= count_) return;
  const std::uint64_t mask = 1ULL << (idx % 64);
  if (bits_[idx / 64] & mask) {
    bits_[idx / 64] &= ~mask;
    --used_;
  }
}

bool PortPool::in_use(std::uint16_t port) const {
  if (port < first_) return false;
  const std::uint32_t idx = static_cast<std::uint32_t>(port - first_);
  if (idx >= count_) return false;
  return (bits_[idx / 64] >> (idx % 64)) & 1;
}

namespace {

/// Rewrites in place the source address and port (outbound) or the
/// destination address and port (inbound) of the frame `d` describes; an
/// ICMP echo has its identifier rewritten instead of a port. Only those
/// bytes and the IPv4 and L4 checksums change: the IPv4 header checksum by
/// an RFC 1624 update, the L4 checksum by a full sum over the segment.
void rewrite(packet::PacketBuffer& frame, const packet::Ipv4Tuple& d,
             bool outbound, packet::Ipv4Address new_addr,
             std::uint16_t new_port) {
  frame.unshare();  // flooded replicas share bytes until first write
  const std::span<std::uint8_t> bytes = frame.data();
  std::uint8_t* l3 = bytes.data() + d.l3_off;
  std::uint8_t* l4 = l3 + d.header_size;
  const packet::FiveTuple& t = d.tuple;
  const std::uint32_t old_addr = outbound ? t.src_ip.value : t.dst_ip.value;
  util::store_be32(l3 + (outbound ? 12 : 16), new_addr.value);
  util::store_be16(l3 + 10,
                   packet::checksum_update32(util::load_be16(l3 + 10),
                                             old_addr, new_addr.value));
  if (t.protocol == packet::kIpProtoTcp ||
      t.protocol == packet::kIpProtoUdp) {
    util::store_be16(l4 + (outbound ? 0 : 2), new_port);
  } else if (t.protocol == packet::kIpProtoIcmp) {
    util::store_be16(l4 + 4, new_port);
  }
  packet::Ipv4Header ip;
  ip.ihl = static_cast<std::uint8_t>(d.header_size / 4);
  ip.total_length = d.total_length;
  ip.protocol = t.protocol;
  ip.src = outbound ? new_addr : t.src_ip;
  ip.dst = outbound ? t.dst_ip : new_addr;
  packet::fix_l4_checksum(bytes, d.l3_off, ip);
}

/// The external-index key port: for ICMP echo replies the identifier is
/// carried in src_port by our extractor; the NAT allocated it as the
/// "external port".
std::uint16_t external_key_port(const packet::FiveTuple& tuple) {
  return tuple.protocol == packet::kIpProtoIcmp ? tuple.src_port
                                                : tuple.dst_port;
}

std::size_t original_hash(const packet::FiveTuple& tuple) {
  return packet::FiveTupleHash{}(tuple);
}

std::size_t external_hash(std::uint8_t protocol, std::uint16_t port) {
  const std::uint64_t key = (std::uint64_t{protocol} << 16) | port;
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> 32);
}

/// Index of a protocol's port pools in Nat::PortSlices.
std::size_t port_protocol(std::uint8_t protocol) {
  switch (protocol) {
    case packet::kIpProtoTcp: return 0;
    case packet::kIpProtoUdp: return 1;
    case packet::kIpProtoIcmp: return 2;
    default: return 3;
  }
}

constexpr std::size_t kInitialIndexSize = 64;

}  // namespace

Nat::SessionTable::SessionTable()
    : by_original_(kInitialIndexSize, kNone),
      by_external_(kInitialIndexSize, kNone) {}

std::uint32_t Nat::SessionTable::find_original(
    const packet::FiveTuple& original) const {
  const std::size_t mask = by_original_.size() - 1;
  for (std::size_t i = original_hash(original) & mask;; i = (i + 1) & mask) {
    const std::uint32_t id = by_original_[i];
    if (id == kNone || slots_[id].original == original) return id;
  }
}

std::uint32_t Nat::SessionTable::find_external(std::uint8_t protocol,
                                               std::uint16_t port) const {
  const std::size_t mask = by_external_.size() - 1;
  for (std::size_t i = external_hash(protocol, port) & mask;;
       i = (i + 1) & mask) {
    const std::uint32_t id = by_external_[i];
    if (id == kNone || (slots_[id].external_port == port &&
                        slots_[id].original.protocol == protocol)) {
      return id;
    }
  }
}

std::uint32_t Nat::SessionTable::insert(const packet::FiveTuple& original,
                                        std::uint16_t external_port,
                                        sim::SimTime now) {
  // Keep both indexes at most half full, so probe runs stay short and
  // always end at an empty entry.
  if ((live_ + 1) * 2 > by_original_.size()) grow();
  std::uint32_t id;
  if (free_.empty()) {
    id = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    id = free_.back();
    free_.pop_back();
  }
  Session& session = slots_[id];
  session.original = original;
  session.external_port = external_port;
  session.last_seen = now;
  link(by_original_, hash_original, id);
  link(by_external_, hash_external, id);
  ++live_;
  return id;
}

void Nat::SessionTable::erase(std::uint32_t id) {
  unlink(by_original_, hash_original, id);
  unlink(by_external_, hash_external, id);
  slots_[id].external_port = 0;
  free_.push_back(id);
  --live_;
}

std::size_t Nat::SessionTable::hash_original(const Session& session) {
  return original_hash(session.original);
}

std::size_t Nat::SessionTable::hash_external(const Session& session) {
  return external_hash(session.original.protocol, session.external_port);
}

void Nat::SessionTable::grow() {
  const std::size_t size = by_original_.size() * 2;
  by_original_.assign(size, kNone);
  by_external_.assign(size, kNone);
  for (std::uint32_t id = 0; id < slots_.size(); ++id) {
    if (slots_[id].external_port == 0) continue;
    link(by_original_, hash_original, id);
    link(by_external_, hash_external, id);
  }
}

void Nat::SessionTable::link(std::vector<std::uint32_t>& index,
                             HashOf hash_of, std::uint32_t id) {
  const std::size_t mask = index.size() - 1;
  std::size_t i = hash_of(slots_[id]) & mask;
  while (index[i] != kNone) i = (i + 1) & mask;
  index[i] = id;
}

void Nat::SessionTable::unlink(std::vector<std::uint32_t>& index,
                               HashOf hash_of, std::uint32_t id) {
  const std::size_t mask = index.size() - 1;
  std::size_t hole = hash_of(slots_[id]) & mask;
  while (index[hole] != id) hole = (hole + 1) & mask;
  // Backward shift: pull each later entry of the probe run into the hole
  // unless that would move it before its home position.
  for (std::size_t j = (hole + 1) & mask; index[j] != kNone;
       j = (j + 1) & mask) {
    const std::size_t home = hash_of(slots_[index[j]]) & mask;
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      index[hole] = index[j];
      hole = j;
    }
  }
  index[hole] = kNone;
}

util::Status Nat::configure(ContextId ctx, const NfConfig& config) {
  NNFV_RETURN_IF_ERROR(require_context(ctx));
  ContextState& state = state_[ctx];
  std::unique_lock<std::shared_mutex> lock(state.mutex);
  for (const auto& [key, value] : config) {
    if (key == "external_ip") {
      auto addr = packet::Ipv4Address::parse(value);
      if (!addr.has_value()) {
        return util::invalid_argument("nat: bad external_ip '" + value + "'");
      }
      state.external_ip = *addr;
      state.external_ip_set = true;
    } else if (key == "idle_timeout_ms") {
      std::uint64_t ms = 0;
      if (!util::parse_u64(value, ms)) {
        return util::invalid_argument("nat: bad idle_timeout_ms '" + value +
                                      "'");
      }
      state.idle_timeout = static_cast<sim::SimTime>(ms) * sim::kMillisecond;
    } else {
      return util::invalid_argument("nat: unknown config key '" + key + "'");
    }
  }
  return util::Status::ok();
}

void Nat::set_worker_count(std::size_t workers) {
  worker_count_ = std::min<std::size_t>(workers, exec::kMaxWorkers);
  // Drop port pools that have no live allocation so they re-slice for
  // the new worker count on next use; pools holding sessions keep their
  // old slicing (release() depends on the slice boundaries).
  for (auto& [ctx, state] : state_) {
    std::unique_lock<std::shared_mutex> lock(state.mutex);
    for (std::vector<PortPool>& slices : state.ports) {
      if (std::all_of(slices.begin(), slices.end(),
                      [](const PortPool& pool) { return pool.used() == 0; })) {
        slices.clear();
      }
    }
  }
}

void Nat::sweep(ContextState& state, sim::SimTime now) {
  for (std::uint32_t id = 0; id < state.sessions.slot_count(); ++id) {
    const Session& session = state.sessions[id];
    if (session.external_port != 0 && session_stale(state, session, now)) {
      evict(state, id);
    }
  }
  state.last_sweep = now;
}

void Nat::evict(ContextState& state, std::uint32_t id) {
  const Session& session = state.sessions[id];
  // release() is a no-op on every slice but the owning one.
  for (PortPool& pool :
       state.ports[port_protocol(session.original.protocol)]) {
    pool.release(session.external_port);
  }
  state.sessions.erase(id);
}

util::Result<std::uint16_t> Nat::allocate_port(ContextState& state,
                                               std::uint8_t protocol) {
  // O(1) bitmap allocation (see PortPool); the old code linearly probed up
  // to 64512 map entries when the pool ran hot.
  std::vector<PortPool>& slices = state.ports[port_protocol(protocol)];
  if (slices.empty()) {
    // Slot 0 (control/inline thread) plus one slice per worker. With no
    // workers declared this is one slice spanning the whole range — the
    // exact single-threaded behaviour.
    const std::size_t n = worker_count_ + 1;
    const std::size_t per = PortPool::kPorts / n;
    std::uint16_t first = PortPool::kFirstPort;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t count =
          i + 1 == n ? PortPool::kPorts - per * (n - 1) : per;
      slices.emplace_back(first, count);
      if (i + 1 < n) first = static_cast<std::uint16_t>(first + count);
    }
  }
  const std::size_t slot =
      std::min<std::size_t>(exec::current_worker_slot(), slices.size() - 1);
  if (const std::uint16_t port = slices[slot].allocate(); port != 0) {
    return port;
  }
  // This worker's slice ran dry: steal from the others. Safe because
  // allocation only happens under the context's unique lock.
  for (PortPool& pool : slices) {
    if (const std::uint16_t port = pool.allocate(); port != 0) return port;
  }
  return util::resource_exhausted("nat: port pool exhausted");
}

Nat::Step Nat::translate_fast(ContextState& state, NfPortIndex in_port,
                              sim::SimTime now, packet::PacketBuffer& frame,
                              const packet::Ipv4Tuple& decoded) {
  if (sweep_due(state, now)) return Step::kSlowPath;
  const packet::FiveTuple& tuple = decoded.tuple;
  std::uint32_t id;
  if (in_port == 0) {
    id = state.sessions.find_original(tuple);
  } else {
    if (!(tuple.dst_ip == state.external_ip)) return Step::kDrop;
    id = state.sessions.find_external(tuple.protocol,
                                      external_key_port(tuple));
    if (id == SessionTable::kNone) return Step::kDrop;
  }
  if (id == SessionTable::kNone ||
      session_stale(state, state.sessions[id], now)) {
    return Step::kSlowPath;  // setup, or evict under the unique lock
  }
  Session& session = state.sessions[id];
  session.last_seen = now;
  if (in_port == 0) {
    rewrite(frame, decoded, /*outbound=*/true, state.external_ip,
            session.external_port);
  } else {
    rewrite(frame, decoded, /*outbound=*/false, session.original.src_ip,
            session.original.src_port);
  }
  return Step::kForward;
}

bool Nat::translate_slow(ContextState& state, NfPortIndex in_port,
                         sim::SimTime now, packet::PacketBuffer& frame,
                         const packet::Ipv4Tuple& decoded) {
  if (sweep_due(state, now)) sweep(state, now);
  const packet::FiveTuple& tuple = decoded.tuple;

  if (in_port == 0) {
    // Outbound: find or create a session.
    std::uint32_t id = state.sessions.find_original(tuple);
    if (id != SessionTable::kNone &&
        session_stale(state, state.sessions[id], now)) {
      evict(state, id);
      id = SessionTable::kNone;
    }
    if (id == SessionTable::kNone) {
      auto port = allocate_port(state, tuple.protocol);
      if (!port) return false;
      id = state.sessions.insert(tuple, port.value(), now);
    }
    Session& session = state.sessions[id];
    session.last_seen = now;
    rewrite(frame, decoded, /*outbound=*/true, state.external_ip,
            session.external_port);
    return true;
  }

  // Inbound: must match a tracked, fresh session and target the
  // external IP.
  if (!(tuple.dst_ip == state.external_ip)) return false;
  const std::uint32_t id =
      state.sessions.find_external(tuple.protocol, external_key_port(tuple));
  if (id == SessionTable::kNone) return false;
  Session& session = state.sessions[id];
  if (session_stale(state, session, now)) {
    evict(state, id);
    return false;
  }
  session.last_seen = now;
  rewrite(frame, decoded, /*outbound=*/false, session.original.src_ip,
          session.original.src_port);
  return true;
}

std::vector<NfOutput> Nat::process_burst(ContextId ctx, NfPortIndex in_port,
                                         sim::SimTime now,
                                         packet::PacketBurst&& burst) {
  std::vector<NfOutput> out;
  NfTally tally;
  tally.in_packets = burst.size();
  auto state_it = state_.find(ctx);
  if (!has_context(ctx) || in_port >= 2) {
    tally.errors = burst.size();
  } else if (state_it == state_.end() || !state_it->second.external_ip_set) {
    tally.dropped = burst.size();
  } else {
    ContextState& state = state_it->second;
    const NfPortIndex out_port = in_port == 0 ? 1u : 0u;
    out.reserve(burst.size());
    // One shared lock for the whole burst: session hits only touch
    // atomics, so workers carrying different flows proceed in parallel.
    // A frame that needs the slow path trades it for the unique lock for
    // that frame alone, so outputs stay in frame order.
    std::shared_lock<std::shared_mutex> shared(state.mutex);
    packet::Ipv4Tuple decoded;
    for (packet::PacketBuffer& frame : burst) {
      const packet::Ipv4Decode verdict =
          packet::decode_ipv4_tuple(frame.data(), decoded);
      if (verdict == packet::Ipv4Decode::kRunt ||
          verdict == packet::Ipv4Decode::kNotIpv4) {
        // Non-IP traffic passes through untranslated (L2 bridging
        // behaviour).
        out.push_back(NfOutput{out_port, std::move(frame)});
        continue;
      }
      if (verdict == packet::Ipv4Decode::kMalformed) {
        // Never forward an IPv4 frame untranslated: it would leak the
        // inside address.
        ++tally.dropped;
        continue;
      }
      Step step = translate_fast(state, in_port, now, frame, decoded);
      if (step == Step::kSlowPath) {
        shared.unlock();
        {
          std::unique_lock<std::shared_mutex> lock(state.mutex);
          step = translate_slow(state, in_port, now, frame, decoded)
                     ? Step::kForward
                     : Step::kDrop;
        }
        shared.lock();
      }
      if (step == Step::kForward) {
        out.push_back(NfOutput{out_port, std::move(frame)});
      } else {
        ++tally.dropped;
      }
    }
    tally.out_packets = out.size();
  }
  tally.publish(counters_);
  burst.clear();
  return out;
}

util::Status Nat::remove_context(ContextId ctx) {
  NNFV_RETURN_IF_ERROR(NetworkFunction::remove_context(ctx));
  state_.erase(ctx);
  return util::Status::ok();
}

std::size_t Nat::session_count(ContextId ctx) const {
  auto it = state_.find(ctx);
  if (it == state_.end()) return 0;
  std::shared_lock<std::shared_mutex> lock(it->second.mutex);
  return it->second.sessions.size();
}

std::size_t Nat::ports_in_use(ContextId ctx) const {
  auto it = state_.find(ctx);
  if (it == state_.end()) return 0;
  std::shared_lock<std::shared_mutex> lock(it->second.mutex);
  std::size_t used = 0;
  for (const std::vector<PortPool>& slices : it->second.ports) {
    for (const PortPool& pool : slices) used += pool.used();
  }
  return used;
}

}  // namespace nnfv::nnf
