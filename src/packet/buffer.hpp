// PacketBuffer: a view over a pooled, refcounted mbuf segment (see
// mbuf.hpp) carved as headroom | packet | tailroom, so encapsulating NFs
// (IPsec tunnel mode, VLAN push) prepend and append headers in place and
// decapsulation is a pure offset adjustment — no per-packet heap
// allocation and no payload copy on the steady-state path.
//
// Ownership contract:
//  * PacketBuffer is move-only. The implicit copy-from-span constructor
//    is gone; construction is `alloc()` + in-place build, or an explicit
//    `copy_of(span)` for tests and control-plane code.
//  * `clone()` is a refcounted share of the same bytes — O(1), for
//    read-only fan-out (flooding, multi-output replication).
//  * `copy()` is an explicit deep copy into a fresh pooled segment.
//  * Geometry changes (push_front/push_back/reset) unshare first: a
//    cloned buffer silently becomes private before its layout diverges.
//    Writing through data() on a shared buffer is the caller's bug —
//    call unshare() first (the IPsec transforms do).
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "packet/mbuf.hpp"

namespace nnfv::packet {

class PacketBuffer;
using PacketBurst = std::vector<PacketBuffer>;

class PacketBuffer {
 public:
  /// Default headroom leaves room for outer Ethernet+IPv4+ESP+IV on encap.
  static constexpr std::size_t kDefaultHeadroom = 128;
  /// Tailroom slack requested for heap-backed (oversize) segments so ESP
  /// trailer+ICV append does not immediately re-seat the buffer. Pooled
  /// segments have whatever the fixed stride leaves, which is plenty.
  static constexpr std::size_t kDefaultTailroom = 64;

  /// Empty buffer with no segment. push_back() lazily allocates from the
  /// caller's slot pool, which keeps `PacketBuffer b; b.push_back(n)`
  /// builders on the pooled path.
  PacketBuffer() = default;

  /// `size` uninitialised packet bytes from the calling slot's pool.
  static PacketBuffer alloc(std::size_t size,
                            std::size_t headroom = kDefaultHeadroom);

  /// Explicit deep copy of `data` into a fresh pooled segment — the
  /// replacement for the old implicit PacketBuffer(span) constructor,
  /// kept for tests and control-plane code off the hot path.
  static PacketBuffer copy_of(std::span<const std::uint8_t> data,
                              std::size_t headroom = kDefaultHeadroom);

  /// `count` empty buffers (length 0, default headroom) popped from the
  /// pool under a single lock acquisition.
  static PacketBurst alloc_burst(std::size_t count);

  /// Releases every buffer of `burst`, batching same-pool returns under
  /// one lock acquisition.
  static void free_burst(PacketBurst&& burst);

  ~PacketBuffer() { release(); }

  PacketBuffer(PacketBuffer&& other) noexcept
      : seg_(other.seg_), offset_(other.offset_), length_(other.length_) {
    other.seg_ = nullptr;
    other.offset_ = other.length_ = 0;
  }
  PacketBuffer& operator=(PacketBuffer&& other) noexcept {
    if (this != &other) {
      release();
      seg_ = other.seg_;
      offset_ = other.offset_;
      length_ = other.length_;
      other.seg_ = nullptr;
      other.offset_ = other.length_ = 0;
    }
    return *this;
  }
  PacketBuffer(const PacketBuffer&) = delete;
  PacketBuffer& operator=(const PacketBuffer&) = delete;

  /// Refcounted share: same segment, same view. O(1).
  [[nodiscard]] PacketBuffer clone() const;

  /// Deep copy into a fresh segment, preserving headroom.
  [[nodiscard]] PacketBuffer copy() const;

  /// True when another clone still references the segment.
  [[nodiscard]] bool shared() const {
    return seg_ != nullptr &&
           seg_->refcount.load(std::memory_order_acquire) > 1;
  }

  /// Makes the view private (deep copy) when shared; no-op otherwise.
  /// Call before writing through data() into a possibly-cloned buffer.
  void unshare() {
    if (shared()) *this = copy();
  }

  /// Bytes of the current packet (mutable view).
  std::span<std::uint8_t> data() {
    return seg_ == nullptr
               ? std::span<std::uint8_t>{}
               : std::span<std::uint8_t>{seg_->data() + offset_, length_};
  }
  [[nodiscard]] std::span<const std::uint8_t> data() const {
    return seg_ == nullptr ? std::span<const std::uint8_t>{}
                           : std::span<const std::uint8_t>{
                                 seg_->data() + offset_, length_};
  }

  [[nodiscard]] std::size_t size() const { return length_; }
  [[nodiscard]] bool empty() const { return length_ == 0; }
  [[nodiscard]] std::size_t headroom() const { return offset_; }
  [[nodiscard]] std::size_t tailroom() const {
    return seg_ == nullptr ? 0 : seg_->capacity - offset_ - length_;
  }
  [[nodiscard]] std::size_t capacity() const {
    return seg_ == nullptr ? 0 : seg_->capacity;
  }

  /// Drops the contents (keeping the segment) and re-centres the view at
  /// `headroom` with zero length, ready for an in-place rebuild.
  void reset(std::size_t headroom = kDefaultHeadroom);

  /// Prepends `n` bytes (uninitialised) and returns a span over them.
  /// Unshares first; re-seats into a fresh segment only when headroom is
  /// exhausted (counted as a pool alloc — the bench gate keeps the hot
  /// path honest).
  std::span<std::uint8_t> push_front(std::size_t n);

  /// Removes `n` bytes from the front (decapsulation). Pure offset
  /// bump — safe even on a shared buffer. n must be <= size().
  void pull_front(std::size_t n) {
    assert(n <= length_);
    offset_ += static_cast<std::uint32_t>(n);
    length_ -= static_cast<std::uint32_t>(n);
  }

  /// Appends `n` bytes (uninitialised) and returns a span over them.
  /// Unshares first; lazily allocates on an empty buffer.
  std::span<std::uint8_t> push_back(std::size_t n);

  /// Truncates to `n` bytes. Pure length adjustment. n must be <= size().
  void trim(std::size_t n) {
    assert(n <= length_);
    length_ = static_cast<std::uint32_t>(n);
  }

  /// Bounds are checked in debug builds only; the hot path stays a bare
  /// add in release builds.
  std::uint8_t& operator[](std::size_t i) {
    assert(i < length_ && "PacketBuffer index out of range");
    return seg_->data()[offset_ + i];
  }
  const std::uint8_t& operator[](std::size_t i) const {
    assert(i < length_ && "PacketBuffer index out of range");
    return seg_->data()[offset_ + i];
  }

 private:
  PacketBuffer(MbufSegment* seg, std::uint32_t offset, std::uint32_t length)
      : seg_(seg), offset_(offset), length_(length) {}

  void release();

  /// Moves the view into a freshly allocated segment with `headroom`
  /// bytes in front and at least `min_tailroom` behind.
  void reseat(std::size_t headroom, std::size_t min_tailroom);

  MbufSegment* seg_ = nullptr;
  std::uint32_t offset_ = 0;  // start of live data within seg_->data()
  std::uint32_t length_ = 0;
};

/// A burst of one frame: how the per-frame adapters enter the burst path.
inline PacketBurst burst_of(PacketBuffer&& frame) {
  PacketBurst burst;
  burst.push_back(std::move(frame));
  return burst;
}

/// Order-preserving per-port regrouping for the burst paths (LSI egress,
/// NF burst egress): frames bound for the same port stay in arrival
/// order; group discovery order is first-seen. Port counts per burst are
/// tiny, so group lookup is a linear scan. Each group reserves room for
/// `burst_size` frames when it is first seen, so regrouping a burst costs
/// one allocation per group, not one per doubling.
template <typename Port>
class BurstGroups {
 public:
  explicit BurstGroups(std::size_t burst_size) : burst_size_(burst_size) {}

  void add(Port port, PacketBuffer&& frame) {
    for (auto& [p, group] : groups_) {
      if (p == port) {
        group.push_back(std::move(frame));
        return;
      }
    }
    groups_.emplace_back(port, PacketBurst{});
    groups_.back().second.reserve(burst_size_);
    groups_.back().second.push_back(std::move(frame));
  }

  auto begin() { return groups_.begin(); }
  auto end() { return groups_.end(); }

  /// Forgets every group (after they have been sent).
  void clear() { groups_.clear(); }

 private:
  std::size_t burst_size_;
  std::vector<std::pair<Port, PacketBurst>> groups_;
};

}  // namespace nnfv::packet
