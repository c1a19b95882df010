// Tuple-space flow classifier: the lookup engine behind FlowTable.
//
// Entries are grouped by their wildcard *mask signature* — the set of
// specified match fields plus the two IP prefix lengths. Every entry in a
// group is an exact match over the same masked fields, so each group is an
// O(1) hash probe on the packet's masked key. Groups are probed in
// descending max-priority order with early exit, which preserves the
// table's documented highest-priority / earliest-added-wins semantics
// while turning the per-packet cost from O(entries) into O(groups).
//
// LSI-0 style classifiers (thousands of per-graph rules sharing one or two
// match shapes) collapse into one or two groups; an adversarial table can
// still create many groups, but never more than distinct match shapes.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "switch/flow_match.hpp"

namespace nnfv::nfswitch {

struct FlowEntry;

/// The canonical per-packet key: every field a FlowMatch can examine,
/// decoded and normalised once per lookup (VLAN: kMatchUntagged when the
/// frame carries no tag, so untagged-match and VID-match unify into exact
/// equality). The datapath fills it with packet::decode_flow_key.
struct FlowKeyView : packet::FlowKey {
  static FlowKeyView from_context(const FlowContext& ctx);

  /// Hash over every field — used by the microflow cache.
  [[nodiscard]] std::uint64_t hash() const;
};

/// Which fields a FlowMatch specifies, plus its IP prefix lengths.
struct MaskSignature {
  enum Field : std::uint16_t {
    kInPort = 1 << 0,
    kEthSrc = 1 << 1,
    kEthDst = 1 << 2,
    kEthType = 1 << 3,
    kVlan = 1 << 4,
    kIpSrc = 1 << 5,
    kIpDst = 1 << 6,
    kIpProto = 1 << 7,
    kTpSrc = 1 << 8,
    kTpDst = 1 << 9,
    /// Any L3/L4 field present: the packet must be IPv4 even when the
    /// specified prefixes are /0.
    kNeedsIpv4 = 1 << 10,
    kNeedsL4Src = 1 << 11,
    kNeedsL4Dst = 1 << 12,
  };

  std::uint16_t fields = 0;
  std::uint8_t ip_src_prefix = 0;  ///< meaningful iff kIpSrc
  std::uint8_t ip_dst_prefix = 0;  ///< meaningful iff kIpDst

  static MaskSignature of(const FlowMatch& match);

  bool operator==(const MaskSignature&) const = default;
};

class TupleSpaceClassifier {
 public:
  /// Rebuilds all groups from `entries`, which must be sorted by
  /// (priority desc, id asc) — bucket order inherits it.
  void rebuild(const std::vector<FlowEntry*>& entries);

  /// Best match per the table semantics, or nullptr.
  [[nodiscard]] FlowEntry* match(const FlowKeyView& key) const;

  [[nodiscard]] std::size_t group_count() const { return groups_.size(); }

 private:
  /// Masked key of one group: the specified fields only, IPs pre-masked.
  struct MaskedKey {
    std::uint64_t h = 0;  ///< precomputed hash over the masked fields
    FlowKeyView k;        ///< unspecified fields left zeroed

    bool operator==(const MaskedKey& o) const { return h == o.h && k == o.k; }
  };
  struct MaskedKeyHash {
    std::size_t operator()(const MaskedKey& key) const noexcept {
      return static_cast<std::size_t>(key.h);
    }
  };

  struct Group {
    MaskSignature signature;
    std::uint16_t max_priority = 0;
    /// Bucket entries keep table order, so bucket.front() is the bucket's
    /// winner (entries in one bucket have *identical* match patterns).
    std::unordered_map<MaskedKey, std::vector<FlowEntry*>, MaskedKeyHash>
        buckets;
  };

  /// Masked key of `match` (entry side). Assumes signature == of(match).
  static MaskedKey entry_key(const FlowMatch& match,
                             const MaskSignature& sig);
  /// Masked key of a packet under `sig`; false when the packet cannot
  /// match the group at all (e.g. non-IP packet in an IP group).
  static bool packet_key(const FlowKeyView& key, const MaskSignature& sig,
                         MaskedKey& out);

  std::vector<Group> groups_;  ///< sorted by max_priority desc
};

}  // namespace nnfv::nfswitch
