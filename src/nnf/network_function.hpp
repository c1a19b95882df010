// NetworkFunction: the functional (packet-transforming) core of an NF,
// independent of the execution backend.
//
// The same function logic runs as a native NF, a Docker container or a VM —
// exactly the paper's premise: it is the *wrapping* that differs (cost,
// RAM, image), not the function. Backends therefore wrap one of these
// objects; virt::CostModel supplies the wrapping's timing.
//
// Contexts: a *sharable* NNF serves several service graphs at once by
// keeping "multiple internal paths" (paper §2). Each path is a context id;
// non-sharable functions only accept kDefaultContext.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "json/json.hpp"
#include "packet/buffer.hpp"
#include "sim/time.hpp"
#include "util/atomics.hpp"
#include "util/status.hpp"

namespace nnfv::nnf {

using ContextId = std::uint32_t;
inline constexpr ContextId kDefaultContext = 0;

/// Logical NF port index (0-based). Port meanings are per-function
/// (e.g. NAT: 0 = inside, 1 = outside).
using NfPortIndex = std::uint32_t;

/// Key/value configuration, the "predefined configuration script" contents.
using NfConfig = std::map<std::string, std::string>;

/// A frame emitted by an NF, with the logical port it leaves through.
struct NfOutput {
  NfPortIndex port = 0;
  packet::PacketBuffer frame;
};

class NetworkFunction {
 public:
  virtual ~NetworkFunction() = default;

  /// Functional type name ("bridge", "firewall", "nat", "ipsec").
  [[nodiscard]] virtual std::string_view type() const = 0;

  /// Number of logical ports.
  [[nodiscard]] virtual std::size_t num_ports() const = 0;

  /// Creates an isolated internal path. Context 0 always exists.
  virtual util::Status add_context(ContextId ctx);
  virtual util::Status remove_context(ContextId ctx);
  [[nodiscard]] virtual bool has_context(ContextId ctx) const;

  /// Applies configuration to one context. Unknown keys are rejected so
  /// misspelled configs fail loudly.
  virtual util::Status configure(ContextId ctx, const NfConfig& config) = 0;

  /// THE datapath entry point: processes a whole burst arriving on
  /// `in_port` of context `ctx` at simulated time `now`, in arrival
  /// order, and returns every output frame in one vector (reserved once
  /// per burst). Per-burst state — context lookup, locks, counters — is
  /// resolved and published once per call, not once per frame.
  virtual std::vector<NfOutput> process_burst(ContextId ctx,
                                              NfPortIndex in_port,
                                              sim::SimTime now,
                                              packet::PacketBurst&& burst) = 0;

  /// One frame: a burst of 1 through process_burst(). Kept for control
  /// paths and tests; the datapath always calls process_burst().
  virtual std::vector<NfOutput> process(ContextId ctx, NfPortIndex in_port,
                                        sim::SimTime now,
                                        packet::PacketBuffer&& frame);

  /// Live per-context status counters as JSON, surfaced through the REST
  /// status path (GET /NF-FG/{id}/VNFs/{nf}/stats). The default reports
  /// nothing; functions with operational state (IPsec SA lifecycle, NAT
  /// pools) override.
  [[nodiscard]] virtual json::Value describe_stats(ContextId /*ctx*/) const {
    return json::Object{};
  }

 protected:
  /// Helper for subclasses with simple context sets.
  [[nodiscard]] util::Status require_context(ContextId ctx) const;
  /// Kept sorted ascending; contains kDefaultContext from construction.
  std::vector<ContextId> contexts_{kDefaultContext};
};

/// Per-function packet counters, kept by implementations that need them.
/// Relaxed atomics: datapath workers bump them concurrently (docs §6).
struct NfCounters {
  util::RelaxedCounter in_packets;
  util::RelaxedCounter out_packets;
  util::RelaxedCounter dropped;
  util::RelaxedCounter errors;
};

/// A burst's NfCounters increments, summed in plain locals and published
/// with one atomic add per counter when the burst is done.
struct NfTally {
  std::uint64_t in_packets = 0;
  std::uint64_t out_packets = 0;
  std::uint64_t dropped = 0;
  std::uint64_t errors = 0;

  void publish(NfCounters& counters) const {
    if (in_packets != 0) counters.in_packets += in_packets;
    if (out_packets != 0) counters.out_packets += out_packets;
    if (dropped != 0) counters.dropped += dropped;
    if (errors != 0) counters.errors += errors;
  }
};

}  // namespace nnfv::nnf
