// Learning bridge — the "linuxbridge" native function the paper lists.
//
// Classic 802.1D behaviour per context: learn source MAC -> port, forward
// to the learned port, flood unknown/broadcast to every other port. Entries
// age out after `aging_time`.
#pragma once

#include <map>

#include "nnf/network_function.hpp"
#include "packet/headers.hpp"

namespace nnfv::nnf {

class Bridge : public NetworkFunction {
 public:
  /// A bridge with `ports` ports (>= 2).
  explicit Bridge(std::size_t ports = 2);

  [[nodiscard]] std::string_view type() const override { return "bridge"; }
  [[nodiscard]] std::size_t num_ports() const override { return ports_; }

  /// Config keys: "aging_time_ms".
  util::Status configure(ContextId ctx, const NfConfig& config) override;

  std::vector<NfOutput> process_burst(ContextId ctx, NfPortIndex in_port,
                                      sim::SimTime now,
                                      packet::PacketBurst&& burst) override;

  util::Status remove_context(ContextId ctx) override;

  /// Size of the forwarding table of one context (tests).
  [[nodiscard]] std::size_t table_size(ContextId ctx) const;

  [[nodiscard]] const NfCounters& counters() const { return counters_; }

 private:
  struct FdbEntry {
    NfPortIndex port;
    sim::SimTime learned_at;
  };

  std::size_t ports_;
  sim::SimTime aging_time_ = 300 * sim::kSecond;
  std::map<ContextId, std::map<packet::MacAddress, FdbEntry>> fdb_;
  NfCounters counters_;
};

}  // namespace nnfv::nnf
