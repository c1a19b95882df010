// In-memory span tracing around the benchmark's calls into each layer.
//
// A span is (name, start, end, parent, burst id). Spans are opened and
// closed on the generator thread only, kept in a preallocated vector (so
// recording never allocates inside a timed section) and written to a CSV
// file when the run ends. A layer's self time is its span's duration minus
// the time its child spans cover.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace nfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The layer boundaries the benchmark wraps.
enum class SpanName : std::uint8_t {
  kRound,       ///< one closed-loop round (root)
  kInject,      ///< UniversalNode::inject_burst
  kDrain,       ///< UniversalNode::drain_datapath
  kSimRun,      ///< Simulator::run
  kIpsecEncap,  ///< standalone IpsecEndpoint::process_burst, red side
  kIpsecDecap,  ///< standalone IpsecEndpoint::process_burst, black side
  kNat,         ///< standalone Nat::process_burst
  kFirewall,    ///< standalone Firewall::process_burst
  kAdaptation,  ///< standalone AdaptationLayer::receive_burst
  kSeal,        ///< GcmContext::seal_mb
  kOpen,        ///< GcmContext::open_mb
  kLookup,      ///< FlowTable::lookup on a deployed LSI
  kCount
};

const char* span_name(SpanName name);

struct SpanRecord {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t burst = 0;
  std::int32_t parent = -1;
  std::uint32_t packets = 0;
  SpanName name = SpanName::kRound;
};

/// Sum of self time and packets of all spans with one name.
struct SpanTotals {
  double self_ns = 0.0;
  double packets = 0.0;

  [[nodiscard]] double ns_per_packet() const {
    return packets > 0.0 ? self_ns / packets : 0.0;
  }
};

class Tracer {
 public:
  /// A disabled tracer records nothing; Span costs one branch.
  explicit Tracer(bool enabled);

  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Burst id stamped on every span opened from now on.
  void set_burst(std::uint64_t burst) { burst_ = burst; }

  /// Opens a child of the innermost open span; -1 when full or disabled.
  std::int32_t open(SpanName name, std::uint32_t packets);
  void close(std::int32_t index);

  /// Self-time totals per span name.
  [[nodiscard]] std::array<SpanTotals,
                           static_cast<std::size_t>(SpanName::kCount)>
  totals() const;

  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  /// Writes name,start_ns,end_ns,parent,burst,packets rows; false on error.
  bool write_csv(const std::string& path) const;

 private:
  static constexpr std::size_t kMaxSpans = 1u << 21;

  bool enabled_;
  std::vector<SpanRecord> spans_;
  std::int32_t current_ = -1;
  std::uint64_t burst_ = 0;
  std::uint64_t dropped_ = 0;
};

/// RAII span: opened at construction, closed at destruction.
class Span {
 public:
  Span(Tracer& tracer, SpanName name, std::uint32_t packets = 0)
      : tracer_(tracer),
        index_(tracer.enabled() ? tracer.open(name, packets) : -1) {}
  ~Span() {
    if (index_ >= 0) tracer_.close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  std::int32_t index_;
};

}  // namespace nfbench
