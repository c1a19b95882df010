#include "trace.hpp"

#include <cstdio>

namespace nfbench {

const char* span_name(SpanName name) {
  switch (name) {
    case SpanName::kRound: return "round";
    case SpanName::kInject: return "core.inject";
    case SpanName::kDrain: return "exec.drain";
    case SpanName::kSimRun: return "sim.run";
    case SpanName::kIpsecEncap: return "nnf.ipsec.encap";
    case SpanName::kIpsecDecap: return "nnf.ipsec.decap";
    case SpanName::kNat: return "nnf.nat";
    case SpanName::kFirewall: return "nnf.firewall";
    case SpanName::kAdaptation: return "nnf.adaptation";
    case SpanName::kSeal: return "crypto.seal";
    case SpanName::kOpen: return "crypto.open";
    case SpanName::kLookup: return "switch.lookup";
    case SpanName::kCount: break;
  }
  return "?";
}

Tracer::Tracer(bool enabled) : enabled_(enabled) {
  if (enabled_) spans_.reserve(kMaxSpans);
}

std::int32_t Tracer::open(SpanName name, std::uint32_t packets) {
  if (!enabled_) return -1;
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return -1;
  }
  SpanRecord record;
  record.name = name;
  record.parent = current_;
  record.burst = burst_;
  record.packets = packets;
  record.start_ns = now_ns();
  spans_.push_back(record);
  current_ = static_cast<std::int32_t>(spans_.size() - 1);
  return current_;
}

void Tracer::close(std::int32_t index) {
  SpanRecord& record = spans_[static_cast<std::size_t>(index)];
  record.end_ns = now_ns();
  current_ = record.parent;
}

std::array<SpanTotals, static_cast<std::size_t>(SpanName::kCount)>
Tracer::totals() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::array<SpanTotals, static_cast<std::size_t>(SpanName::kCount)> out{};
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    SpanTotals& t = out[static_cast<std::size_t>(s.name)];
    t.self_ns += static_cast<double>(s.end_ns - s.start_ns) - child_ns[i];
    t.packets += s.packets;
  }
  return out;
}

bool Tracer::write_csv(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "name,start_ns,end_ns,parent,burst,packets\n");
  for (const SpanRecord& s : spans_) {
    std::fprintf(file, "%s,%lld,%lld,%d,%llu,%u\n", span_name(s.name),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.burst), s.packets);
  }
  return std::fclose(file) == 0;
}

}  // namespace nfbench
