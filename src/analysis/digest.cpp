#include "analysis/digest.h"

#include <algorithm>
#include <sstream>

#include "sim/engine.h"
#include "sim/trace.h"

namespace dpu::analysis {

void Digest::mix_bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ull;
  }
}

void Digest::mix(std::uint64_t v) { mix_bytes(&v, sizeof(v)); }

void Digest::mix(const std::string& s) {
  mix(static_cast<std::uint64_t>(s.size()));
  mix_bytes(s.data(), s.size());
}

std::uint64_t RunRecord::digest() const {
  Digest d;
  d.mix(metrics_digest);
  d.mix(trace_digest);
  d.mix(static_cast<std::uint64_t>(final_time));
  return d.value();
}

RunRecord capture_run(const sim::Engine& eng, const sim::Trace* trace) {
  RunRecord rec;
  rec.final_time = eng.now();
  Digest md;
  eng.metrics().for_each_counter([&](const std::string& name, std::uint64_t v) {
    // Scheduler-effort counters measure how the event loop ran, not what the
    // simulated system did: a tie permutation legally changes how often a
    // progress loop wakes to find nothing to do. Everything else must match.
    if (name == "engine.events_executed") return;
    rec.metric_lines.push_back(name + "=" + std::to_string(v));
    md.mix(name);
    md.mix(v);
  });
  eng.metrics().for_each_gauge([&](const std::string& name, double v) {
    std::ostringstream os;
    os << name << "=" << v;
    rec.metric_lines.push_back(os.str());
    md.mix(rec.metric_lines.back());
  });
  rec.metrics_digest = md.value();

  if (trace != nullptr) {
    std::vector<const sim::TraceSpan*> order;
    order.reserve(trace->spans().size());
    for (const auto& s : trace->spans()) order.push_back(&s);
    std::sort(order.begin(), order.end(), [](const sim::TraceSpan* a, const sim::TraceSpan* b) {
      if (a->begin != b->begin) return a->begin < b->begin;
      if (a->end != b->end) return a->end < b->end;
      if (a->actor != b->actor) return a->actor < b->actor;
      if (a->category != b->category) return a->category < b->category;
      return a->label < b->label;
    });
    Digest td;
    rec.trace_lines.reserve(order.size());
    for (const auto* s : order) {
      std::ostringstream os;
      os << "[" << s->begin << ".." << s->end << "] " << s->actor << " " << s->category << " "
         << s->label;
      rec.trace_lines.push_back(os.str());
      td.mix(rec.trace_lines.back());
    }
    rec.trace_digest = td.value();
  }
  return rec;
}

std::string diff_records(const RunRecord& baseline, const RunRecord& other) {
  const std::size_t nt = std::min(baseline.trace_lines.size(), other.trace_lines.size());
  for (std::size_t i = 0; i < nt; ++i) {
    if (baseline.trace_lines[i] != other.trace_lines[i]) {
      return "first diverging trace event (#" + std::to_string(i) + "): baseline {" +
             baseline.trace_lines[i] + "} vs {" + other.trace_lines[i] + "}";
    }
  }
  if (baseline.trace_lines.size() != other.trace_lines.size()) {
    const bool more = other.trace_lines.size() > nt;
    const auto& extra = more ? other.trace_lines[nt] : baseline.trace_lines[nt];
    return std::string("trace length differs (") + std::to_string(baseline.trace_lines.size()) +
           " vs " + std::to_string(other.trace_lines.size()) + "); first extra event " +
           (more ? "in replica" : "in baseline") + ": {" + extra + "}";
  }
  const std::size_t nm = std::min(baseline.metric_lines.size(), other.metric_lines.size());
  for (std::size_t i = 0; i < nm; ++i) {
    if (baseline.metric_lines[i] != other.metric_lines[i]) {
      return "first diverging metric: baseline {" + baseline.metric_lines[i] + "} vs {" +
             other.metric_lines[i] + "}";
    }
  }
  if (baseline.metric_lines.size() != other.metric_lines.size()) {
    return "metric count differs (" + std::to_string(baseline.metric_lines.size()) + " vs " +
           std::to_string(other.metric_lines.size()) + ")";
  }
  if (baseline.final_time != other.final_time) {
    return "final virtual time differs: " + std::to_string(baseline.final_time) + " vs " +
           std::to_string(other.final_time);
  }
  return "";
}

}  // namespace dpu::analysis
