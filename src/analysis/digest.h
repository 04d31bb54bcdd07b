// Canonical run digests for the determinism race detector.
//
// A RunRecord is a compact, order-insensitive snapshot of everything a
// finished simulation observably produced: every metrics counter and gauge,
// every trace span (canonically sorted), and the final virtual time. Two
// runs of the same workload are "identical" iff their RunRecords hash equal;
// the record also keeps the rendered values so a divergence can be reported
// as the first differing counter / trace event instead of two bare hashes.
//
// The canonical span order is (begin, end, actor, category, label) — NOT the
// recording order. Spans are emitted by concurrently progressing actors, so
// their append order is itself schedule-dependent; sorting by content makes
// the digest a function of *what happened when*, not of which coroutine got
// to the Trace vector first.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/units.h"

namespace dpu::sim {
class Engine;
class Trace;
}  // namespace dpu::sim

namespace dpu::analysis {

/// FNV-1a (64-bit) accumulator. Chosen over std::hash for a stable value
/// across libstdc++ versions — digests land in regression tests.
class Digest {
 public:
  void mix_bytes(const void* data, std::size_t n);
  void mix(std::uint64_t v);
  void mix(const std::string& s);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Observable end-state of one finished simulation run.
struct RunRecord {
  std::uint64_t metrics_digest = 0;
  std::uint64_t trace_digest = 0;
  SimTime final_time = 0;
  /// Rendered "name=value" counter/gauge lines, sorted by name (the same
  /// order the digest consumed them in).
  std::vector<std::string> metric_lines;
  /// Rendered spans in canonical order; empty when the run had no Trace.
  std::vector<std::string> trace_lines;

  /// Combined digest over metrics, trace and final time.
  std::uint64_t digest() const;
  bool operator==(const RunRecord& o) const { return digest() == o.digest(); }
};

/// Snapshots `eng`'s metrics registry (and `trace`, when non-null) into a
/// RunRecord. Call after Engine::run returned.
RunRecord capture_run(const sim::Engine& eng, const sim::Trace* trace);

/// Human-readable first divergence between two records: the first trace
/// event present/differing between them, else the first differing metric
/// line, else the final-time delta. Empty string when equal.
std::string diff_records(const RunRecord& baseline, const RunRecord& other);

}  // namespace dpu::analysis
