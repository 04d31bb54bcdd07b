// In-memory span log for the benchmark's traced run.
//
// Spans are recorded only by the benchmark's own code, around the calls it
// makes into the simulator's layers (World construction, World::run, and
// each rank's barrier / post / wait). Each span carries both clocks: the
// simulated (virtual) interval and the host steady_clock interval. The log
// is written once, after the run, as Chrome trace-event JSON.
#pragma once

#include <chrono>
#include <cstdint>
#include <iomanip>
#include <ostream>
#include <vector>

#include "common/units.h"
#include "sim/engine.h"

namespace perfbench {

struct Span {
  const char* name = "";
  int rank = -1;    ///< host rank, -1 for world-level spans
  int op = -1;      ///< op id, -1 outside the op loop
  int parent = -1;  ///< index of the enclosing span, -1 for roots
  dpu::SimTime vbeg = 0;
  dpu::SimTime vend = 0;
  std::int64_t hbeg_ns = 0;  ///< host time since the log was created
  std::int64_t hend_ns = 0;
};

class SpanLog {
 public:
  SpanLog() : origin_(std::chrono::steady_clock::now()) {}

  int open(const char* name, int rank, int op, int parent, dpu::SimTime vnow) {
    spans_.push_back({name, rank, op, parent, vnow, vnow, host_ns(), 0});
    return static_cast<int>(spans_.size()) - 1;
  }

  void close(int id, dpu::SimTime vnow) {
    auto& s = spans_[static_cast<std::size_t>(id)];
    s.vend = vnow;
    s.hend_ns = host_ns();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace-event JSON: one complete event per span on the virtual
  /// timeline (pid 1, µs of simulated time) and one on the host timeline
  /// (pid 2, µs of wall time); tid is the rank (world-level spans use -1).
  void write_chrome(std::ostream& os) const {
    os << std::setprecision(15) << "{\"traceEvents\":[\n";
    bool first = true;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double clocks[2][2] = {
          {dpu::to_us(s.vbeg), dpu::to_us(s.vend - s.vbeg)},
          {static_cast<double>(s.hbeg_ns) * 1e-3,
           static_cast<double>(s.hend_ns - s.hbeg_ns) * 1e-3}};
      for (int pid = 1; pid <= 2; ++pid) {
        os << (first ? "" : ",\n") << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":"
           << pid << ",\"tid\":" << s.rank << ",\"ts\":" << clocks[pid - 1][0]
           << ",\"dur\":" << clocks[pid - 1][1] << ",\"args\":{\"id\":" << i
           << ",\"op\":" << s.op << ",\"parent\":" << s.parent << "}}";
        first = false;
      }
    }
    os << "\n]}\n";
  }

 private:
  std::int64_t host_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it when the scope ends; a null
/// log (the untraced runs) makes both a no-op.
class SpanScope {
 public:
  SpanScope(SpanLog* log, dpu::sim::Engine& eng, const char* name, int rank, int op,
            int parent)
      : log_(log), eng_(eng), id_(log ? log->open(name, rank, op, parent, eng.now()) : -1) {}
  ~SpanScope() {
    if (log_) log_->close(id_, eng_.now());
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  int id() const { return id_; }

 private:
  SpanLog* log_;
  dpu::sim::Engine& eng_;
  int id_;
};

}  // namespace perfbench
