// perfbench_bench: runs one benchmark workload in this process and prints
// one JSON result line. perfbench/run.py builds it and drives it.
//
//   perfbench_bench verify  --workload W --seed N
//       Byte-backed data pass (4 nodes x 4 PPN, patterned buffers checked)
//       and a full-scale pass under the protocol-invariant checker.
//   perfbench_bench measure --workload W --seed N --seconds S --trace 0|1
//                            [--spans FILE]
//       Fresh Worlds of K ops each, run back to back for S seconds. With
//       --trace 1 every untraced World is followed by a traced one, and
//       bare engine and fabric replays run at the end; the spans of the
//       first traced World go to FILE.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "fabric/fabric.h"
#include "sim/engine.h"
#include "workloads.h"

namespace {

using namespace dpu;
using namespace perfbench;
using Clock = std::chrono::steady_clock;

constexpr int kNodes = 4;
constexpr int kPpn = 32;

#ifdef __clang__
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

struct Options {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans;
};

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated percentile (numpy's default) of a sample.
double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return percentile(v, 50); }

std::string list(const std::vector<double>& v) {
  std::ostringstream os;
  os << std::setprecision(6) << "[";
  for (std::size_t i = 0; i < v.size(); ++i) os << (i ? ", " : "") << v[i];
  os << "]";
  return os.str();
}

/// The tail percentile reported for host ms per op. Every run collects at
/// least ten warm ops beyond it (kTailSamples); at the default run length
/// the slowest workload (basic-exchange, 0.4-0.6 s per op on a 4-core Xeon
/// VM) supports no higher rung of {75, 90, 95, 99}.
constexpr double kTailPctl = 75.0;
constexpr std::size_t kTailSamples = 40;

/// Host times are reported at a reference host speed: raw × kRefProbeMs /
/// the run's median Probe pass. On a shared 4-core Xeon VM, contention from
/// other tenants moved the simulator's speed by up to 1.7× between runs, and
/// raw host times of identical runs spread by 0.2-0.4 of their median; the
/// probe samples that speed at every op boundary. kRefProbeMs is the probe's typical time on that VM, so
/// scaled figures read as its ms. Raw figures and the probe median go to
/// the record.
constexpr double kRefProbeMs = 8.0;

/// Set-up-only Worlds (construct + launch, ~1 ms each) before every World.
constexpr int kSetupSamples = 10;

std::uint64_t fnv1a(const std::vector<SimDuration>& v) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (SimDuration d : v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (d >> (8 * b)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Ordered JSON object writer for the result line.
class Json {
 public:
  Json& num(const std::string& k, double v) {
    std::ostringstream os;
    os << std::setprecision(12) << v;
    return raw(k, os.str());
  }
  Json& str(const std::string& k, const std::string& v) {
    std::string esc;
    for (char c : v) {
      if (c == '"' || c == '\\') esc += '\\';
      esc += (c == '\n' ? ' ' : c);
    }
    return raw(k, "\"" + esc + "\"");
  }
  Json& boolean(const std::string& k, bool v) { return raw(k, v ? "true" : "false"); }
  Json& raw(const std::string& k, const std::string& v) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + k + "\": " + v);
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ---------------------------------------------------------------------------
// Bare layer replays
// ---------------------------------------------------------------------------

sim::Task<void> sleeper(sim::Engine& eng, std::uint64_t& left, std::uint64_t seed) {
  while (left > 0) {
    --left;
    co_await eng.sleep(from_ns(static_cast<double>(1 + lcg(seed) % 1000)));
  }
}

/// Host ns per event of a bare sim::Engine executing `events` coroutine
/// wakeups over 128 processes (one per simulated rank).
double engine_dispatch_ns(std::uint64_t events) {
  sim::Engine eng;
  std::uint64_t left = events;
  for (int p = 0; p < kNodes * kPpn; ++p) {
    eng.spawn(sleeper(eng, left, static_cast<std::uint64_t>(p) + 1), "replay");
  }
  const auto t0 = Clock::now();
  const auto rr = eng.run();
  const double wall = since(t0);
  sim_expect(rr == sim::RunResult::kCompleted, "engine replay did not complete");
  return 1e9 * wall / static_cast<double>(eng.events_executed());
}

/// Host ns per message of a bare fabric::Fabric carrying the workload's
/// message mix (wire vs PCIe count and mean size), sent in same-instant
/// batches through the callback flavour of Fabric::transfer.
double fabric_ns_per_msg(const Counts& c) {
  machine::ClusterSpec spec;
  spec.nodes = kNodes;
  spec.host_procs_per_node = kPpn;
  sim::Engine eng;
  fabric::Fabric fab(eng, spec);
  const std::uint64_t total = std::min<std::uint64_t>(c.wire_msgs + c.pcie_msgs, 2'000'000);
  const double pcie_share =
      static_cast<double>(c.pcie_msgs) / static_cast<double>(c.wire_msgs + c.pcie_msgs);
  const std::size_t wire_b = c.wire_msgs ? c.wire_bytes / c.wire_msgs : 64;
  const std::size_t pcie_b = c.pcie_msgs ? c.pcie_bytes / c.pcie_msgs : 64;
  constexpr std::uint64_t kBatch = 64;
  std::uint64_t delivered = 0;
  double pcie_acc = 0;
  for (std::uint64_t first = 0; first < total; first += kBatch) {
    const std::uint64_t n = std::min(kBatch, total - first);
    eng.schedule_at(from_us(static_cast<double>(first / kBatch)), [&, first, n] {
      for (std::uint64_t i = first; i < first + n; ++i) {
        const int src = static_cast<int>(i % kNodes);
        pcie_acc += pcie_share;
        if (pcie_acc >= 1.0) {
          pcie_acc -= 1.0;
          fab.transfer(src, src, pcie_b, [&delivered] { ++delivered; }, (i & 1) != 0);
        } else {
          const int dst = static_cast<int>((static_cast<std::uint64_t>(src) + 1 +
                                            (i / kNodes) % (kNodes - 1)) %
                                           kNodes);
          fab.transfer(src, dst, wire_b, [&delivered] { ++delivered; });
        }
      }
    });
  }
  const auto t0 = Clock::now();
  (void)eng.run();
  const double wall = since(t0);
  sim_expect(delivered == total, "fabric replay lost messages");
  return 1e9 * wall / static_cast<double>(total);
}

// ---------------------------------------------------------------------------
// Modes
// ---------------------------------------------------------------------------

int verify(const Options& opt, const Workload& wl) {
  int attempted = 0;
  int failed = 0;
  std::string error;
  try {
    RunConfig data;
    data.ops = 3;
    data.backed = true;
    data.checker = true;
    const auto small = run_world(make_plan(wl, opt.seed, kNodes, 4), data);
    attempted += data.ops;
    failed += small.failed_ops;

    RunConfig checked;
    checked.ops = 2;
    checked.checker = true;
    Plan full = make_plan(wl, opt.seed, kNodes, kPpn);
    if (wl.kind == Kind::kHplRing) full.hpl_n /= 4;  // a short solve
    const auto big = run_world(full, checked);
    attempted += checked.ops;
    failed += big.failed_ops;
  } catch (const std::exception& e) {
    error = e.what();
  }
  std::cout << Json()
                   .str("mode", "verify")
                   .boolean("ok", error.empty() && failed == 0)
                   .num("attempted", attempted)
                   .num("failed", failed)
                   .str("error", error)
                   .text()
            << std::endl;
  return 0;
}

/// Per-rank mean virtual µs of the named spans over warm ops.
double span_mean_us(const SpanLog& log, const char* name) {
  double sum = 0;
  int n = 0;
  for (const auto& s : log.spans()) {
    if (s.op >= 1 && s.rank >= 0 && std::strcmp(s.name, name) == 0) {
      sum += to_us(s.vend - s.vbeg);
      ++n;
    }
  }
  return n ? sum / n : 0.0;
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

int measure(const Options& opt, const Workload& wl) {
  const Plan plan = make_plan(wl, opt.seed, kNodes, kPpn);
  RunConfig cfg;
  cfg.ops = wl.ops;
  const auto t_start = Clock::now();

  std::vector<double> setup;
  // With --trace 1, traced Worlds alternate with untraced ones, so both
  // halves see the same host conditions. A World is not started when it
  // would end more than half a World past the budget, unless the reported
  // tail percentile (--trace 0) still lacks samples.
  std::vector<RunResult> reps;
  std::vector<RunResult> traced;
  SpanLog spans;
  double round_s = 0;
  std::size_t warm_ops = 0;
  Probe probe;
  cfg.probe = &probe;
  std::vector<double> probe_ms;  // untraced Worlds
  while (reps.size() < 2 || (!opt.trace && warm_ops < kTailSamples) ||
         since(t_start) + round_s / 2 < opt.seconds) {
    const auto t_round = Clock::now();
    // Set-up samples are spread over the run like the probe's.
    for (int i = 0; i < kSetupSamples; ++i) setup.push_back(setup_only(plan));
    reps.push_back(run_world(plan, cfg));
    probe_ms.insert(probe_ms.end(), reps.back().probe_ms.begin(), reps.back().probe_ms.end());
    warm_ops += static_cast<std::size_t>(cfg.ops - 1);
    if (opt.trace) {
      SpanLog log;
      RunConfig tcfg = cfg;
      tcfg.spans = &log;
      traced.push_back(run_world(plan, tcfg));
      if (traced.size() == 1) spans = std::move(log);
    }
    round_s = since(t_round);
  }

  std::string error;
  int attempted = 0;
  int failed = 0;
  for (const auto* set : {&reps, &traced}) {
    for (const auto& r : *set) {
      if (r.virt_op != reps[0].virt_op || !(r.counts == reps[0].counts)) {
        error = "virtual time or counters differ between identical Worlds";
      }
      attempted += cfg.ops;
      failed += r.failed_ops;
    }
  }
  std::vector<double> walls;
  std::vector<double> warm_host_ms;
  std::vector<double> growth;
  const std::size_t quarter = std::max<std::size_t>(1, (cfg.ops - 1) / 4);
  for (const auto& r : reps) {
    walls.push_back(r.wall_s);
    setup.push_back(r.setup_s);
    const std::vector<double> warm(r.host_op_ms.begin() + 1, r.host_op_ms.end());
    warm_host_ms.insert(warm_host_ms.end(), warm.begin(), warm.end());
    growth.push_back(median({warm.end() - quarter, warm.end()}) /
                     median({warm.begin(), warm.begin() + quarter}));
  }
  const RunResult& r0 = reps[0];
  std::vector<double> virt_warm;
  for (std::size_t i = 1; i < r0.virt_op.size(); ++i) virt_warm.push_back(to_us(r0.virt_op[i]));

  const double probe_med = median(probe_ms);
  const double scale = kRefProbeMs / probe_med;
  Json raw;
  raw.num("probe_ms", probe_med)
      .num("sim_wall_s", median(walls))
      .num("host_op_ms_p50", median(warm_host_ms))
      .num("host_op_ms_tail", percentile(warm_host_ms, kTailPctl))
      .num("setup_s", median(setup));
  Json e2e;
  e2e.num("sim_wall_s", scale * median(walls))
      .num("host_op_ms_p50", scale * median(warm_host_ms))
      .num("host_op_ms_tail", scale * percentile(warm_host_ms, kTailPctl))
      .num("virt_op_us_p50", median(virt_warm))
      .num("virt_cold_op_us", to_us(r0.virt_op[0]))
      .num("setup_s", scale * median(setup))
      .num("peak_rss_mb", peak_rss_mb());

  Json layer;
  if (opt.trace) {
    std::vector<double> traced_walls;
    for (const auto& r : traced) traced_walls.push_back(r.wall_s);
    const RunResult& t0 = traced[0];
    if (!opt.spans.empty()) {
      std::ofstream os(opt.spans);
      spans.write_chrome(os);
    }
    const Counts& c = r0.counts;
    const double ops = cfg.ops;
    const bool offload = wl.kind == Kind::kGroupAlltoall || wl.kind == Kind::kBasicExchange;
    double bcast_wait = 0;
    double compute = 0;
    for (std::size_t i = 1; i < r0.hpl.size(); ++i) {
      bcast_wait += r0.hpl[i].bcast_wait_us / (ops - 1);
      compute += r0.hpl[i].compute_us / (ops - 1);
    }
    layer.num("sim.events_per_op", static_cast<double>(c.events) / ops)
        .num("sim.host_ns_per_event", scale * 1e9 * median(walls) / static_cast<double>(c.events))
        .num("sim.dispatch_ns_per_event", scale * engine_dispatch_ns(c.events))
        .num("fabric.wire_msgs_per_op", static_cast<double>(c.wire_msgs) / ops)
        .num("fabric.pcie_msgs_per_op", static_cast<double>(c.pcie_msgs) / ops)
        .num("fabric.wire_bytes_per_op", static_cast<double>(c.wire_bytes) / ops)
        .num("fabric.host_ns_per_msg", scale * fabric_ns_per_msg(c))
        .num("fabric.wire_busy_us_per_op", t0.wire_busy_us / ops)
        .num("fabric.pcie_busy_us_per_op", t0.pcie_busy_us / ops)
        .num("verbs.registrations_per_op",
             static_cast<double>(c.gvmi_misses + c.ib_misses + c.mpi_misses) / ops)
        .num("offload.ctrl_msgs_per_op", static_cast<double>(c.ctrl_msgs) / ops)
        .num("offload.group_cache_hit_ratio", ratio(c.group_hits, c.group_hits + c.group_misses))
        .num("offload.group_cache_lookups_per_op",
             static_cast<double>(c.group_hits + c.group_misses) / ops)
        .num("offload.gvmi_cache_hit_ratio", ratio(c.gvmi_hits, c.gvmi_hits + c.gvmi_misses))
        .num("offload.gvmi_cache_lookups_per_op",
             static_cast<double>(c.gvmi_hits + c.gvmi_misses) / ops)
        .num("mpi.reg_cache_hit_ratio", ratio(c.mpi_hits, c.mpi_hits + c.mpi_misses))
        .num("mpi.reg_cache_lookups_per_op", static_cast<double>(c.mpi_hits + c.mpi_misses) / ops)
        .num("offload.proxy_jobs_per_op", static_cast<double>(c.proxy_jobs) / ops)
        .num("offload.retries", static_cast<double>(c.retries))
        .num("offload.dup_dropped", static_cast<double>(c.dup_dropped))
        .num("offload.post_virt_us", offload ? span_mean_us(spans, "post") : 0.0)
        .num("offload.wait_virt_us", offload ? span_mean_us(spans, "wait") : 0.0)
        .num("mpi.post_virt_us", offload ? 0.0 : span_mean_us(spans, "post"))
        .num("mpi.wait_virt_us", offload ? 0.0 : span_mean_us(spans, "wait"))
        .num("mpi.barrier_virt_us", span_mean_us(spans, "barrier"))
        .num("apps.bcast_wait_virt_us", bcast_wait)
        .num("apps.compute_virt_us", compute)
        .num("host_op_ms_growth", median(growth))
        .num("tracing_overhead_pct", 100.0 * (median(traced_walls) / median(walls) - 1.0))
        .num("host_op_tail_pctl", kTailPctl)
        .num("host_op_samples", static_cast<double>(warm_host_ms.size()))
        .num("failed_op_frac", static_cast<double>(failed) / attempted)
        .num("host.probe_ms", probe_med);
  }

  std::ostringstream digest;
  digest << std::hex << std::setw(16) << std::setfill('0') << fnv1a(r0.virt_op);
  std::cout << Json()
                   .str("mode", "measure")
                   .boolean("ok", error.empty() && failed == 0)
                   .str("error", error)
                   .num("attempted", attempted)
                   .num("failed", failed)
                   .num("worlds", static_cast<double>(reps.size()))
                   .raw("world_wall_s", list(walls))
                   .num("ops_per_world", cfg.ops)
                   .num("tail_pctl", kTailPctl)
                   .num("host_op_samples", static_cast<double>(warm_host_ms.size()))
                   .num("failed_op_frac", static_cast<double>(failed) / attempted)
                   .str("virt_digest", digest.str())
                   .num("hpl_n", static_cast<double>(plan.hpl_n))
                   .str("build_type", PERFBENCH_BUILD_TYPE)
                   .str("compiler", kCompiler)
                   .raw("raw", raw.text())
                   .raw("e2e", e2e.text())
                   .raw("layer", layer.text())
                   .text()
            << std::endl;
  return 0;
}

bool parse(int argc, char** argv, Options& opt) {
  if (argc < 2) return false;
  opt.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      opt.workload = v;
    } else if (k == "--seed") {
      opt.seed = std::stoull(v);
    } else if (k == "--seconds") {
      opt.seconds = std::stod(v);
    } else if (k == "--trace") {
      opt.trace = v == "1";
    } else if (k == "--spans") {
      opt.spans = v;
    } else {
      return false;
    }
  }
  return (opt.mode == "verify" || opt.mode == "measure") && (argc % 2) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::cerr << "usage: perfbench_bench verify|measure --workload W --seed N "
                 "[--seconds S] [--trace 0|1] [--spans FILE]\n";
    return 2;
  }
  const Workload* wl = find_workload(opt.workload);
  if (wl == nullptr) {
    std::cerr << "unknown workload: " << opt.workload << "\n";
    return 2;
  }
  try {
    return opt.mode == "verify" ? verify(opt, *wl) : measure(opt, *wl);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_bench: " << e.what() << "\n";
    return 1;
  }
}
