// The benchmark's workloads and the closed-loop op runner that drives them.
//
// Every workload runs on one fully wired harness::World, in one host
// process and one thread. Load is closed-loop: each rank posts its next op
// only after its own wait and a world barrier. An "op" is one all-rank
// exchange iteration, or one HPL solve.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "apps/hpl.h"
#include "probe.h"
#include "spans.h"

namespace perfbench {

enum class Kind { kGroupAlltoall, kBasicExchange, kHostAlltoall, kHplRing };

struct Workload {
  Kind kind;
  const char* name;
  std::size_t bytes;  ///< bytes per peer pair (exchange workloads)
  int ops;            ///< ops per World in the timed runs
};

/// nullptr when `name` is not a workload.
const Workload* find_workload(std::string_view name);

/// Inputs generated from the workload seed. The program receives only
/// these: the communicator order (alltoall workloads), each rank's peer
/// visit order (basic-exchange) or the matrix order (hpl-ring).
struct Plan {
  const Workload* wl = nullptr;
  std::uint64_t seed = 0;
  int nodes = 4;
  int ppn = 32;
  std::vector<int> order;
  long hpl_n = 0;
};

Plan make_plan(const Workload& wl, std::uint64_t seed, int nodes, int ppn);

struct RunConfig {
  int ops = 1;
  bool backed = false;   ///< byte-backed buffers, patterned and checked
  bool checker = false;  ///< protocol-invariant checker, incl. check_final
  /// Non-null for a traced run: the benchmark's spans go here, and
  /// World::enable_trace records fabric transfers for busy time.
  SpanLog* spans = nullptr;
  Probe* probe = nullptr;
};

/// Counters read from World::metrics() after the run, summed over the
/// cluster.
struct Counts {
  std::uint64_t events = 0;
  std::uint64_t wire_msgs = 0;   ///< Σ messages_rx: only NIC traffic counts rx
  std::uint64_t wire_bytes = 0;  ///< Σ bytes_rx
  std::uint64_t pcie_msgs = 0;   ///< Σ messages_tx − Σ messages_rx
  std::uint64_t pcie_bytes = 0;  ///< Σ bytes_tx − Σ bytes_rx
  std::uint64_t ctrl_msgs = 0;
  std::uint64_t proxy_jobs = 0;  ///< group jobs + basic pairs completed
  std::uint64_t retries = 0;
  std::uint64_t dup_dropped = 0;
  std::uint64_t group_hits = 0;
  std::uint64_t group_misses = 0;
  std::uint64_t gvmi_hits = 0;
  std::uint64_t gvmi_misses = 0;
  std::uint64_t ib_misses = 0;
  std::uint64_t mpi_hits = 0;
  std::uint64_t mpi_misses = 0;

  bool operator==(const Counts&) const = default;
};

struct RunResult {
  double setup_s = 0;  ///< World construction + launch
  double wall_s = 0;   ///< World::run
  std::vector<dpu::SimDuration> virt_op;  ///< barrier release to slowest rank done
  std::vector<double> host_op_ms;  ///< rank 0, op boundary to op boundary
  int failed_ops = 0;
  Counts counts;
  double wire_busy_us = 0;  ///< traced runs only
  double pcie_busy_us = 0;  ///< traced runs only
  std::vector<dpu::apps::HplStats> hpl;  ///< per solve (hpl-ring)
  std::vector<double> probe_ms;
};

/// Builds a World for `plan`, runs `cfg.ops` ops on every rank and returns
/// what was measured. Throws on a deadlock, a protocol-invariant violation
/// or a rank program error.
RunResult run_world(const Plan& plan, const RunConfig& cfg);

/// Host seconds to construct the World and launch every rank; the World is
/// then destroyed without running.
double setup_only(const Plan& plan);

}  // namespace perfbench
