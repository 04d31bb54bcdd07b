// Ablation: schedule-race detection via the tie-shuffle matrix.
//
// Replays each protocol regime of the offload stack under the engine's
// tie-shuffle mode: seed 0 is the legacy FIFO tie order, every other seed
// dispatches same-virtual-time events in a deterministically permuted
// order. A workload whose RunRecord (metrics digest + canonical trace
// digest + final virtual time) matches across all seeds is schedule-race
// free; a divergence is printed with the first differing trace event. A
// planted non-commutative tie rides along to prove the detector detects.
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/determinism.h"
#include "analysis/digest.h"
#include "bench/bench_common.h"
#include "common/bytes.h"
#include "offload/coll.h"

namespace {

using namespace dpu;
using harness::Rank;
using harness::World;

analysis::RunRecord run_pingpong(std::uint64_t tie_seed) {
  machine::ClusterSpec s = bench::spec_of(2, 1, /*proxies=*/1);
  World w(s);
  w.engine().set_tie_shuffle_seed(tie_seed);
  auto& tr = w.enable_trace();
  const std::size_t len = 32_KiB;  // above eager: full RTS/RTR rendezvous
  constexpr int kIters = 3;
  w.launch(0, [len](Rank& r) -> sim::Task<void> {
    const auto buf = r.mem().alloc(len);
    for (int i = 0; i < kIters; ++i) {
      r.mem().write(buf, pattern_bytes(static_cast<std::uint64_t>(100 + i), len));
      auto qs = co_await r.off->send_offload(buf, len, 1, i);
      require(co_await r.off->wait(qs) == offload::Status::kOk, "pingpong send");
      auto qr = co_await r.off->recv_offload(buf, len, 1, 1000 + i);
      require(co_await r.off->wait(qr) == offload::Status::kOk, "pingpong recv");
    }
  });
  w.launch(1, [len](Rank& r) -> sim::Task<void> {
    const auto buf = r.mem().alloc(len);
    for (int i = 0; i < kIters; ++i) {
      auto qr = co_await r.off->recv_offload(buf, len, 0, i);
      require(co_await r.off->wait(qr) == offload::Status::kOk, "pingpong recv");
      auto qs = co_await r.off->send_offload(buf, len, 0, 1000 + i);
      require(co_await r.off->wait(qs) == offload::Status::kOk, "pingpong send");
    }
  });
  w.run();
  return analysis::capture_run(w.engine(), &tr);
}

analysis::RunRecord run_group_alltoall(std::uint64_t tie_seed, machine::ClusterSpec s) {
  World w(s);
  w.engine().set_tie_shuffle_seed(tie_seed);
  auto& tr = w.enable_trace();
  const int n = w.spec().total_host_ranks();
  const std::size_t b = 4_KiB;
  w.launch_all([n, b](Rank& r) -> sim::Task<void> {
    const int me = r.rank;
    const auto nn = static_cast<std::size_t>(n);
    const auto sbuf = r.mem().alloc(b * nn);
    const auto rbuf = r.mem().alloc(b * nn);
    offload::GroupAlltoall a2a(*r.off, *r.mpi);
    for (int it = 0; it < 2; ++it) {
      for (int d = 0; d < n; ++d) {
        r.mem().write(sbuf + static_cast<machine::Addr>(d) * b,
                      pattern_bytes(static_cast<std::uint64_t>(1000 * it + me * n + d), b));
      }
      auto req = co_await a2a.icall(sbuf, rbuf, b, r.world->mpi().world());
      require(co_await a2a.wait(req) == offload::Status::kOk, "alltoall wait");
    }
  });
  w.run();
  return analysis::capture_run(w.engine(), &tr);
}

analysis::RunRecord run_alltoall_clean(std::uint64_t tie_seed) {
  return run_group_alltoall(tie_seed, bench::spec_of(2, 2, /*proxies=*/1));
}

analysis::RunRecord run_fault_sweep(std::uint64_t tie_seed) {
  machine::ClusterSpec s = bench::spec_of(2, 2, /*proxies=*/1);
  s.fault.enabled = true;
  s.fault.seed = 77;
  s.fault.drop_prob = 0.10;
  s.fault.dup_prob = 0.08;
  s.fault.delay_prob = 0.10;
  s.fault.channels = {offload::kProxyChannel, offload::kGroupMetaChannel};
  return run_group_alltoall(tie_seed, s);
}

analysis::RunRecord run_crash_mid_stripe(std::uint64_t tie_seed) {
  machine::ClusterSpec s = bench::spec_of(2, 1, /*proxies=*/2);
  s.cost.stripe_threshold = 32_KiB;
  s.cost.chunk_bytes = 32_KiB;
  s.cost.dpu_qp_GBps = 1.0;  // slow QPs so the crash lands mid-stripe
  s.fault.proxy_failures.push_back({/*proxy=*/3, /*at_us=*/30.0, /*hang=*/false, -1.0});
  World w(s);
  w.engine().set_tie_shuffle_seed(tie_seed);
  auto& tr = w.enable_trace();
  const std::size_t len = 512_KiB;
  w.launch(0, [len](Rank& r) -> sim::Task<void> {
    const auto buf = r.mem().alloc(len);
    r.mem().write(buf, pattern_bytes(13, len));
    auto req = co_await r.off->send_offload(buf, len, 1, 4);
    require(co_await r.off->wait(req) == offload::Status::kDegraded, "crash send degrades");
  });
  w.launch(1, [len](Rank& r) -> sim::Task<void> {
    const auto buf = r.mem().alloc(len);
    auto req = co_await r.off->recv_offload(buf, len, 0, 4);
    require(co_await r.off->wait(req) == offload::Status::kDegraded, "crash recv degrades");
  });
  w.run();
  return analysis::capture_run(w.engine(), &tr);
}

analysis::RunRecord run_planted_race(std::uint64_t tie_seed) {
  sim::Engine eng;
  eng.set_tie_shuffle_seed(tie_seed);
  auto cell = std::make_shared<double>(1.0);
  eng.schedule_at(from_us(1.0), [cell] { *cell = *cell * 2.0; });
  eng.schedule_at(from_us(1.0), [cell] { *cell = *cell + 3.0; });
  (void)eng.run();
  eng.metrics().set_gauge("planted.cell", *cell);
  return analysis::capture_run(eng, nullptr);
}

}  // namespace

int main() {
  using namespace dpu;
  bench::header("Ablation: tie-shuffle determinism matrix",
                "schedule-race detector over the protocol regimes");
  const std::size_t n_seeds = bench::fast_mode() ? 3 : 8;
  const auto seeds = analysis::default_seeds(n_seeds);

  struct Row {
    const char* name;
    analysis::ReplicaFn fn;
    bool expect_identical;
  };
  const std::vector<Row> rows = {
      {"pingpong rendezvous", run_pingpong, true},
      {"group alltoall (cached)", run_alltoall_clean, true},
      {"fault sweep (content-keyed)", run_fault_sweep, true},
      {"crash mid-stripe", run_crash_mid_stripe, true},
      {"PLANTED race fixture", run_planted_race, false},
  };

  bool real_workloads_clean = true;
  bool planted_detected = false;
  Table t({"workload", "seeds", "trace events", "verdict"});
  for (const Row& row : rows) {
    const auto rep = analysis::run_matrix(row.fn, seeds);
    const bool identical = rep.identical();
    if (row.expect_identical) {
      real_workloads_clean = real_workloads_clean && identical;
    } else {
      planted_detected = planted_detected || !identical;
    }
    t.add_row({row.name, std::to_string(1 + seeds.size()),
               std::to_string(rep.baseline.trace_lines.size()),
               identical ? "identical" : (row.expect_identical ? "DIVERGED" : "diverged (expected)")});
    if (identical != row.expect_identical) {
      // Unexpected outcome: print the full divergence report (first
      // differing trace event per seed) so the race is actionable.
      std::cout << "[" << row.name << "] " << rep.summary() << "\n";
    }
  }
  t.print(std::cout);

  bench::shape("every protocol regime is tie-order independent", real_workloads_clean);
  bench::shape("the planted non-commutative tie is surfaced", planted_detected);
  return (real_workloads_clean && planted_detected) ? 0 : 1;
}
