// World: one fully-wired simulated cluster.
//
// Bundles the event engine, fabric, verbs runtime, minimpi world and the
// offload runtime (proxies spawned on construction), and provides a safe
// rank-program launch API. Tests, examples and every figure bench build on
// this.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "analysis/invariants.h"
#include "baselines/bluesmpi.h"
#include "common/metrics.h"
#include "fabric/fabric.h"
#include "machine/spec.h"
#include "mpi/mpi.h"
#include "offload/offload.h"
#include "sim/engine.h"
#include "sim/trace.h"
#include "verbs/verbs.h"

namespace dpu::harness {

class World;

/// Everything a rank program needs, bundled per host rank.
struct Rank {
  World* world = nullptr;
  int rank = -1;
  mpi::MpiCtx* mpi = nullptr;
  offload::OffloadEndpoint* off = nullptr;
  baselines::BluesEndpoint* blues = nullptr;
  verbs::ProcCtx* vctx = nullptr;
  int tenant = 0;       ///< owning tenant (0 in single-tenant worlds)
  int tenant_rank = 0;  ///< position of `rank` within its tenant's rank set
  int tenant_size = 1;  ///< number of host ranks in this rank's tenant

  machine::AddressSpace& mem() { return vctx->mem(); }

  /// Models application computation (no communication progress happens).
  sim::Task<void> compute(SimDuration d) { return mpi->compute(d); }
};

using RankProgram = std::function<sim::Task<void>(Rank&)>;

class World {
 public:
  explicit World(machine::ClusterSpec spec, bool with_offload = true);

  sim::Engine& engine() { return eng_; }
  fabric::Fabric& fab() { return *fab_; }
  verbs::Runtime& verbs() { return *vrt_; }
  mpi::MpiWorld& mpi() { return *mpi_; }
  offload::OffloadRuntime& offload() { return *off_; }
  baselines::BluesMpi& blues() { return *blues_; }
  const machine::ClusterSpec& spec() const { return spec_; }
  SimTime now() const { return eng_.now(); }

  /// Launches `prog` on host rank `rank` (copied into the coroutine frame;
  /// safe against the capturing-lambda-coroutine lifetime trap).
  void launch(int rank, RankProgram prog);

  /// Launches `prog` on every host rank.
  void launch_all(RankProgram prog);

  /// Launches `prog` on every host rank of one tenant — each rank's ctx
  /// carries (tenant, tenant_rank, tenant_size) so a tenant job can address
  /// peers inside its own rank set without knowing the global layout.
  void launch_tenant(int tenant, RankProgram prog);

  /// Runs until every launched rank program finished. Proxy processes are
  /// expected to stay parked in their progress loops (or stopped via
  /// finalize_offload); any other stuck process is an error (throws
  /// SimError listing the stuck ranks).
  void run();

  /// One-paragraph run summary: fabric traffic, cache hit rates, proxy
  /// work counters — for examples and post-run sanity checks.
  std::string stats_summary() const;

  /// The cluster-wide metrics registry (owned by the engine); every layer
  /// links its counters here. `metrics_json()` additionally refreshes the
  /// run-level gauges (sim.now_us) before exporting.
  metrics::MetricsRegistry& metrics() { return eng_.metrics(); }
  std::string metrics_json();

  /// Enables span recording (compute phases, wire/PCIe transfers); the
  /// returned Trace lives as long as the World.
  sim::Trace& enable_trace() {
    if (!trace_) {
      trace_ = std::make_unique<sim::Trace>();
      eng_.set_trace(trace_.get());
    }
    return *trace_;
  }

  /// Attaches the online protocol-invariant checker (src/analysis) to this
  /// world's engine; the offload/proxy/reliable layers then report their
  /// protocol steps to it. Also armed automatically when the DPU_CHECK
  /// environment variable is set non-empty (run() then fails loudly on any
  /// recorded violation). The checker lives as long as the World.
  analysis::ProtocolChecker& enable_checker() {
    if (!checker_) {
      checker_ = std::make_unique<analysis::ProtocolChecker>(eng_);
      if (spec_.multi_tenant()) {
        // Arm the cross-tenant rules: the checker learns the tenant topology
        // without the offload layers ever naming tenants to it.
        checker_->set_tenant_map(
            [this](int r) { return spec_.tenant_of_host(r); },
            [this](int p, int t) { return spec_.proxy_serves_tenant(p, t); });
      }
    }
    return *checker_;
  }
  analysis::ProtocolChecker* checker() { return checker_.get(); }

 private:
  static sim::Task<void> invoke(RankProgram prog, Rank rank_ctx);

  machine::ClusterSpec spec_;
  sim::Engine eng_;
  std::unique_ptr<fabric::Fabric> fab_;
  std::unique_ptr<verbs::Runtime> vrt_;
  std::unique_ptr<mpi::MpiWorld> mpi_;
  std::unique_ptr<offload::OffloadRuntime> off_;
  std::unique_ptr<baselines::BluesMpi> blues_;
  std::unique_ptr<sim::Trace> trace_;
  std::unique_ptr<analysis::ProtocolChecker> checker_;
  std::vector<sim::ProcHandle> launched_;
};

}  // namespace dpu::harness
