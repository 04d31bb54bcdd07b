#include "workloads.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <string>

#include "common/bytes.h"
#include "common/check.h"
#include "harness/world.h"
#include "offload/coll.h"

namespace perfbench {

using namespace dpu;
using harness::Rank;
using Clock = std::chrono::steady_clock;

namespace {

constexpr std::array kWorkloads = {
    Workload{Kind::kGroupAlltoall, "group-alltoall", 128_KiB, 12},
    Workload{Kind::kBasicExchange, "basic-exchange", 8_KiB, 12},
    Workload{Kind::kHostAlltoall, "host-alltoall", 128_KiB, 12},
    Workload{Kind::kHplRing, "hpl-ring", 0, 8},
};

constexpr int kHplNb = 256;
constexpr long kHplBaseN = 8192;

std::uint64_t splitmix(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

machine::ClusterSpec spec_of(const Plan& plan) {
  machine::ClusterSpec s;
  s.nodes = plan.nodes;
  s.host_procs_per_node = plan.ppn;
  s.proxies_per_dpu = 8;  // as in the figure benches
  return s;
}

// ---------------------------------------------------------------------------
// Byte patterns for the backed verify pass
// ---------------------------------------------------------------------------

/// The block `src` sends to `dst` in op `op`: a keyed byte stream, distinct
/// per (seed, op, src, dst) so a stale or misrouted block cannot pass.
std::vector<std::byte> pattern(std::uint64_t seed, int op, int src, int dst, std::size_t len) {
  std::uint64_t s = seed ^ (static_cast<std::uint64_t>(op) << 48) ^
                    (static_cast<std::uint64_t>(src) << 24) ^ static_cast<std::uint64_t>(dst);
  std::vector<std::byte> out(len);
  for (std::size_t i = 0; i < len; i += 8) {
    const std::uint64_t v = splitmix(s);
    for (std::size_t b = 0; b < 8 && i + b < len; ++b) {
      out[i + b] = static_cast<std::byte>(v >> (8 * b));
    }
  }
  return out;
}

/// Send/receive buffers of an exchange: block j of each buffer belongs to
/// communicator rank j.
struct Blocks {
  machine::AddressSpace& mem;
  machine::Addr sbuf = 0;
  machine::Addr rbuf = 0;
  std::size_t bpr = 0;

  Blocks(Rank& r, int n, std::size_t bytes, bool backed)
      : mem(r.mem()),
        sbuf(mem.alloc(bytes * static_cast<std::size_t>(n), backed)),
        rbuf(mem.alloc(bytes * static_cast<std::size_t>(n), backed)),
        bpr(bytes) {}

  machine::Addr send_at(int j) const { return sbuf + static_cast<machine::Addr>(j) * bpr; }
  machine::Addr recv_at(int j) const { return rbuf + static_cast<machine::Addr>(j) * bpr; }

  void fill(std::uint64_t seed, int op, const mpi::Communicator& comm, int me_world) {
    for (int j = 0; j < comm.size(); ++j) {
      mem.write(send_at(j), pattern(seed, op, me_world, comm.world_rank(j), bpr));
    }
  }

  /// True when every block except (optionally) the caller's own holds what
  /// its sender wrote in this op.
  bool check(std::uint64_t seed, int op, const mpi::Communicator& comm, int me_world,
             bool with_self) const {
    for (int j = 0; j < comm.size(); ++j) {
      const int src = comm.world_rank(j);
      if (src == me_world && !with_self) continue;
      if (mem.read(recv_at(j), bpr) != pattern(seed, op, src, me_world, bpr)) return false;
    }
    return true;
  }
};

// ---------------------------------------------------------------------------
// Per-rank workload state: post() starts one op, wait() completes it
// ---------------------------------------------------------------------------

class RankOps {
 public:
  virtual ~RankOps() = default;
  virtual const char* post_name(int /*op*/) const { return "post"; }
  virtual sim::Task<void> post(int op) = 0;
  /// False when the op's Status is not kOk or its data check fails.
  virtual sim::Task<bool> wait(int op) = 0;
};

class GroupAlltoallOps final : public RankOps {
 public:
  GroupAlltoallOps(Rank& r, const Plan& plan, bool backed, mpi::CommPtr comm)
      : r_(r), plan_(plan), backed_(backed), comm_(std::move(comm)), a2a_(*r.off, *r.mpi),
        blocks_(r, comm_->size(), plan.wl->bytes, backed) {}

  // The first icall records the group (and misses every cache); later
  // calls replay it.
  const char* post_name(int op) const override { return op == 0 ? "post.record" : "post"; }

  sim::Task<void> post(int op) override {
    if (backed_) blocks_.fill(plan_.seed, op, *comm_, r_.rank);
    h_ = co_await a2a_.icall(blocks_.sbuf, blocks_.rbuf, blocks_.bpr, comm_);
  }

  sim::Task<bool> wait(int op) override {
    const bool ok = co_await a2a_.wait(h_) == offload::Status::kOk;
    co_return ok && (!backed_ || blocks_.check(plan_.seed, op, *comm_, r_.rank, true));
  }

 private:
  Rank& r_;
  const Plan& plan_;
  bool backed_;
  mpi::CommPtr comm_;
  offload::GroupAlltoall a2a_;
  Blocks blocks_;
  offload::GroupAlltoall::Handle h_;
};

/// fig15's Simple path: one send_offload/recv_offload per peer, visited in
/// the rank's own seeded order of peer offsets.
class BasicExchangeOps final : public RankOps {
 public:
  BasicExchangeOps(Rank& r, const Plan& plan, bool backed)
      : r_(r), plan_(plan), backed_(backed), comm_(r.world->mpi().world()),
        blocks_(r, comm_->size(), plan.wl->bytes, backed) {}

  sim::Task<void> post(int op) override {
    const int n = comm_->size();
    if (backed_) blocks_.fill(plan_.seed, op, *comm_, r_.rank);
    reqs_.clear();
    const int* offs = &plan_.order[static_cast<std::size_t>(r_.rank * (n - 1))];
    for (int i = 0; i < n - 1; ++i) {
      const int dst = (r_.rank + offs[i]) % n;
      const int src = (r_.rank - offs[i] + n) % n;
      reqs_.push_back(co_await r_.off->recv_offload(blocks_.recv_at(src), blocks_.bpr, src, 0));
      reqs_.push_back(co_await r_.off->send_offload(blocks_.send_at(dst), blocks_.bpr, dst, 0));
    }
  }

  sim::Task<bool> wait(int op) override {
    const bool ok = co_await r_.off->waitall(reqs_) == offload::Status::kOk;
    co_return ok && (!backed_ || blocks_.check(plan_.seed, op, *comm_, r_.rank, false));
  }

 private:
  Rank& r_;
  const Plan& plan_;
  bool backed_;
  mpi::CommPtr comm_;
  Blocks blocks_;
  std::vector<offload::OffloadReqPtr> reqs_;
};

/// minimpi's host-progressed ialltoall; the proxies stay parked.
class HostAlltoallOps final : public RankOps {
 public:
  HostAlltoallOps(Rank& r, const Plan& plan, bool backed, mpi::CommPtr comm)
      : r_(r), plan_(plan), backed_(backed), comm_(std::move(comm)),
        blocks_(r, comm_->size(), plan.wl->bytes, backed) {}

  sim::Task<void> post(int op) override {
    if (backed_) blocks_.fill(plan_.seed, op, *comm_, r_.rank);
    q_ = co_await r_.mpi->ialltoall(blocks_.sbuf, blocks_.rbuf, blocks_.bpr, *comm_);
  }

  sim::Task<bool> wait(int op) override {
    co_await r_.mpi->wait(q_);
    co_return !backed_ || blocks_.check(plan_.seed, op, *comm_, r_.rank, true);
  }

 private:
  Rank& r_;
  const Plan& plan_;
  bool backed_;
  mpi::CommPtr comm_;
  Blocks blocks_;
  mpi::Request q_;
};

/// One HPL solve per op, panel broadcasts on the proposed group ring.
/// hpl_program fails the run itself (require) on a non-kOk broadcast.
class HplOps final : public RankOps {
 public:
  HplOps(Rank& r, const Plan& plan, std::vector<apps::HplStats>& stats)
      : r_(r), plan_(plan), stats_(stats) {}

  const char* post_name(int /*op*/) const override { return "solve"; }

  sim::Task<void> post(int op) override {
    apps::HplConfig cfg;
    cfg.n = plan_.hpl_n;
    cfg.nb = kHplNb;
    cfg.bcast = apps::HplBcast::kProposed;
    const auto prog =
        apps::hpl_program(cfg, r_.rank == 0 ? &stats_[static_cast<std::size_t>(op)] : nullptr);
    co_await prog(r_);
  }

  sim::Task<bool> wait(int /*op*/) override { co_return true; }

 private:
  Rank& r_;
  const Plan& plan_;
  std::vector<apps::HplStats>& stats_;
};

/// Byte-backed check of the layer HPL broadcasts with: a GroupRingBcast
/// along each process row of HPL's grid, the root rotating per op.
class RingBcastOps final : public RankOps {
 public:
  RingBcastOps(Rank& r, const Plan& plan) : r_(r), plan_(plan), ring_(*r.off) {
    const int procs = r.world->spec().total_host_ranks();
    int p = static_cast<int>(std::sqrt(static_cast<double>(procs)));
    while (procs % p != 0) --p;
    const int q = procs / p;
    std::vector<int> row;
    for (int c = 0; c < q; ++c) row.push_back(c * p + r.rank % p);
    comm_ = r.world->mpi().create_comm(row);
    buf_ = r.mem().alloc(kLen, true);
  }

  sim::Task<void> post(int op) override {
    const int root = op % comm_->size();
    if (comm_->world_rank(root) == r_.rank) {
      r_.mem().write(buf_, pattern(plan_.seed, op, r_.rank, -1, kLen));
    }
    req_ = co_await ring_.icall(buf_, kLen, root, comm_);
  }

  sim::Task<bool> wait(int op) override {
    const bool ok = co_await ring_.wait(req_) == offload::Status::kOk;
    const int root_world = comm_->world_rank(op % comm_->size());
    co_return ok && r_.mem().read(buf_, kLen) == pattern(plan_.seed, op, root_world, -1, kLen);
  }

 private:
  static constexpr std::size_t kLen = 64_KiB;
  Rank& r_;
  const Plan& plan_;
  offload::GroupRingBcast ring_;
  mpi::CommPtr comm_;
  machine::Addr buf_ = 0;
  offload::GroupReqPtr req_;
};

// ---------------------------------------------------------------------------
// Closed-loop op runner
// ---------------------------------------------------------------------------

/// World-level bookkeeping the rank programs fill in.
struct Shared {
  explicit Shared(int ops)
      : release(static_cast<std::size_t>(ops), std::numeric_limits<SimTime>::max()),
        done(static_cast<std::size_t>(ops), 0),
        failed(static_cast<std::size_t>(ops), false),
        op_begin(static_cast<std::size_t>(ops)),
        op_end(static_cast<std::size_t>(ops)),
        hpl(static_cast<std::size_t>(ops)) {}

  std::vector<SimTime> release;  ///< per op: earliest barrier release
  std::vector<SimTime> done;     ///< per op: latest rank completion
  std::vector<bool> failed;
  std::vector<Clock::time_point> op_begin;  ///< rank 0, barrier release
  std::vector<Clock::time_point> op_end;    ///< rank 0, next barrier release
  std::vector<double> probe_ms;
  std::vector<apps::HplStats> hpl;
  mpi::CommPtr comm;  ///< the alltoall workloads' communicator
  int run_span = -1;
};

std::unique_ptr<RankOps> make_ops(Rank& r, const Plan& plan, const RunConfig& cfg,
                                  Shared& sh) {
  switch (plan.wl->kind) {
    case Kind::kGroupAlltoall:
      return std::make_unique<GroupAlltoallOps>(r, plan, cfg.backed, sh.comm);
    case Kind::kBasicExchange:
      return std::make_unique<BasicExchangeOps>(r, plan, cfg.backed);
    case Kind::kHostAlltoall:
      return std::make_unique<HostAlltoallOps>(r, plan, cfg.backed, sh.comm);
    case Kind::kHplRing:
      if (cfg.backed) return std::make_unique<RingBcastOps>(r, plan);
      return std::make_unique<HplOps>(r, plan, sh.hpl);
  }
  return nullptr;
}

sim::Task<void> rank_loop(Rank& r, const Plan& plan, const RunConfig& cfg, Shared& sh) {
  auto& eng = r.world->engine();
  const auto world = r.world->mpi().world();
  const auto ops = make_ops(r, plan, cfg, sh);
  for (int op = 0; op < cfg.ops; ++op) {
    const auto i = static_cast<std::size_t>(op);
    SpanScope op_span(cfg.spans, eng, "op", r.rank, op, sh.run_span);
    {
      SpanScope s(cfg.spans, eng, "barrier", r.rank, op, op_span.id());
      co_await r.mpi->barrier(*world);
    }
    if (r.rank == 0) {
      if (op > 0) sh.op_end[i - 1] = Clock::now();
      if (cfg.probe) sh.probe_ms.push_back(cfg.probe->run_ms());
      sh.op_begin[i] = Clock::now();
    }
    sh.release[i] = std::min(sh.release[i], eng.now());
    {
      SpanScope s(cfg.spans, eng, ops->post_name(op), r.rank, op, op_span.id());
      co_await ops->post(op);
    }
    bool ok = false;
    {
      SpanScope s(cfg.spans, eng, "wait", r.rank, op, op_span.id());
      ok = co_await ops->wait(op);
    }
    sh.done[i] = std::max(sh.done[i], eng.now());
    if (!ok) sh.failed[i] = true;
  }
  {
    SpanScope s(cfg.spans, eng, "barrier", r.rank, cfg.ops, sh.run_span);
    co_await r.mpi->barrier(*world);
  }
  if (r.rank == 0) sh.op_end.back() = Clock::now();
}

double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

bool ends_with(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

Counts read_counts(const metrics::MetricsRegistry& reg) {
  Counts c;
  std::uint64_t tx_msgs = 0;
  std::uint64_t tx_bytes = 0;
  reg.for_each_counter([&](const std::string& name, std::uint64_t v) {
    const bool host = name.starts_with("offload.host");
    const bool proxy = name.starts_with("offload.proxy");
    if (name == "engine.events_executed") c.events += v;
    if (name.starts_with("fabric.node")) {
      if (ends_with(name, ".messages_tx")) tx_msgs += v;
      if (ends_with(name, ".bytes_tx")) tx_bytes += v;
      if (ends_with(name, ".messages_rx")) c.wire_msgs += v;
      if (ends_with(name, ".bytes_rx")) c.wire_bytes += v;
    }
    if (host && ends_with(name, ".ctrl_msgs_sent")) c.ctrl_msgs += v;
    if (host && ends_with(name, ".ib_cache.misses")) c.ib_misses += v;
    if (proxy && (ends_with(name, ".group_jobs_completed") ||
                  ends_with(name, ".basic_pairs_completed"))) {
      c.proxy_jobs += v;
    }
    if (host || proxy) {
      if (ends_with(name, ".retries")) c.retries += v;
      if (ends_with(name, ".dup_dropped")) c.dup_dropped += v;
      if (ends_with(name, ".group_cache.hits")) c.group_hits += v;
      if (ends_with(name, ".group_cache.misses")) c.group_misses += v;
      if (ends_with(name, ".gvmi_cache.hits")) c.gvmi_hits += v;
      if (ends_with(name, ".gvmi_cache.misses")) c.gvmi_misses += v;
    }
    if (name.starts_with("mpi.rank")) {
      if (ends_with(name, ".reg_cache.hits")) c.mpi_hits += v;
      if (ends_with(name, ".reg_cache.misses")) c.mpi_misses += v;
    }
  });
  // The fabric counts host<->DPU PCIe transfers on the sending node only
  // (tx, never rx); NIC transfers count tx at the source and rx at the
  // destination. The difference is therefore the PCIe share, not loss.
  c.pcie_msgs = tx_msgs - c.wire_msgs;
  c.pcie_bytes = tx_bytes - c.wire_bytes;
  return c;
}

/// Σ over lanes of the union of the lane's transfer intervals, in µs.
/// Wire lanes are keyed by source NIC, PCIe lanes by node and direction.
void fabric_busy(const sim::Trace& trace, double& wire_us, double& pcie_us) {
  std::map<std::string, std::vector<std::pair<SimTime, SimTime>>> lanes;
  for (const auto& s : trace.spans()) {
    if (s.actor.starts_with("wire:")) {
      lanes["w" + s.actor.substr(5, s.actor.find("->") - 5)].emplace_back(s.begin, s.end);
    } else if (s.actor.starts_with("pcie:")) {
      lanes["p" + s.actor + (ends_with(s.label, "up") ? "u" : "d")].emplace_back(s.begin,
                                                                             s.end);
    }
  }
  wire_us = 0;
  pcie_us = 0;
  for (auto& [key, iv] : lanes) {
    std::sort(iv.begin(), iv.end());
    SimDuration busy = 0;
    SimTime cur_b = iv.front().first;
    SimTime cur_e = iv.front().second;
    for (const auto& [b, e] : iv) {
      if (b > cur_e) {
        busy += cur_e - cur_b;
        cur_b = b;
      }
      cur_e = std::max(cur_e, e);
    }
    busy += cur_e - cur_b;
    (key[0] == 'w' ? wire_us : pcie_us) += to_us(busy);
  }
}

mpi::CommPtr plan_comm(harness::World& w, const Plan& plan) {
  const Kind k = plan.wl->kind;
  if (k == Kind::kGroupAlltoall || k == Kind::kHostAlltoall) {
    return w.mpi().create_comm(plan.order);
  }
  return w.mpi().world();
}

}  // namespace

const Workload* find_workload(std::string_view name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

Plan make_plan(const Workload& wl, std::uint64_t seed, int nodes, int ppn) {
  Plan p;
  p.wl = &wl;
  p.seed = seed;
  p.nodes = nodes;
  p.ppn = ppn;
  const int n = nodes * ppn;
  std::uint64_t s = seed;
  switch (wl.kind) {
    case Kind::kGroupAlltoall:
    case Kind::kHostAlltoall:
      // Communicator order: a seeded permutation of the world ranks, which
      // permutes the order each rank visits its peers in.
      for (int i = 0; i < n; ++i) p.order.push_back(i);
      break;
    case Kind::kBasicExchange:
      // Per rank, the peer offsets 1..n-1 in that rank's own seeded order
      // (rank r's order is order[r * (n - 1) ...]).
      for (int r = 0; r < n; ++r) {
        std::vector<int> offs;
        for (int i = 1; i < n; ++i) offs.push_back(i);
        for (std::size_t i = offs.size(); i > 1; --i) {
          std::swap(offs[i - 1], offs[splitmix(s) % i]);
        }
        p.order.insert(p.order.end(), offs.begin(), offs.end());
      }
      return p;
    case Kind::kHplRing:
      // Matrix order in [N, N + 64): the panel count stays N / NB while the
      // trailing-update sizes vary slightly.
      p.hpl_n = kHplBaseN + static_cast<long>(splitmix(s) % 64);
      break;
  }
  for (std::size_t i = p.order.size(); i > 1; --i) {
    std::swap(p.order[i - 1], p.order[splitmix(s) % i]);
  }
  return p;
}

double setup_only(const Plan& plan) {
  const auto t0 = Clock::now();
  harness::World w(spec_of(plan));
  RunConfig cfg;
  Shared sh(cfg.ops);
  sh.comm = plan_comm(w, plan);
  w.launch_all([&](Rank& r) -> sim::Task<void> { co_await rank_loop(r, plan, cfg, sh); });
  return seconds(t0, Clock::now());
}

RunResult run_world(const Plan& plan, const RunConfig& cfg) {
  Shared sh(cfg.ops);
  RunResult res;
  SpanLog* spans = cfg.spans;
  const int setup_span = spans ? spans->open("world_setup", -1, -1, -1, 0) : -1;
  const auto t0 = Clock::now();
  harness::World w(spec_of(plan));
  if (cfg.checker) w.enable_checker();
  if (spans) w.enable_trace();
  sh.comm = plan_comm(w, plan);
  w.launch_all([&](Rank& r) -> sim::Task<void> { co_await rank_loop(r, plan, cfg, sh); });
  const auto t1 = Clock::now();
  if (spans) spans->close(setup_span, 0);
  sh.run_span = spans ? spans->open("world_run", -1, -1, -1, 0) : -1;
  w.run();
  const auto t2 = Clock::now();
  if (spans) spans->close(sh.run_span, w.now());
  if (cfg.checker) {
    w.checker()->check_final();
    sim_expect(w.checker()->ok(), "protocol checker: " + w.checker()->report());
  }

  res.setup_s = seconds(t0, t1);
  res.probe_ms = sh.probe_ms;
  double probe_s = 0;
  for (double ms : sh.probe_ms) probe_s += ms / 1e3;
  res.wall_s = seconds(t1, t2) - probe_s;
  for (std::size_t i = 0; i < static_cast<std::size_t>(cfg.ops); ++i) {
    res.virt_op.push_back(sh.done[i] - sh.release[i]);
    res.host_op_ms.push_back(1e3 * seconds(sh.op_begin[i], sh.op_end[i]));
    if (sh.failed[i]) ++res.failed_ops;
  }
  res.counts = read_counts(w.metrics());
  if (spans) fabric_busy(w.enable_trace(), res.wire_busy_us, res.pcie_busy_us);
  res.hpl = sh.hpl;
  return res;
}

}  // namespace perfbench
