// DPU proxy (worker) process.
//
// One always-on coroutine per proxy process. Each iteration of its
// progress loop drains control messages, advances the combined queue of
// matched basic-primitive transfers, harvests RDMA completions (sending FIN
// flag-writes), and advances group jobs per Algorithm 1 — crucially, a job
// blocked on a barrier returns control to the loop so other hosts' requests
// keep progressing (the paper's deadlock-avoidance rule).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "common/metrics.h"
#include "offload/gvmi_cache.h"
#include "offload/match_queues.h"
#include "offload/protocol.h"
#include "offload/reliable.h"
#include "sim/task.h"
#include "verbs/verbs.h"

namespace dpu::offload {

class OffloadRuntime;

class Proxy {
 public:
  Proxy(OffloadRuntime& rt, int proc_id);

  int proc_id() const { return proc_; }
  verbs::GvmiId gvmi() const { return gvmi_; }
  DpuGvmiCache& gvmi_cache() { return gvmi_cache_; }

  /// The proxy's main progress loop (spawned by OffloadRuntime::start).
  /// Exits once every mapped host sent Finalize_Offload and all work
  /// drained — or immediately when a crash is injected.
  sim::Task<void> run();

  /// Host ranks served by this proxy. Single-tenant: the §VII-A modulo
  /// mapping. Multi-tenant: the explicit per-tenant mapping of
  /// ClusterSpec::proxy_for_host (the raw modulo silently mis-assigned
  /// non-contiguous tenant rank sets).
  int mapped_hosts() const;

  // ---- process-level fault injection (machine::ProxyFailure) ----------------
  /// Kills the proxy: its progress loop exits at the next scheduling point
  /// and never services anything again. Queued inbox messages rot (the NIC
  /// transport below keeps acking deliveries, exactly like a host whose
  /// process died but whose HCA is powered — which is why liveness needs
  /// application-level heartbeats, not transport acks).
  void inject_crash();
  /// Freezes the progress loop (process alive, queues unserviced).
  void inject_hang();
  /// Ends a hang window; the loop resumes servicing whatever piled up.
  void recover_from_hang();

  bool crashed() const { return crashed_; }
  bool hung() const { return hung_; }

  // ---- stats exposed for tests / ablation benches ---------------------------
  // Thin adapters over the "offload.proxy<id>.*" registry counters.
  std::uint64_t basic_pairs_completed() const { return basic_done_.value(); }
  std::uint64_t group_jobs_completed() const { return jobs_done_.value(); }
  std::uint64_t group_cache_hits() const { return tmpl_hits_.value(); }
  std::uint64_t group_cache_misses() const { return tmpl_misses_.value(); }
  std::uint64_t barrier_cntr_msgs() const { return barrier_msgs_.value(); }
  std::uint64_t retries() const { return retx_.retries().value(); }
  std::uint64_t dup_dropped() const { return dup_dropped_.value(); }
  std::uint64_t credit_gated() const { return credit_gated_.value(); }
  std::uint64_t chunks_moved() const { return chunks_moved_.value(); }
  /// Highest concurrent chunk-RDMA count this proxy ever reached — the
  /// observable the max_chunks_in_flight cap bounds.
  int chunks_inflight_hwm() const { return inflight_hwm_; }
  /// Lifetime run count of the recorded template for (host, req_id); 0 when
  /// none exists. A re-recorded template must keep its predecessor's count —
  /// that is what keeps re-call credit gating armed across re-records.
  std::uint64_t template_runs(int host_rank, std::uint64_t req_id) const;
  const MatchQueues& queues() const { return queues_; }
  /// Entries of per-host proxy state (templates, barrier counters, credits,
  /// fences, dup-filter sender window) still keyed to `host_rank`. Must be 0
  /// after the host's Finalize_Offload — the pooled-proxy leak this PR fixes.
  std::size_t host_state_entries(int host_rank) const;
  /// FNV-1a digest of the multi-tenant fair-queue advance order: folded per
  /// pick that made progress, (tenant, host, req, entries). Single-tenant
  /// runs never touch it. Tests pin its tie-shuffle invariance.
  std::uint64_t advance_order_digest() const { return advance_digest_; }

 private:
  /// Per-entry run state of a group job instance.
  struct JobEntryState {
    bool posted = false;    // sends: RDMA issued
    bool arrived = false;   // recvs: arrival immediate seen
    verbs::Completion completion;  // sends: write completion
  };

  /// Cached template for a (host, req_id): the packet entries plus resolved
  /// mkey2 values (so cached re-runs skip even the cache search, §VII-D).
  struct JobTemplate {
    std::vector<GroupEntryWire> entries;
    std::vector<verbs::MKey> mkey2;  // 0 until first resolution
    int runs = 0;                    // instances started from this template
  };

  /// One live execution of a group request.
  struct JobInstance {
    int host_rank = -1;
    std::uint64_t req_id = 0;
    int tenant = 0;  ///< owning tenant (scopes keys + fair-queue accounting)
    /// Delivery time of the call message that started this instance. Jobs
    /// are kept sorted by (arrived_at, host_rank, req_id): real arrival
    /// order is preserved, but two calls landing at the same instant get a
    /// canonical order even when the drain loop observed them across a
    /// same-time scheduling tie (the advance order — and with it every
    /// downstream RDMA issue time — must not depend on that tie).
    SimTime arrived_at = 0;
    bool needs_credits = false;  // re-calls gate sends on receive readiness
    std::shared_ptr<JobTemplate> tmpl;
    std::vector<JobEntryState> state;
    /// (src,tag) -> entry indices of not-yet-arrived receives, FIFO.
    std::map<std::pair<int, int>, std::deque<std::size_t>> recv_index;
    std::size_t sends_total = 0;    // send entries in the template
    std::size_t recvs_total = 0;    // recv entries in the template
    std::shared_ptr<std::size_t> sends_done;  // completions observed (subscription)
    std::size_t arrivals = 0;       // receive arrivals matched so far
    std::size_t next = 0;           // Algorithm-1 cursor
    std::set<int> send_rank_set;    // dst ranks since the last barrier
    std::set<int> recv_rank_set;    // src ranks since the last barrier
    int num_barriers = 0;
    verbs::Completion flag;         // host completion counter
    bool fin_sent = false;
    std::shared_ptr<AckState> fin_ack;  // FIN flag-write ack (fault runs only)
  };

  struct BasicPair {
    RtsProxyMsg rts;
    RtrProxyMsg rtr;
  };

  struct FinPending {
    verbs::Completion completion;
    verbs::Completion src_flag;
    int src_rank = -1;
    verbs::Completion dst_flag;
    int dst_rank = -1;
    /// Striped pairs: shared per-request countdown; the harvest that zeroes
    /// it fires the FIN flag writes (once per chunk-set, not per chunk).
    std::shared_ptr<ChunkCountdown> countdown;
  };

  sim::Task<void> handle(verbs::CtrlMsg msg);
  sim::Task<void> handle_liveness(verbs::CtrlMsg msg);
  // kProxyChannel handlers, one per ProxyMsg alternative (reached through
  // sim::dispatch); the SimTime is the message's inbox delivery time.
  void on(RtsProxyMsg& rts, SimTime);
  void on(RtrProxyMsg& rtr, SimTime);
  void on(ChunkWorkMsg& cw, SimTime);
  void on(GroupPacketMsg& pkt, SimTime delivered_at);
  void on(GroupCachedCallMsg& cc, SimTime delivered_at);
  void on(RecvArrivedMsg& arr, SimTime);
  void on(CreditBatchMsg& cb, SimTime);
  void on(BarrierCntrMsg& bc, SimTime);
  sim::Task<void> on(StopMsg& stop, SimTime);
  void on(InvalidateMsg& inv, SimTime);
  // kLivenessChannel handlers, one per ProxyLivenessMsg alternative.
  sim::Task<void> on(HeartbeatMsg& hb);
  void on(FenceBasicMsg& fb);
  void on(FenceGroupMsg& fg);
  sim::Task<bool> process_combined();
  sim::Task<bool> process_chunk_work();
  sim::Task<bool> harvest_fins();
  sim::Task<bool> advance_jobs();
  sim::Task<bool> advance_one(JobInstance& job);
  sim::Task<void> post_group_send(JobInstance& job, std::size_t idx);
  std::function<void()> make_group_send_hook(const JobInstance& job, const GroupEntryWire& e);
  void start_instance(int tenant, int host_rank, std::uint64_t req_id,
                      verbs::Completion flag, SimTime arrived_at);
  int expected_stops() const;
  void prune_host_state(int host_rank);
  /// True when job `a` should advance before job `b` under deficit-weighted
  /// fair queueing: lower normalized tenant service first (cross-multiplied,
  /// no FP), then the canonical (arrived_at, host, req) order.
  bool dwfq_before(const JobInstance& a, const JobInstance& b) const;
  sim::Task<void> grant_credits(const JobInstance& job);
  sim::Task<void> send_credits(std::map<int, CreditBatchMsg> batches);
  bool match_arrival(const RecvArrivedMsg& a);
  bool at_chunk_cap() const;
  void note_chunk_issued();
  void note_chunk_done();

  verbs::ProcCtx& vctx();
  sim::Task<void> charge_entry();

  OffloadRuntime& rt_;
  int proc_;
  verbs::GvmiId gvmi_ = 0;
  DpuGvmiCache gvmi_cache_;
  Retransmitter retx_;    ///< reliable sender for proxy-originated ctrl msgs
  DupFilter dup_filter_;  ///< replay suppression for received ctrl msgs
  MatchQueues queues_;
  std::deque<BasicPair> combined_;
  std::deque<ChunkWorkMsg> chunk_work_;  ///< delegated group segments (striping)
  std::vector<FinPending> fins_;
  /// Templates keyed (tenant, host, req): the tenant component makes
  /// cross-job aliasing structurally impossible on a pooled proxy.
  std::map<std::tuple<int, int, std::uint64_t>, std::shared_ptr<JobTemplate>> templates_;
  std::vector<std::unique_ptr<JobInstance>> jobs_;
  std::deque<RecvArrivedMsg> pending_arrivals_;
  std::map<std::pair<int, int>, int> barrier_counters_;  // (tenant, host) -> count
  /// (tenant, src host, dst host, tag) -> receive-readiness credits.
  std::map<std::tuple<int, int, int, int>, int> credits_;
  /// Fault runs: credit batches (per source-side proxy) of jobs whose FIN
  /// was acked after the job finished; the loop sends them.
  std::deque<std::map<int, CreditBatchMsg>> acked_credits_;

  int stops_received_ = 0;
  bool crashed_ = false;
  bool hung_ = false;
  /// Hosts whose Finalize_Offload this proxy processed. Counts each stop
  /// exactly once and gates out any straggler reliable-envelope traffic from
  /// that sender: once the dup-filter window is pruned, a late-delayed
  /// duplicate would otherwise be re-accepted as fresh.
  std::set<int> finalized_hosts_;
  /// (tenant, host, req_id) group jobs the hosts completed on the fallback
  /// path; any live instance is dropped and their arrivals swallowed.
  std::set<std::tuple<int, int, std::uint64_t>> fenced_;
  /// Per-tenant service accumulated by the fair queue (entries advanced);
  /// empty in single-tenant worlds.
  std::vector<std::uint64_t> tenant_service_;
  std::uint64_t advance_digest_ = 1469598103934665603ull;  ///< FNV-1a basis
  metrics::Counter hb_replies_;
  metrics::Counter fenced_jobs_;
  metrics::Counter basic_done_;
  metrics::Counter jobs_done_;
  metrics::Counter tmpl_hits_;
  metrics::Counter tmpl_misses_;
  metrics::Counter barrier_msgs_;
  metrics::Counter dup_dropped_;   ///< duplicate ctrl msgs suppressed
  metrics::Counter credit_gated_;  ///< sends that waited on a receive credit
  metrics::Counter chunks_moved_;  ///< striped segments this worker RDMA'd
  int inflight_ = 0;      ///< chunk RDMAs currently posted by this worker
  int inflight_hwm_ = 0;  ///< lifetime high-water mark of inflight_
};

}  // namespace dpu::offload
