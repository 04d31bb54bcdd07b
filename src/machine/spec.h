// Cluster description and cost model.
//
// The model follows the paper's testbed: N nodes, each with a multi-core
// host CPU, a BlueField-style DPU with slower ARM cores, and one HCA shared
// by host and DPU. All costs are LogGP-flavoured and calibrated so the
// paper's motivation figures (2-5) come out with the right shape:
//   * host->host and host->DPU small-message latency nearly equal,
//   * DPU-initiated message rate roughly half of host-initiated (slower
//     cores => larger per-message overhead),
//   * memory registration cost = base + per-page, larger on the DPU.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/units.h"

namespace dpu::machine {

/// Structured spec-validation failure. `field()` names the offending knob
/// ("TopologySpec.spines", "CostModel.nic_bandwidth_GBps", ...) so callers
/// and tests can assert on *which* field was malformed instead of pattern-
/// matching a prose message. Raised by ClusterSpec::validate() — before the
/// refactor, malformed specs surfaced downstream as divide-by-zero port
/// rates or silent zero-time transfers.
class SpecError : public std::runtime_error {
 public:
  SpecError(std::string field, const std::string& why)
      : std::runtime_error(field + ": " + why), field_(std::move(field)) {}
  const std::string& field() const { return field_; }

 private:
  std::string field_;
};

/// Deterministic fault injection on the control plane (offload robustness
/// testing). When enabled, the verbs layer consults a seeded FaultPlan for
/// every eligible control message / flag write and may drop, duplicate, or
/// delay it; the offload protocol switches to sequence-numbered messages
/// with ack/timeout/retransmit so the run still completes correctly. When
/// disabled (the default) no RNG is consumed and no extra messages exist,
/// so virtual times are bit-identical to a build without the feature.
/// One scheduled process-level proxy failure. A *crash* makes the proxy's
/// progress loop exit at the given virtual time (the ARM process died); a
/// *hang* makes it stop servicing its queues while the process — and hence
/// the NIC transport underneath it — stays alive, optionally recovering
/// after a bounded window. Injection is purely schedule-driven: no RNG.
struct ProxyFailure {
  int proxy = -1;        ///< flat proc id of the proxy (ClusterSpec scheme)
  double at_us = 0.0;    ///< virtual time the failure hits
  bool hang = false;     ///< false: crash (permanent); true: hang
  double hang_for_us = -1.0;  ///< hang window; < 0 means it never recovers
};

struct FaultSpec {
  bool enabled = false;
  std::uint64_t seed = 1;    ///< RNG seed; same seed => same fault schedule
  double drop_prob = 0.0;    ///< P(message vanishes on the wire)
  double dup_prob = 0.0;     ///< P(message is delivered twice)
  double delay_prob = 0.0;   ///< P(delivery is postponed)
  double max_delay_us = 20.0;  ///< delayed deliveries add U(0, max_delay_us)

  /// Channels subject to faults; empty = every control channel. The default
  /// targets the offload proxy channel (offload::kProxyChannel == 2) — the
  /// only channel with a retransmit protocol behind it.
  std::vector<int> channels = {2};
  bool fault_flag_writes = true;  ///< also fault proxy FIN flag writes


  // -- retransmit tuning (used by offload::Retransmitter) --------------------
  double retry_timeout_us = 60.0;  ///< first ack deadline (well above RTT)
  double retry_backoff = 2.0;      ///< exponential backoff factor
  double retry_max_timeout_us = 2000.0;
  int max_retries = 24;  ///< past this the sender reports the peer unreachable

  // -- proxy liveness / failover (offload robustness) -------------------------
  // The heartbeat/lease protocol and the host-fallback degradation path are
  // active only when `liveness` is set (or a failure is scheduled). With the
  // model off, no liveness message, timer or poll exists anywhere, so
  // virtual times stay bit-identical to a build without the feature.
  std::vector<ProxyFailure> proxy_failures;  ///< scheduled crashes / hangs
  bool liveness = false;        ///< heartbeat monitoring + failover machinery
  bool failover = true;         ///< degrade to the host-driven path on death
  double hb_period_us = 40.0;   ///< heartbeat interval while ops are in flight
  double hb_suspect_after_us = 150.0;  ///< silence => suspected (lease stale)
  double hb_confirm_after_us = 400.0;  ///< silence => confirmed dead
  double finalize_drain_us = 500.0;    ///< bounded Finalize_Offload drain

  bool liveness_enabled() const { return liveness || !proxy_failures.empty(); }

  bool faults_channel(int channel) const {
    // The liveness plane (offload::kLivenessChannel) is never message-faulted:
    // losing heartbeats to the wire-fault model would conflate "lossy link"
    // with "dead proxy" and break the detector's timing contract.
    if (channel == 6) return false;
    if (channels.empty()) return true;
    for (int c : channels) {
      if (c == channel) return true;
    }
    return false;
  }
};

/// Which kind of core initiates an action; scales per-message overheads.
enum class CoreKind { kHost, kDpu };

/// All tunable costs, in microseconds / GB/s. Defaults reproduce the
/// paper's figure shapes (see bench/fig02..fig05).
struct CostModel {
  // -- fabric ---------------------------------------------------------------
  double wire_latency_us = 0.90;      ///< one-way switch+wire latency (inter-node)
  double loopback_latency_us = 0.50;  ///< host <-> local-DPU via NIC loopback
  double nic_bandwidth_GBps = 24.0;   ///< per-port serialization rate (HDR-ish)
  /// Fat-tree core oversubscription: 1.0 = full bisection; k > 1 divides
  /// the aggregate core bandwidth by k (edge ports stay full rate).
  double oversubscription = 1.0;
  int radix = 16;  ///< nodes per leaf switch (traffic within a leaf skips the core)
  double host_post_us = 0.25;         ///< per-message post/inject overhead, host core
  double dpu_post_factor = 2.1;       ///< DPU ARM core slowdown for per-message work

  // -- memory / PCIe ---------------------------------------------------------
  double memcpy_GBps = 18.0;        ///< host-core memcpy bandwidth (shm/eager copies)
  double pcie_GBps = 22.0;          ///< host<->DPU DMA lane (staging/loopback data)
  double staging_copy_GBps = 10.0;  ///< DPU DRAM copy bandwidth (staging designs)

  // -- registration (Challenge 3 / fig 5) -------------------------------------
  std::size_t page_bytes = 4096;
  double host_reg_base_us = 1.6;       ///< ibv_reg_mr fixed cost on host
  double host_reg_per_page_us = 0.045; ///< pinning cost per page on host
  double dpu_reg_factor = 2.4;         ///< cross-registration runs on ARM cores
  double gvmi_reg_extra_us = 0.8;      ///< extra fixed cost of GVMI-flavoured reg

  // -- MPI-level costs --------------------------------------------------------
  double shm_latency_us = 0.3;  ///< intra-node shared-memory hop (no NIC)
  std::size_t eager_threshold = 16_KiB;
  double mpi_call_us = 0.12;   ///< entering an MPI call / one progress poll
  double match_us = 0.06;      ///< matching one envelope against a queue
  double ctrl_msg_bytes = 64;  ///< on-wire size of RTS/CTS/RTR/FIN envelopes

  // -- offload framework ------------------------------------------------------
  double proxy_entry_us = 0.30;       ///< proxy-side handling of one group entry
  double proxy_poll_us = 0.15;        ///< one proxy progress-loop iteration
  double group_entry_bytes = 48.0;    ///< serialized size of one Group_op entry
  double staging_setup_us = 150.0;    ///< BluesMPI first-touch per (buffer,size) setup

  // -- segmented data path (chunked pipelining / multi-proxy striping) --------
  // Messages above `stripe_threshold` are split into `chunk_bytes` segments
  // striped round-robin across the node's proxy workers; 0 disables the
  // feature entirely (the default), in which case no chunk descriptor, stop
  // broadcast, or extra metric exists and virtual times are bit-identical to
  // a build without it.
  std::size_t stripe_threshold = 0;   ///< stripe messages larger than this; 0 = off
  std::size_t chunk_bytes = 131072;   ///< segment size for striped transfers
  int max_chunks_in_flight = 4;       ///< per-proxy cap on concurrently posted chunks
  /// Per-proxy-process data-path issue rate (the per-QP/per-core limit the
  /// SmartNIC offload studies measure). 0 = uncapped: DPU-initiated RDMA
  /// serializes only on the NIC port, exactly the seed model.
  double dpu_qp_GBps = 0.0;
  /// LRU capacity for the registration caches (HostGvmiCache / DpuGvmiCache /
  /// mpi::RegCache); 0 = unbounded (the default — seed behaviour).
  std::size_t reg_cache_capacity = 0;

  bool stripe_enabled() const { return stripe_threshold > 0; }

  /// Per-message post overhead for the given core kind, in simulated time.
  SimDuration post_overhead(CoreKind k) const {
    const double us = k == CoreKind::kHost ? host_post_us : host_post_us * dpu_post_factor;
    return from_us(us);
  }

  /// Serialization time of `bytes` on the NIC port.
  SimDuration wire_time(std::size_t bytes) const {
    return from_ns(static_cast<double>(bytes) / nic_bandwidth_GBps);
  }

  /// Serialization time of `bytes` on the host<->DPU PCIe lane.
  SimDuration pcie_time(std::size_t bytes) const {
    return from_ns(static_cast<double>(bytes) / pcie_GBps);
  }

  /// Host-core memcpy time for `bytes`.
  SimDuration memcpy_time(std::size_t bytes) const {
    return from_ns(static_cast<double>(bytes) / memcpy_GBps);
  }

  /// DPU staging-copy time for `bytes`.
  SimDuration staging_copy_time(std::size_t bytes) const {
    return from_ns(static_cast<double>(bytes) / staging_copy_GBps);
  }

  /// Standard (IB) registration cost for `bytes` on the given core.
  SimDuration reg_time(std::size_t bytes, CoreKind k) const {
    const auto pages = static_cast<double>((bytes + page_bytes - 1) / page_bytes);
    double us = host_reg_base_us + pages * host_reg_per_page_us;
    if (k == CoreKind::kDpu) us *= dpu_reg_factor;
    return from_us(us);
  }

  /// GVMI-flavoured registration (host-side first registration or DPU-side
  /// cross-registration) for `bytes`.
  SimDuration gvmi_reg_time(std::size_t bytes, CoreKind k) const {
    return reg_time(bytes, k) + from_us(k == CoreKind::kDpu ? gvmi_reg_extra_us * dpu_reg_factor
                                                            : gvmi_reg_extra_us);
  }
};

/// One tenant of the pooled proxy fleet ("SmartNIC as a service"): an
/// independent job — its own communicator, its own offload traffic — that
/// shares the DPU workers with every other tenant. Tenants own disjoint
/// host-rank sets; the proxy fleet multiplexes them with deficit-weighted
/// fair queueing (`weight`) and per-tenant admission control
/// (`max_inflight`). An empty ClusterSpec::tenants list means the classic
/// single-tenant world: every rank in implicit tenant 0 and ALL tenant
/// machinery inert (no extra state, messages or metrics), so existing specs
/// stay byte-identical.
struct TenantSpec {
  std::vector<int> ranks;  ///< host ranks owned by this tenant (disjoint)
  int weight = 1;          ///< proxy-share weight for fair queueing (>= 1)
  /// Admission quota: max offload ops (basic or group calls) this tenant may
  /// have in flight cluster-wide; further calls are rejected with
  /// Status::kRejected instead of queued. 0 = unlimited.
  int max_inflight = 0;
};

/// Fabric topology: a two-level k-ary fat-tree. `leaf_radix` nodes hang off
/// each leaf switch; every leaf has one uplink per spine switch, and a
/// message to `dst` rides spine `dst % spines` (deterministic d-mod-k path
/// selection). Aggregate uplink capacity per leaf is
/// `leaf_radix * link rate / oversubscription`, split evenly across the
/// spines, so `spines` controls path diversity while `oversubscription`
/// controls the bisection. The 0 defaults inherit the matching CostModel
/// knobs (cost.radix / cost.oversubscription / cost.nic_bandwidth_GBps),
/// which keeps every pre-fat-tree spec meaningful unchanged; a 1-spine,
/// 1:1 tree is a non-blocking core and reproduces the flat single-switch
/// model byte-identically (pinned by tests/topology_test.cpp).
struct TopologySpec {
  int spines = 1;                 ///< core switches (>= 1)
  int leaf_radix = 0;             ///< nodes per leaf; 0 = inherit cost.radix
  double oversubscription = 0.0;  ///< core bisection divisor; 0 = inherit
  double link_GBps = 0.0;         ///< edge link rate; 0 = inherit NIC rate
};

/// Validated, fully-resolved view of the fabric topology (all inheritance
/// applied). Built by ClusterSpec::resolve_topology(); the Fabric consumes
/// only this.
struct Topology {
  int nodes = 0;
  int leaf_radix = 0;
  int spines = 0;
  int leaves = 0;
  double oversubscription = 1.0;
  double link_GBps = 0.0;

  /// A 1-spine, 1:1 core is non-blocking (full bisection through a single
  /// crossbar): cross-leaf traffic serializes only at the edge ports,
  /// exactly the flat single-switch model.
  bool core_active() const { return spines > 1 || oversubscription > 1.0; }

  int leaf_of(int node) const { return node / leaf_radix; }
  /// d-mod-k path selection: the spine is a pure function of the
  /// destination, so all traffic to one node shares a core path (no
  /// reordering) and destinations stripe evenly across spines.
  int spine_of(int dst_node) const { return dst_node % spines; }
  /// Per-uplink rate: the leaf's aggregate core capacity split across its
  /// `spines` uplinks.
  double uplink_GBps() const {
    return link_GBps * leaf_radix / (oversubscription * spines);
  }
};

/// Static shape of the simulated cluster plus its cost model.
struct ClusterSpec {
  int nodes = 2;
  int host_procs_per_node = 1;  ///< "PPN"
  int proxies_per_dpu = 1;      ///< worker processes launched on each DPU
  TopologySpec topology;
  CostModel cost;
  FaultSpec fault;
  /// Tenants sharing the pooled proxy fleet; empty = single-tenant world
  /// (implicit tenant 0 owning every rank, all multi-tenant machinery off).
  std::vector<TenantSpec> tenants;

  int total_host_ranks() const { return nodes * host_procs_per_node; }
  int total_proxies() const { return nodes * proxies_per_dpu; }
  int total_procs() const { return total_host_ranks() + total_proxies(); }

  // ---- flat process-id scheme ----------------------------------------------
  // Host ranks occupy [0, H); proxy processes occupy [H, H + P). Host ranks
  // are laid out node-major (node = rank / PPN), matching typical block
  // mapping on real clusters.

  bool is_host(int proc) const { return proc >= 0 && proc < total_host_ranks(); }
  bool is_proxy(int proc) const {
    return proc >= total_host_ranks() && proc < total_procs();
  }

  int node_of(int proc) const {
    require(proc >= 0 && proc < total_procs(), "proc id out of range");
    if (is_host(proc)) return proc / host_procs_per_node;
    return (proc - total_host_ranks()) / proxies_per_dpu;
  }

  CoreKind core_kind(int proc) const {
    return is_host(proc) ? CoreKind::kHost : CoreKind::kDpu;
  }

  // ---- tenants ---------------------------------------------------------------

  bool multi_tenant() const { return !tenants.empty(); }
  int num_tenants() const { return tenants.empty() ? 1 : static_cast<int>(tenants.size()); }

  /// Tenant owning `host_rank` (0 in a single-tenant world). Throws a
  /// structured SpecError on an uncovered rank — the silent-misassignment
  /// failure mode of the old modulo mapping is a hard error now.
  int tenant_of_host(int host_rank) const {
    require(is_host(host_rank), "tenant_of_host expects a host rank");
    if (tenants.empty()) return 0;
    for (std::size_t t = 0; t < tenants.size(); ++t) {
      for (int r : tenants[t].ranks) {
        if (r == host_rank) return static_cast<int>(t);
      }
    }
    throw SpecError("TenantSpec.ranks",
                    "host rank " + std::to_string(host_rank) + " not covered by any tenant");
  }

  int tenant_weight(int tenant) const {
    return tenants.empty() ? 1 : tenants.at(static_cast<std::size_t>(tenant)).weight;
  }

  /// True when `proxy` serves at least one of `tenant`'s ranks — the
  /// tenant's fault/failover domain. Sibling re-dispatch and stripe
  /// delegation never leave this set, so one tenant's failover load can
  /// never ride another tenant's workers.
  bool proxy_serves_tenant(int proxy, int tenant) const {
    if (tenants.empty()) return is_proxy(proxy);
    for (int r : tenants.at(static_cast<std::size_t>(tenant)).ranks) {
      if (proxy_for_host(r) == proxy) return true;
    }
    return false;
  }

  /// Sorted distinct proxies serving `tenant`'s ranks on `node` (empty when
  /// the tenant has no rank there). The stripe planner round-robins chunk
  /// owners over exactly this set in a multi-tenant world.
  std::vector<int> tenant_node_proxies(int tenant, int node) const {
    std::vector<int> out;
    for (int r : tenants.at(static_cast<std::size_t>(tenant)).ranks) {
      if (node_of(r) != node) continue;
      const int p = proxy_for_host(r);
      bool seen = false;
      for (int q : out) seen = seen || q == p;
      if (!seen) out.push_back(p);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Proxy process id serving `host_rank`. Single-tenant: the paper's §VII-A
  /// mapping (proxy_local_rank = host_source_rank % num_proxies_per_dpu, on
  /// the host's own node). Multi-tenant: the explicit tenant mapping — the
  /// rank's index among its OWN tenant's ranks on the node, round-robin over
  /// the node's workers. The raw modulo silently mis-assigns non-contiguous
  /// tenant rank sets (e.g. tenant ranks {0,2} with 2 workers both land on
  /// local worker 0 while worker 1 idles); counting tenant-local ranks makes
  /// the spread explicit and collision-free.
  int proxy_for_host(int host_rank) const {
    require(is_host(host_rank), "proxy_for_host expects a host rank");
    const int node = node_of(host_rank);
    if (tenants.empty()) {
      const int local = host_rank % proxies_per_dpu;
      return total_host_ranks() + node * proxies_per_dpu + local;
    }
    const TenantSpec& t = tenants.at(static_cast<std::size_t>(tenant_of_host(host_rank)));
    int idx = 0;  // tenant-local on-node index, order-independent of ranks[]
    for (int r : t.ranks) {
      if (r < host_rank && is_host(r) && node_of(r) == node) ++idx;
    }
    return proxy_id(node, idx % proxies_per_dpu);
  }

  /// First host rank on `node` (host ranks on a node are contiguous).
  int first_host_on_node(int node) const { return node * host_procs_per_node; }

  /// Proxy id for (node, local proxy index).
  int proxy_id(int node, int local) const {
    return total_host_ranks() + node * proxies_per_dpu + local;
  }

  /// Validates the spec and returns the resolved fabric topology. Throws
  /// SpecError naming the offending field; the Fabric constructor calls
  /// this, so every simulation front-end gets the checks for free.
  Topology resolve_topology() const {
    if (nodes < 1) throw SpecError("ClusterSpec.nodes", "must be >= 1");
    if (host_procs_per_node < 1) {
      throw SpecError("ClusterSpec.host_procs_per_node", "must be >= 1");
    }
    if (proxies_per_dpu < 0) {
      throw SpecError("ClusterSpec.proxies_per_dpu", "must be >= 0");
    }
    if (!(cost.nic_bandwidth_GBps > 0.0)) {
      throw SpecError("CostModel.nic_bandwidth_GBps", "zero-rate link");
    }
    if (!(cost.pcie_GBps > 0.0)) {
      throw SpecError("CostModel.pcie_GBps", "zero-rate link");
    }
    Topology t;
    t.nodes = nodes;
    t.spines = topology.spines;
    t.leaf_radix = topology.leaf_radix != 0 ? topology.leaf_radix : cost.radix;
    t.oversubscription = topology.oversubscription != 0.0 ? topology.oversubscription
                                                          : cost.oversubscription;
    t.link_GBps = topology.link_GBps != 0.0 ? topology.link_GBps : cost.nic_bandwidth_GBps;
    if (t.spines < 1) throw SpecError("TopologySpec.spines", "must be >= 1");
    if (t.leaf_radix < 1) {
      throw SpecError("TopologySpec.leaf_radix", "must be >= 1 after inheritance");
    }
    if (!(t.link_GBps > 0.0)) {
      throw SpecError("TopologySpec.link_GBps", "zero-rate link");
    }
    if (t.oversubscription < 1.0) {
      throw SpecError("TopologySpec.oversubscription",
                      "must be >= 1 (a core faster than the edge is not a fat-tree)");
    }
    // A partially-filled trailing leaf would make d-mod-k striping and the
    // per-leaf capacity asymmetric; either everything fits on one leaf or
    // the leaves divide the nodes evenly.
    if (nodes > t.leaf_radix && nodes % t.leaf_radix != 0) {
      throw SpecError("TopologySpec.leaf_radix",
                      "node count not divisible into equal leaves");
    }
    t.leaves = (nodes + t.leaf_radix - 1) / t.leaf_radix;
    if (!tenants.empty()) {
      // owner[r] = tenant index, -1 = unclaimed. Every host rank must be
      // claimed exactly once; a rank the modulo mapping used to mis-assign
      // silently is a structured error here.
      std::vector<int> owner(static_cast<std::size_t>(total_host_ranks()), -1);
      for (std::size_t ti = 0; ti < tenants.size(); ++ti) {
        const TenantSpec& ts = tenants[ti];
        if (ts.weight < 1) throw SpecError("TenantSpec.weight", "must be >= 1");
        if (ts.max_inflight < 0) {
          throw SpecError("TenantSpec.max_inflight", "must be >= 0 (0 = unlimited)");
        }
        if (ts.ranks.empty()) {
          throw SpecError("TenantSpec.ranks",
                          "tenant " + std::to_string(ti) + " owns no ranks");
        }
        for (int r : ts.ranks) {
          if (r < 0 || r >= total_host_ranks()) {
            throw SpecError("TenantSpec.ranks",
                            "rank " + std::to_string(r) + " out of host-rank range");
          }
          if (owner[static_cast<std::size_t>(r)] != -1) {
            throw SpecError("TenantSpec.ranks",
                            "rank " + std::to_string(r) + " claimed by tenants " +
                                std::to_string(owner[static_cast<std::size_t>(r)]) + " and " +
                                std::to_string(ti));
          }
          owner[static_cast<std::size_t>(r)] = static_cast<int>(ti);
        }
      }
      for (int r = 0; r < total_host_ranks(); ++r) {
        if (owner[static_cast<std::size_t>(r)] == -1) {
          throw SpecError("TenantSpec.ranks",
                          "host rank " + std::to_string(r) + " not covered by any tenant");
        }
      }
    }
    return t;
  }
};

}  // namespace dpu::machine
