// BluesMPI-style staging offload baseline (paper refs [8],[9]).
//
// The state-of-the-art the paper compares against: nonblocking alltoall and
// bcast offloaded to DPU workers that STAGE data through DPU memory —
//   host sbuf --RDMA-read--> DPU staging --wire--> peer DPU staging
//            --RDMA-write--> destination host rbuf
// giving near-perfect overlap but an extra data hop (fig. 6) and a
// first-touch staging-setup cost per (buffer,size) that benchmark warm-up
// iterations hide and applications with alternating buffers pay (the
// paper's §VIII-D observation about P3DFFT).
//
// Only ialltoall and ibcast exist — BluesMPI does not offload generic
// point-to-point patterns, which is exactly the gap the proposed framework
// fills.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <variant>
#include <vector>

#include "mpi/communicator.h"
#include "mpi/reg_cache.h"
#include "sim/engine.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "verbs/verbs.h"

namespace dpu::baselines {

inline constexpr int kBluesChannel = 5;

/// Descriptor: host -> its worker (one per collective call).
struct A2ADesc {
  std::uint64_t key = 0;
  int host_rank = -1;
  mpi::CommPtr comm;
  std::size_t bpr = 0;
  machine::Addr sbuf = 0;
  verbs::RKey sbuf_rkey = 0;
  machine::Addr rbuf = 0;
  verbs::RKey rbuf_rkey = 0;
  bool backed = false;
  verbs::Completion flag;
};

struct BcastDesc {
  std::uint64_t key = 0;
  int host_rank = -1;
  mpi::CommPtr comm;
  std::size_t len = 0;
  int root = 0;  // comm rank
  machine::Addr buf = 0;
  verbs::RKey buf_rkey = 0;
  bool backed = false;
  verbs::Completion flag;
};

/// Staged alltoall block moving worker -> worker (data rides the message;
/// timing-equivalent to the RDMA write BluesMPI posts between staging
/// buffers).
struct BlockMsg {
  std::uint64_t key = 0;
  int dst_rank = -1;       // destination host (world rank)
  int src_comm_rank = -1;  // block index at the destination
  std::size_t bpr = 0;
  std::vector<std::byte> data;
};

struct BcastDataMsg {
  std::uint64_t key = 0;
  int dst_rank = -1;  // destination host (world rank)
  std::size_t len = 0;
  std::vector<std::byte> data;
};

/// The one payload type of kBluesChannel, dispatched by BluesWorker through
/// one handler overload per alternative.
using BluesMsg = std::variant<A2ADesc, BcastDesc, BlockMsg, BcastDataMsg>;

struct BluesRequest {
  verbs::Completion flag;
  bool done() const { return flag->is_set(); }
};
using BluesReqPtr = std::shared_ptr<BluesRequest>;

class BluesMpi;

/// Host-side API (one per host rank).
class BluesEndpoint {
 public:
  BluesEndpoint(BluesMpi& rt, int rank);

  /// Nonblocking staged alltoall over `comm`; `bpr` bytes per rank pair.
  sim::Task<BluesReqPtr> ialltoall(machine::Addr sbuf, machine::Addr rbuf, std::size_t bpr,
                                   mpi::CommPtr comm);

  /// Nonblocking staged broadcast (worker-tree) over `comm`.
  sim::Task<BluesReqPtr> ibcast(machine::Addr buf, std::size_t len, int root,
                                mpi::CommPtr comm);

  sim::Task<void> wait(const BluesReqPtr& req);

  mpi::RegCache& reg_cache() { return reg_cache_; }

 private:
  std::uint64_t next_coll_key(const mpi::Communicator& comm);

  BluesMpi& rt_;
  int rank_;
  mpi::RegCache reg_cache_;
  std::map<int, int> comm_seq_;
};

/// DPU staging worker (one per DPU worker process).
class BluesWorker {
 public:
  BluesWorker(BluesMpi& rt, int proc_id);
  int proc_id() const { return proc_; }
  sim::Task<void> run();

  std::uint64_t staging_setups() const { return setups_; }
  std::uint64_t alltoalls_completed() const { return a2a_done_; }
  std::uint64_t bcasts_completed() const { return bcast_done_; }

 private:
  struct A2AJob {
    std::uint64_t key = 0;
    bool backed = false;
    int host_rank = -1;
    mpi::CommPtr comm;
    std::size_t bpr = 0;
    machine::Addr sbuf = 0;
    verbs::RKey sbuf_rkey = 0;
    machine::Addr rbuf = 0;
    verbs::RKey rbuf_rkey = 0;
    verbs::Completion flag;
    // progress state
    bool read_posted = false;
    verbs::Completion read_done;
    bool blocks_sent = false;
    std::size_t writes_posted = 0;  // RDMA writes into the host rbuf
    std::shared_ptr<std::size_t> writes_done;  // their completions
    std::set<int> arrived;       // source comm-ranks whose block landed here
    bool fin_sent = false;
  };

  struct BcastJob {
    std::uint64_t key = 0;
    bool backed = false;
    int host_rank = -1;
    mpi::CommPtr comm;
    std::size_t len = 0;
    int root = -1;
    machine::Addr buf = 0;
    verbs::RKey buf_rkey = 0;
    verbs::Completion flag;
    bool have_data = false;      // staging holds the payload
    bool read_posted = false;
    verbs::Completion read_done;
    bool forwarded = false;
    bool write_posted = false;   // non-root: staging -> host buf
    verbs::Completion write_done;
    bool fin_sent = false;
  };

  /// Per-(host,buffer,size) staging arena; first touch pays the setup cost.
  struct Arena {
    machine::Addr in = 0;   // blocks read from my host / incoming payload
    machine::Addr out = 0;  // blocks arriving from peers
    verbs::MrInfo mr_in;
    verbs::MrInfo mr_out;
  };

  sim::Task<void> handle(BluesMsg msg);
  // kBluesChannel handlers, one per BluesMsg alternative (sim::dispatch).
  void on(A2ADesc& d);
  void on(BcastDesc& d);
  sim::Task<void> on(BlockMsg& blk);
  sim::Task<void> on(BcastDataMsg& bd);
  sim::Task<bool> advance_a2a(A2AJob& job);
  sim::Task<bool> advance_bcast(BcastJob& job);
  sim::Task<Arena*> arena_for(int host_rank, std::uint64_t buf_sig, std::size_t bytes,
                              bool backed);

  verbs::ProcCtx& vctx();

  BluesMpi& rt_;
  int proc_;
  std::map<std::uint64_t, Arena> arenas_;
  std::vector<std::unique_ptr<A2AJob>> a2a_jobs_;
  std::vector<std::unique_ptr<BcastJob>> bcast_jobs_;
  std::deque<BluesMsg> early_;  // blocks that raced ahead of their job
  std::uint64_t setups_ = 0;
  std::uint64_t a2a_done_ = 0;
  std::uint64_t bcast_done_ = 0;
};

/// Runtime: endpoints + workers (workers share the DPU processes with the
/// offload proxies; conceptually they occupy other ARM cores).
class BluesMpi {
 public:
  explicit BluesMpi(verbs::Runtime& vrt);
  void start();

  BluesEndpoint& endpoint(int rank) { return *endpoints_.at(static_cast<std::size_t>(rank)); }
  BluesWorker& worker_for_host(int host_rank);

  verbs::Runtime& verbs() { return vrt_; }
  const machine::ClusterSpec& spec() const { return vrt_.spec(); }
  sim::Engine& engine() { return vrt_.engine(); }

 private:
  friend class BluesWorker;
  friend class BluesEndpoint;

  verbs::Runtime& vrt_;
  std::vector<std::unique_ptr<BluesEndpoint>> endpoints_;
  std::vector<std::unique_ptr<BluesWorker>> workers_;
  bool started_ = false;
};

}  // namespace dpu::baselines
