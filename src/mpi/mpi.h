// minimpi: an MPI-like message-passing library over the simulated cluster.
//
// Faithfulness notes (these drive every result in the paper):
//  * Nonblocking operations return Request handles; protocol state advances
//    ONLY inside this rank's MPI calls (test/wait/progress) — an idle HCA
//    delivers packets, but matching, CTS replies, rendezvous RDMA posting
//    and completion harvesting all require the owning CPU to enter the
//    library, exactly like a real single-threaded MPI without an async
//    progress thread.
//  * Nonblocking collectives are schedules of stages; stages with data
//    dependencies (binomial/ring bcast) cannot start until a progress call
//    observes the previous stage's completion.
//  * A registration cache keyed by (addr,len) amortizes IB registration.
//
// Buffers are machine::Addr values allocated from the rank's AddressSpace
// (backed buffers carry real bytes through every path).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "machine/spec.h"
#include "mpi/communicator.h"
#include "mpi/message.h"
#include "mpi/reg_cache.h"
#include "sim/engine.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "verbs/verbs.h"

namespace dpu::mpi {

/// Verbs inbox channel used by minimpi.
inline constexpr int kMpiChannel = 1;

struct CollState;

struct RequestState {
  enum class Kind { kSend, kRecv, kColl };
  Kind kind = Kind::kSend;
  bool done = false;
  std::uint64_t id = 0;
  // Receive bookkeeping.
  Envelope env{};
  machine::Addr buf = 0;
  std::size_t len = 0;
  // Nonblocking-collective bookkeeping.
  std::unique_ptr<CollState> coll;

  ~RequestState();
};

using Request = std::shared_ptr<RequestState>;

class MpiWorld;

/// Per-host-rank MPI context. All members must be called from the owning
/// rank's coroutine (they charge that rank's CPU time).
class MpiCtx {
 public:
  MpiCtx(MpiWorld& world, int world_rank);
  MpiCtx(const MpiCtx&) = delete;
  MpiCtx& operator=(const MpiCtx&) = delete;
  ~MpiCtx();

  int rank() const { return rank_; }
  int size() const;
  verbs::ProcCtx& vctx();
  RegCache& reg_cache() { return reg_cache_; }

  // ---- point-to-point -------------------------------------------------------
  sim::Task<Request> isend(machine::Addr buf, std::size_t len, int dst_world, int tag,
                           int context = 0);
  sim::Task<Request> irecv(machine::Addr buf, std::size_t len, int src_world, int tag,
                           int context = 0);
  sim::Task<bool> test(const Request& req);
  sim::Task<void> wait(const Request& req);
  sim::Task<void> waitall(std::span<const Request> reqs);
  sim::Task<void> send(machine::Addr buf, std::size_t len, int dst_world, int tag);
  sim::Task<void> recv(machine::Addr buf, std::size_t len, int src_world, int tag);

  // ---- collectives (comm ranks; `len` is bytes per block) --------------------
  sim::Task<void> barrier(const Communicator& comm);
  sim::Task<void> bcast(machine::Addr buf, std::size_t len, int root, const Communicator&);
  sim::Task<Request> ibcast(machine::Addr buf, std::size_t len, int root,
                            const Communicator&);
  sim::Task<Request> ibcast_ring(machine::Addr buf, std::size_t len, int root,
                                 const Communicator&);
  sim::Task<Request> ialltoall(machine::Addr sbuf, machine::Addr rbuf,
                               std::size_t bytes_per_rank, const Communicator&);
  sim::Task<void> alltoall(machine::Addr sbuf, machine::Addr rbuf,
                           std::size_t bytes_per_rank, const Communicator&);
  sim::Task<Request> iallgather(machine::Addr sbuf, machine::Addr rbuf,
                                std::size_t bytes_per_block, const Communicator&);
  /// Sum-reduction over doubles (count values); blocking, recursive doubling.
  sim::Task<void> allreduce_sum(machine::Addr sbuf, machine::Addr rbuf, std::size_t count,
                                const Communicator& comm);
  /// Root gathers one `block` of bytes from every rank (binomial-free,
  /// linear like small-cluster MPICH).
  sim::Task<void> gather(machine::Addr sbuf, machine::Addr rbuf, std::size_t block, int root,
                         const Communicator& comm);
  /// Root scatters per-rank blocks (linear).
  sim::Task<void> scatter(machine::Addr sbuf, machine::Addr rbuf, std::size_t block,
                          int root, const Communicator& comm);
  /// Sum-reduction of doubles to the root (gather + local sums at root).
  sim::Task<void> reduce_sum(machine::Addr sbuf, machine::Addr rbuf, std::size_t count,
                             int root, const Communicator& comm);
  /// Combined send+recv without deadlock (posts both, waits both).
  sim::Task<void> sendrecv(machine::Addr sbuf, std::size_t slen, int dst, int stag,
                           machine::Addr rbuf, std::size_t rlen, int src, int rtag);

  /// One progress poll: drains arrivals, harvests completions, advances
  /// collective schedules. Returns true if anything moved.
  sim::Task<bool> progress();

  /// Models application computation for `d` of CPU time (no MPI progress!).
  sim::Task<void> compute(SimDuration d);

  /// Diagnostic snapshot of protocol state (deadlock investigations).
  std::string debug_dump() const;

 private:
  friend class MpiWorld;

  struct Unexpected {
    enum class Type { kEagerNet, kRtsNet, kEagerShm, kRtsShm } type;
    Envelope env;
    std::size_t len = 0;
    std::vector<std::byte> data;
    std::uint64_t sender_req = 0;
    machine::Addr src_addr = 0;
    int src_proc = -1;
  };

  /// Pops the first posted receive matching `env`, or nullptr.
  Request match_posted(const Envelope& env);
  // kMpiChannel handlers, one per MpiMsg alternative (reached through
  // sim::dispatch); `src` is the sending proc (-1 on the shared-memory path).
  sim::Task<void> on(EagerNetMsg& eager, int src);
  sim::Task<void> on(RtsNetMsg& rts, int src);
  sim::Task<void> on(CtsNetMsg& cts, int src);
  void on(FinNetMsg& fin, int);
  sim::Task<void> on(EagerShmMsg& eshm, int);
  sim::Task<void> on(RtsShmMsg& rshm, int);
  void on(FinShmMsg& fshm, int);
  sim::Task<bool> try_match_unexpected(const Request& recv);
  sim::Task<void> complete_recv_from(const Unexpected& u, const Request& recv);
  sim::Task<void> start_rndv_reply(const Request& recv, std::uint64_t sender_req,
                                   int sender_world);
  sim::Task<bool> advance_colls();
  sim::Task<void> post_coll_stage(const Request& coll_req);
  int next_coll_context(const Communicator& comm);

  MpiWorld& world_;
  int rank_;
  RegCache reg_cache_;
  std::uint64_t next_req_ = 1;

  /// Matching key (context, source world rank, tag); FIFO per key.
  using MatchKey = std::tuple<int, int, int>;
  static MatchKey key_of(const Envelope& e) { return {e.context, e.src_world, e.tag}; }

  std::map<MatchKey, std::deque<Request>> posted_recvs_;
  std::map<MatchKey, std::deque<Unexpected>> unexpected_;
  std::map<std::uint64_t, Request> pending_sends_;  // waiting on CTS / FinShm
  std::map<std::uint64_t, Request> awaiting_fin_;   // rndv recvs, CTS sent
  std::vector<Request> active_colls_;
  std::map<int, int> comm_seq_;  // per-communicator collective sequence
};

/// Owns one MpiCtx per host rank plus the world communicator.
class MpiWorld {
 public:
  explicit MpiWorld(verbs::Runtime& rt);

  MpiCtx& ctx(int world_rank) { return *ctxs_.at(static_cast<std::size_t>(world_rank)); }
  CommPtr world() const { return world_comm_; }
  verbs::Runtime& verbs() { return rt_; }
  const machine::ClusterSpec& spec() const { return rt_.spec(); }
  sim::Engine& engine() { return rt_.engine(); }

  /// Deterministic communicator construction: every participating rank must
  /// call with the identical rank list; the same list yields the same
  /// context id everywhere.
  CommPtr create_comm(const std::vector<int>& world_ranks);

  /// Intra-node (shared-memory) delivery, bypassing the NIC.
  void deliver_local(int src_rank, int dst_rank, MpiMsg body, SimDuration delay);

 private:
  verbs::Runtime& rt_;
  CommPtr world_comm_;
  std::vector<std::unique_ptr<MpiCtx>> ctxs_;
  std::map<std::vector<int>, CommPtr> comm_cache_;
  int next_context_ = 1;
  /// Per-sender program-order counters for the shared-memory mailbox path
  /// (see deliver_local's stamp).
  std::vector<std::uint64_t> shm_stamp_;
};

/// Collective schedule: stages of sends/receives; a stage starts only after
/// every operation of the previous stage completed.
struct CollOp {
  bool is_send = false;
  int peer_world = -1;
  machine::Addr addr = 0;
  std::size_t len = 0;
  int tag = 0;
};

struct CollState {
  int context = 0;
  std::vector<std::vector<CollOp>> stages;
  std::size_t next_stage = 0;
  std::vector<Request> inflight;
  std::size_t check_cursor = 0;  ///< first possibly-unfinished inflight op
  bool stage_posted = false;
};

}  // namespace dpu::mpi
