#include "baselines/bluesmpi.h"

#include <algorithm>
#include <any>
#include <utility>

#include "common/check.h"
#include "common/rng.h"

namespace dpu::baselines {

namespace {

std::uint64_t arena_key(int host, std::uint64_t sig, std::size_t bytes) {
  std::uint64_t s = (static_cast<std::uint64_t>(host) << 40) ^ sig;
  std::uint64_t mixed = splitmix64(s);
  return mixed ^ (static_cast<std::uint64_t>(bytes) * 0x9E3779B97f4A7C15ull);
}

}  // namespace

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------

BluesMpi::BluesMpi(verbs::Runtime& vrt) : vrt_(vrt) {
  const auto& spec = vrt.spec();
  for (int p = spec.total_host_ranks(); p < spec.total_procs(); ++p) {
    workers_.push_back(std::make_unique<BluesWorker>(*this, p));
  }
  for (int r = 0; r < spec.total_host_ranks(); ++r) {
    endpoints_.push_back(std::make_unique<BluesEndpoint>(*this, r));
  }
}

void BluesMpi::start() {
  require(!started_, "BluesMpi::start called twice");
  started_ = true;
  for (auto& w : workers_) {
    engine().spawn(w->run(), "blues" + std::to_string(w->proc_id()));
  }
}

BluesWorker& BluesMpi::worker_for_host(int host_rank) {
  const int proxy = spec().proxy_for_host(host_rank);
  return *workers_.at(static_cast<std::size_t>(proxy - spec().total_host_ranks()));
}

// ---------------------------------------------------------------------------
// Endpoint
// ---------------------------------------------------------------------------

BluesEndpoint::BluesEndpoint(BluesMpi& rt, int rank) : rt_(rt), rank_(rank) {}

std::uint64_t BluesEndpoint::next_coll_key(const mpi::Communicator& comm) {
  const int seq = comm_seq_[comm.context_id()]++;
  return (static_cast<std::uint64_t>(comm.context_id() + 1) << 24) |
         static_cast<std::uint64_t>(seq);
}

sim::Task<BluesReqPtr> BluesEndpoint::ialltoall(machine::Addr sbuf, machine::Addr rbuf,
                                                std::size_t bpr, mpi::CommPtr comm) {
  auto& vctx = rt_.verbs().ctx(rank_);
  const int n = comm->size();
  auto req = std::make_shared<BluesRequest>();
  req->flag = std::make_shared<sim::Event>(rt_.engine());
  const auto total = bpr * static_cast<std::size_t>(n);
  auto smr = co_await reg_cache_.get(vctx, sbuf, total);
  auto rmr = co_await reg_cache_.get(vctx, rbuf, total);
  A2ADesc d;
  d.key = next_coll_key(*comm);
  d.host_rank = rank_;
  d.comm = std::move(comm);
  d.bpr = bpr;
  d.sbuf = sbuf;
  d.sbuf_rkey = smr.rkey;
  d.rbuf = rbuf;
  d.rbuf_rkey = rmr.rkey;
  d.backed = vctx.mem().backed(sbuf);
  d.flag = req->flag;
  std::any body = BluesMsg{std::move(d)};
  co_await vctx.post_ctrl(rt_.spec().proxy_for_host(rank_), kBluesChannel, std::move(body),
                          0);
  co_return req;
}

sim::Task<BluesReqPtr> BluesEndpoint::ibcast(machine::Addr buf, std::size_t len, int root,
                                             mpi::CommPtr comm) {
  auto& vctx = rt_.verbs().ctx(rank_);
  auto req = std::make_shared<BluesRequest>();
  req->flag = std::make_shared<sim::Event>(rt_.engine());
  auto mr = co_await reg_cache_.get(vctx, buf, len);
  BcastDesc d;
  d.key = next_coll_key(*comm);
  d.host_rank = rank_;
  d.comm = std::move(comm);
  d.len = len;
  d.root = root;
  d.buf = buf;
  d.buf_rkey = mr.rkey;
  d.backed = vctx.mem().backed(buf);
  d.flag = req->flag;
  std::any body = BluesMsg{std::move(d)};
  co_await vctx.post_ctrl(rt_.spec().proxy_for_host(rank_), kBluesChannel, std::move(body),
                          0);
  co_return req;
}

sim::Task<void> BluesEndpoint::wait(const BluesReqPtr& req) {
  co_await rt_.engine().sleep(from_us(rt_.spec().cost.mpi_call_us));
  co_await req->flag->wait();
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

BluesWorker::BluesWorker(BluesMpi& rt, int proc_id) : rt_(rt), proc_(proc_id) {}

verbs::ProcCtx& BluesWorker::vctx() { return rt_.verbs().ctx(proc_); }

sim::Task<BluesWorker::Arena*> BluesWorker::arena_for(int host_rank, std::uint64_t buf_sig,
                                                      std::size_t bytes, bool backed) {
  const std::uint64_t key = arena_key(host_rank, buf_sig, bytes);
  auto it = arenas_.find(key);
  if (it != arenas_.end()) co_return &it->second;
  // First touch: staging buffers are allocated, registered, and the staging
  // pipeline warmed up — the cost benchmarks hide behind warm-up iterations.
  ++setups_;
  co_await rt_.engine().sleep(from_us(rt_.spec().cost.staging_setup_us));
  Arena a;
  a.in = vctx().mem().alloc(bytes, backed);
  a.out = vctx().mem().alloc(bytes, backed);
  a.mr_in = co_await vctx().reg_mr(a.in, bytes);
  a.mr_out = co_await vctx().reg_mr(a.out, bytes);
  co_return &arenas_.emplace(key, a).first->second;
}

sim::Task<void> BluesWorker::run() {
  auto& box = vctx().inbox(kBluesChannel);
  for (;;) {
    bool moved = false;
    while (auto m = box.try_recv()) {
      co_await handle(std::move(verbs::payload<BluesMsg>(*m, "the BluesMPI channel")));
      moved = true;
    }
    // Retry blocks that arrived before their descriptor.
    if (!early_.empty()) {
      std::deque<BluesMsg> retry;
      retry.swap(early_);
      const std::size_t before = retry.size();
      while (!retry.empty()) {
        co_await handle(std::move(retry.front()));
        retry.pop_front();
      }
      if (early_.size() != before) moved = true;
    }
    for (auto it = a2a_jobs_.begin(); it != a2a_jobs_.end();) {
      if (co_await advance_a2a(**it)) moved = true;
      it = (*it)->fin_sent ? a2a_jobs_.erase(it) : it + 1;
    }
    for (auto it = bcast_jobs_.begin(); it != bcast_jobs_.end();) {
      if (co_await advance_bcast(**it)) moved = true;
      it = (*it)->fin_sent ? bcast_jobs_.erase(it) : it + 1;
    }
    if (!moved) co_await vctx().activity().wait();
  }
}

sim::Task<void> BluesWorker::handle(BluesMsg msg) {
  co_await rt_.engine().sleep(from_us(rt_.spec().cost.proxy_entry_us));
  auto step = sim::dispatch(msg, [this](auto& m) { return on(m); });
  if (step.valid()) co_await step;
}

void BluesWorker::on(A2ADesc& d) {
  auto job = std::make_unique<A2AJob>();
  job->writes_done = std::make_shared<std::size_t>(0);
  job->key = d.key;
  job->backed = d.backed;
  job->host_rank = d.host_rank;
  job->comm = d.comm;
  job->bpr = d.bpr;
  job->sbuf = d.sbuf;
  job->sbuf_rkey = d.sbuf_rkey;
  job->rbuf = d.rbuf;
  job->rbuf_rkey = d.rbuf_rkey;
  job->flag = d.flag;
  a2a_jobs_.push_back(std::move(job));
}

void BluesWorker::on(BcastDesc& d) {
  auto job = std::make_unique<BcastJob>();
  job->key = d.key;
  job->backed = d.backed;
  job->host_rank = d.host_rank;
  job->comm = d.comm;
  job->len = d.len;
  job->root = d.root;
  job->buf = d.buf;
  job->buf_rkey = d.buf_rkey;
  job->flag = d.flag;
  bcast_jobs_.push_back(std::move(job));
}

sim::Task<void> BluesWorker::on(BlockMsg& blk) {
  A2AJob* job = nullptr;
  for (auto& j : a2a_jobs_) {
    if (j->key == blk.key && j->host_rank == blk.dst_rank) {
      job = j.get();
      break;
    }
  }
  if (!job) {
    early_.push_back(std::move(blk));
    co_return;
  }
  // Copy into the staging-out slot, then RDMA-write to the host buffer
  // (the second staging hop of fig. 6).
  co_await rt_.engine().sleep(rt_.spec().cost.staging_copy_time(blk.bpr));
  auto& arena = *co_await arena_for(job->host_rank, job->rbuf ^ 0xA2Aull,
                                    job->bpr * static_cast<std::size_t>(job->comm->size()),
                                    job->backed);
  const auto slot = arena.out + static_cast<machine::Addr>(blk.src_comm_rank) * job->bpr;
  if (!blk.data.empty()) vctx().mem().write(slot, blk.data);
  auto c = co_await vctx().post_rdma_write(
      arena.mr_out.lkey, slot, job->host_rank, job->rbuf_rkey,
      job->rbuf + static_cast<machine::Addr>(blk.src_comm_rank) * job->bpr, job->bpr);
  ++job->writes_posted;
  c->subscribe([counter = job->writes_done] { ++*counter; });
  job->arrived.insert(blk.src_comm_rank);
}

sim::Task<void> BluesWorker::on(BcastDataMsg& bd) {
  BcastJob* job = nullptr;
  for (auto& j : bcast_jobs_) {
    if (j->key == bd.key && j->host_rank == bd.dst_rank) {
      job = j.get();
      break;
    }
  }
  if (!job) {
    early_.push_back(std::move(bd));
    co_return;
  }
  co_await rt_.engine().sleep(rt_.spec().cost.staging_copy_time(bd.len));
  auto& arena = *co_await arena_for(job->host_rank, job->buf ^ 0xBCull, job->len, job->backed);
  if (!bd.data.empty()) vctx().mem().write(arena.in, bd.data);
  job->have_data = true;
}

sim::Task<bool> BluesWorker::advance_a2a(A2AJob& job) {
  const int n = job.comm->size();
  const int me = job.comm->rank_of_world(job.host_rank);
  const auto total = job.bpr * static_cast<std::size_t>(n);
  bool moved = false;

  if (!job.read_posted) {
    auto& arena = *co_await arena_for(job.host_rank, job.sbuf, total, job.backed);
    job.read_done = co_await vctx().post_rdma_read(arena.mr_in.lkey, arena.in,
                                                   job.host_rank, job.sbuf_rkey, job.sbuf,
                                                   total);
    job.read_posted = true;
    moved = true;
  }

  if (job.read_posted && job.read_done->is_set() && !job.blocks_sent) {
    auto& arena = *co_await arena_for(job.host_rank, job.sbuf, total, job.backed);
    // Self block straight back to the host rbuf.
    auto c = co_await vctx().post_rdma_write(
        arena.mr_in.lkey, arena.in + static_cast<machine::Addr>(me) * job.bpr,
        job.host_rank, job.rbuf_rkey, job.rbuf + static_cast<machine::Addr>(me) * job.bpr,
        job.bpr);
    ++job.writes_posted;
    c->subscribe([counter = job.writes_done] { ++*counter; });
    job.arrived.insert(me);
    // Every other block to the destination's worker.
    for (int i = 1; i < n; ++i) {
      const int dst = (me + i) % n;
      const int dst_world = job.comm->world_rank(dst);
      BlockMsg blk;
      blk.key = job.key;
      blk.dst_rank = dst_world;
      blk.src_comm_rank = me;
      blk.bpr = job.bpr;
      const auto slot = arena.in + static_cast<machine::Addr>(dst) * job.bpr;
      if (vctx().mem().backed(slot)) blk.data = vctx().mem().read(slot, job.bpr);
      std::any body = BluesMsg{std::move(blk)};
      co_await vctx().post_ctrl(rt_.spec().proxy_for_host(dst_world), kBluesChannel,
                                std::move(body), job.bpr);
    }
    job.blocks_sent = true;
    moved = true;
  }

  if (!job.fin_sent && job.blocks_sent &&
      job.arrived.size() == static_cast<std::size_t>(n)) {
    const bool all_written =
        *job.writes_done == job.writes_posted && job.writes_posted == static_cast<std::size_t>(n);
    if (all_written) {
      co_await vctx().post_flag_write(job.host_rank, job.flag, job.host_rank);
      job.fin_sent = true;
      ++a2a_done_;
      moved = true;
    }
  }
  co_return moved;
}

sim::Task<bool> BluesWorker::advance_bcast(BcastJob& job) {
  const int n = job.comm->size();
  const int me = job.comm->rank_of_world(job.host_rank);
  const int vrank = (me - job.root + n) % n;
  bool moved = false;

  if (vrank == 0 && !job.read_posted) {
    auto& arena = *co_await arena_for(job.host_rank, job.buf ^ 0xBCull, job.len, job.backed);
    job.read_done = co_await vctx().post_rdma_read(arena.mr_in.lkey, arena.in,
                                                   job.host_rank, job.buf_rkey, job.buf,
                                                   job.len);
    job.read_posted = true;
    moved = true;
  }
  if (vrank == 0 && job.read_posted && !job.have_data && job.read_done->is_set()) {
    job.have_data = true;
    moved = true;
  }

  if (job.have_data && !job.forwarded) {
    auto& arena = *co_await arena_for(job.host_rank, job.buf ^ 0xBCull, job.len, job.backed);
    // Binomial forwarding among workers (the [9] design): children of vrank
    // are vrank + m for descending powers of two m below vrank's lowest set
    // bit (all masks for the root).
    int mask;
    if (vrank == 0) {
      mask = 1;
      while (mask < n) mask <<= 1;
      mask >>= 1;
    } else {
      mask = (vrank & -vrank) >> 1;
    }
    for (; mask > 0; mask >>= 1) {
      if (vrank + mask < n) {
        const int child = (vrank + mask + job.root) % n;
        const int child_world = job.comm->world_rank(child);
        BcastDataMsg m;
        m.key = job.key;
        m.dst_rank = child_world;
        m.len = job.len;
        if (vctx().mem().backed(arena.in)) m.data = vctx().mem().read(arena.in, job.len);
        std::any body = BluesMsg{std::move(m)};
        co_await vctx().post_ctrl(rt_.spec().proxy_for_host(child_world), kBluesChannel,
                                  std::move(body), job.len);
      }
    }
    // Non-root workers also deliver the payload into their host's buffer.
    if (vrank != 0) {
      job.write_done = co_await vctx().post_rdma_write(
          arena.mr_in.lkey, arena.in, job.host_rank, job.buf_rkey, job.buf, job.len);
      job.write_posted = true;
    }
    job.forwarded = true;
    moved = true;
  }

  if (job.forwarded && !job.fin_sent) {
    const bool ready = vrank == 0 || (job.write_posted && job.write_done->is_set());
    if (ready) {
      co_await vctx().post_flag_write(job.host_rank, job.flag, job.host_rank);
      job.fin_sent = true;
      ++bcast_done_;
      moved = true;
    }
  }
  co_return moved;
}

}  // namespace dpu::baselines
