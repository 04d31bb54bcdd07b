#include "offload/reliable.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/units.h"

namespace dpu::offload {

Retransmitter::Retransmitter(verbs::ProcCtx& ctx) : ctx_(ctx) {}

bool Retransmitter::enabled() const { return ctx_.runtime().fault().enabled(); }

SeqHeader Retransmitter::stamp(int dst_proc) {
  if (!enabled()) return {};
  return SeqHeader{++next_seq_[dst_proc], ctx_.proc()};
}

SimDuration Retransmitter::ack_latency(int peer_proc) const {
  const auto& spec = ctx_.runtime().spec();
  return from_us(spec.node_of(ctx_.proc()) == spec.node_of(peer_proc)
                     ? spec.cost.loopback_latency_us
                     : spec.cost.wire_latency_us);
}

std::function<void()> Retransmitter::ack_return(int peer_proc,
                                                std::shared_ptr<AckState> ack) {
  auto* eng = &ctx_.engine();
  const SimDuration lat = ack_latency(peer_proc);
  return [eng, lat, ack] {
    eng->schedule_in(lat, [ack] {
      if (ack->acked) return;
      ack->acked = true;
      if (ack->on_ack) ack->on_ack();
    });
  };
}

void Retransmitter::post_copy(Pending& p) {
  if (p.is_flag) {
    ctx_.post_flag_write_raw(p.dst, p.flag, p.wake, ack_return(p.dst, p.ack));
  } else {
    ctx_.post_ctrl_raw(p.dst, p.channel, p.wire, p.wire_bytes, ack_return(p.dst, p.ack));
  }
}

void Retransmitter::arm(std::shared_ptr<Pending> p) {
  auto* self = this;
  ctx_.engine().schedule_in(p->timeout, [self, p] {
    if (p->ack->acked) return;
    ++p->attempt;
    const auto& f = self->ctx_.runtime().spec().fault;
    if (p->attempt > f.max_retries) {
      // Typed give-up instead of the old SimError abort: the message is
      // written off, the destination is marked unreachable, and the owner's
      // handler (wired by the endpoint/proxy) decides what to do — e.g.
      // trigger failover from the next Wait. Throwing here would escape
      // straight out of Engine::run and kill ranks that could still degrade
      // gracefully.
      ++self->give_ups_;
      const bool first = self->unreachable_.insert(p->dst).second;
      if (first && self->give_up_cb_) self->give_up_cb_(p->dst);
      return;
    }
    ++self->retries_;
    self->post_copy(*p);
    p->timeout = from_us(
        std::min(to_us(p->timeout) * f.retry_backoff, f.retry_max_timeout_us));
    self->arm(p);
  });
}

sim::Task<void> Retransmitter::send(int dst_proc, ProxyMsg msg, std::size_t wire_bytes) {
  return transmit(dst_proc, kProxyChannel, ProxyWire{stamp(dst_proc), std::move(msg)},
                  wire_bytes);
}

sim::Task<void> Retransmitter::send(int dst_proc, GroupMetaMsg msg, std::size_t wire_bytes) {
  return transmit(dst_proc, kGroupMetaChannel,
                  GroupMetaWire{stamp(dst_proc), std::move(msg)}, wire_bytes);
}

sim::Task<void> Retransmitter::transmit(int dst_proc, int channel, std::any wire,
                                        std::size_t wire_bytes) {
  if (!enabled()) {
    co_await ctx_.post_ctrl(dst_proc, channel, std::move(wire), wire_bytes);
    co_return;
  }
  // Same CPU charge as post_ctrl, but the wire stage carries the ack hook.
  const auto& spec = ctx_.runtime().spec();
  co_await ctx_.engine().sleep(spec.cost.post_overhead(spec.core_kind(ctx_.proc())));
  transmit_raw(dst_proc, channel, std::move(wire), wire_bytes);
}

void Retransmitter::transmit_raw(int dst_proc, int channel, std::any wire,
                                 std::size_t wire_bytes) {
  require(enabled(), "transmit_raw is only reachable under an active fault plan");
  auto p = std::make_shared<Pending>();
  p->dst = dst_proc;
  p->channel = channel;
  p->wire_bytes = wire_bytes;
  p->wire = std::move(wire);
  p->ack = std::make_shared<AckState>();
  p->timeout = from_us(ctx_.runtime().spec().fault.retry_timeout_us);
  post_copy(*p);
  arm(p);
}

std::function<void()> Retransmitter::make_hook(int dst_proc, ProxyMsg msg) {
  if (!enabled()) {
    return ctx_.make_imm_hook(dst_proc, kProxyChannel, ProxyWire{{}, std::move(msg)});
  }
  auto* self = this;
  auto m = std::make_shared<ProxyMsg>(std::move(msg));
  return [self, dst_proc, m] {
    self->transmit_raw(dst_proc, kProxyChannel, ProxyWire{self->stamp(dst_proc), *m}, 0);
  };
}

sim::Task<std::shared_ptr<AckState>> Retransmitter::flag_write(int dst_proc,
                                                                verbs::Completion flag,
                                                                int wake_proc) {
  if (!enabled()) {
    co_await ctx_.post_flag_write(dst_proc, std::move(flag), wake_proc);
    co_return nullptr;
  }
  const auto& spec = ctx_.runtime().spec();
  co_await ctx_.engine().sleep(spec.cost.post_overhead(spec.core_kind(ctx_.proc())));
  auto p = std::make_shared<Pending>();
  p->is_flag = true;
  p->dst = dst_proc;
  p->flag = std::move(flag);
  p->wake = wake_proc;
  p->ack = std::make_shared<AckState>();
  p->timeout = from_us(spec.fault.retry_timeout_us);
  post_copy(*p);
  arm(p);
  co_return p->ack;
}

}  // namespace dpu::offload
