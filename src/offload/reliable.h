// Reliable delivery for offload control messages under fault injection.
//
// One Retransmitter lives in each offload endpoint (host side) and each
// proxy (DPU side). When the cluster's FaultPlan is enabled, every control
// message the owner wants delivered-exactly-once carries a SeqHeader with a
// per-destination sequence number and is guarded by a timeout/retransmit
// timer with exponential backoff. Every delivered copy (duplicates
// included) is acked by the transport at *delivery* time; receivers
// suppress replays with a DupFilter, so the protocol survives drop,
// duplication, and delay of any control message.
//
// Model choices, deliberately mirroring RC-transport hardware:
//   * Retransmits are NIC-autonomous — they re-post the wire transfer with
//     no initiator CPU charge (post_ctrl_raw / post_flag_write_raw).
//   * Acks are generated by the receiving NIC when the message lands in the
//     inbox, not when software handles it — a message delivered to a
//     process that already exited its progress loop still acks, exactly
//     like an RC receive completion. The AckState token is set after the
//     return-path latency and is never faulted. Duplicates still arise
//     naturally from timeout/ack races.
//   * With faults disabled every entry point forwards to the plain verbs
//     call with an unsequenced header (seq 0) — no RNG, no timers —
//     preserving bit-identical virtual times.
#pragma once

#include <any>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>

#include "common/metrics.h"
#include "offload/protocol.h"
#include "sim/task.h"
#include "verbs/verbs.h"

namespace dpu::offload {

/// Shared ack token for one reliable control message. The receiving NIC's
/// delivery hook marks it after the (simulated) transport-level ack latency;
/// the sender's pending retransmit timer reads it. This models the RC QP's
/// hardware ack without a second inbox: acks themselves are never faulted
/// (InfiniBand loses whole packets, and the retry logic only needs "ack seen
/// by deadline?").
struct AckState {
  bool acked = false;
  std::function<void()> on_ack;  ///< optional; runs once, when the first ack lands
};

class Retransmitter {
 public:
  explicit Retransmitter(verbs::ProcCtx& ctx);
  Retransmitter(const Retransmitter&) = delete;
  Retransmitter& operator=(const Retransmitter&) = delete;

  /// True when the cluster's fault plan is active; callers may branch on
  /// this to keep clean-path code byte-identical to the pre-fault design.
  bool enabled() const;

  /// Reliable counterpart of ProcCtx::post_ctrl (same CPU charge on the
  /// first attempt) for the two retransmitted channels; the message type
  /// picks the channel. Falls through to plain post_ctrl when disabled.
  sim::Task<void> send(int dst_proc, ProxyMsg msg, std::size_t wire_bytes);
  sim::Task<void> send(int dst_proc, GroupMetaMsg msg, std::size_t wire_bytes);

  /// Delivery hook that fires a reliable kProxyChannel send when invoked.
  /// Replaces make_imm_hook for arrival notifications under faults (an
  /// immediate lost with its carrier packet has no hardware retry of its
  /// own); returns the plain imm hook when disabled.
  std::function<void()> make_hook(int dst_proc, ProxyMsg msg);

  /// Reliable counterpart of ProcCtx::post_flag_write. The completion Event
  /// is idempotent, so duplicate deliveries are harmless. Returns the write's
  /// ack token (null when disabled: a clean-run flag write always lands).
  sim::Task<std::shared_ptr<AckState>> flag_write(int dst_proc, verbs::Completion flag,
                                                  int wake_proc);

  /// Timeout-triggered resends (for the owner to expose via the registry).
  const metrics::Counter& retries() const { return retries_; }

  /// Retransmit budgets exhausted (peers written off as unreachable).
  const metrics::Counter& give_ups() const { return give_ups_; }

  /// Installs the give-up handler: called (from an engine callback, so no
  /// coroutine context) the first time a destination exhausts its retransmit
  /// budget. Without a handler a give-up still only marks the peer — the
  /// old behaviour of aborting the whole run made failover impossible.
  void on_give_up(std::function<void(int dst_proc)> fn) { give_up_cb_ = std::move(fn); }

  /// True once `dst_proc` has exhausted a retransmit budget.
  bool gave_up_on(int dst_proc) const { return unreachable_.count(dst_proc) > 0; }

 private:
  struct Pending {
    bool is_flag = false;
    int dst = -1;
    int channel = 0;
    std::size_t wire_bytes = 0;
    std::any wire;  // Sequenced<...> payload, resent verbatim (same seq)
    verbs::Completion flag;
    int wake = -1;
    std::shared_ptr<AckState> ack;
    int attempt = 0;
    SimDuration timeout = 0;
  };

  /// Next sequencing header for `dst_proc` (seq 0 when disabled).
  SeqHeader stamp(int dst_proc);
  /// Shared wire stage of the typed sends: `wire` is the channel's payload.
  sim::Task<void> transmit(int dst_proc, int channel, std::any wire, std::size_t wire_bytes);
  /// Reliable send with no CPU charge, for delivery hooks. Requires enabled().
  void transmit_raw(int dst_proc, int channel, std::any wire, std::size_t wire_bytes);
  SimDuration ack_latency(int peer_proc) const;
  /// Hook run at the receiver on delivery; schedules the ack's return trip.
  std::function<void()> ack_return(int peer_proc, std::shared_ptr<AckState> ack);
  void arm(std::shared_ptr<Pending> p);
  /// Puts one copy of `p` on the wire (first attempt and every retry).
  void post_copy(Pending& p);

  verbs::ProcCtx& ctx_;
  std::map<int, std::uint64_t> next_seq_;  ///< per-destination, starts at 1
  std::set<int> unreachable_;  ///< destinations whose budget was exhausted
  std::function<void(int)> give_up_cb_;
  metrics::Counter retries_;
  metrics::Counter give_ups_;
};

}  // namespace dpu::offload
