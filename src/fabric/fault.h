// Deterministic control-plane fault injection.
//
// A FaultPlan is the single decision point the verbs layer consults before
// putting a control message (or a proxy FIN flag write) on the wire. Each
// eligible message's fate is a pure hash of (seed, src, dst, channel,
// per-stream index), so a failing schedule is replayable from (spec, seed)
// alone and the fault pattern is a function of WHAT was sent, not of the
// order same-virtual-time ties were popped — the property the tie-shuffle
// race matrix (src/analysis) requires of a fault-injected workload.
// Decisions are mutually exclusive per message: drop XOR duplicate XOR
// delay XOR clean delivery.
//
// The plan is strictly pass-through when disabled: no hashing, no counter
// bump, no allocation — the property behind the "bit-identical virtual
// times with faults off" guarantee.
//
// Injection only makes messages *worse* (lost, repeated, late); payloads are
// never corrupted. Recovery is the offload layer's job (see
// offload/reliable.h): sequence numbers + dup suppression + ack/timeout/
// retransmit with exponential backoff.
#pragma once

#include <array>
#include <cstdint>
#include <map>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/units.h"
#include "machine/spec.h"

namespace dpu::fabric {

class FaultPlan {
 public:
  /// Channel id the verbs layer passes for flag writes (they ride their own
  /// wire path, not a ctrl-channel inbox).
  static constexpr int kFlagWriteChannel = -2;

  /// Validates the message-fault probabilities *and* the process-level
  /// failure schedule (proxy ids must name proxies of `cluster`, times must
  /// be non-negative) — a bad schedule fails at construction, not at a
  /// confusing mid-run injection point.
  FaultPlan(const machine::FaultSpec& spec, const machine::ClusterSpec& cluster,
            metrics::MetricsRegistry& reg);

  bool enabled() const { return spec_.enabled; }
  const machine::FaultSpec& spec() const { return spec_; }

  /// Process-level failure schedule (crashes/hangs) for the offload runtime
  /// to install on its proxies.
  const std::vector<machine::ProxyFailure>& proxy_failures() const {
    return spec_.proxy_failures;
  }

  /// What should happen to one message bound for `dst_proc` on `channel`.
  struct Decision {
    bool drop = false;
    bool duplicate = false;
    SimDuration extra_delay = 0;
  };

  /// Decides the fate of one message. Only eligible messages of an enabled
  /// plan advance their (src, dst, channel) stream index, keeping the
  /// schedule independent of ineligible traffic. `dst_is_proxy` routes the
  /// per-destination faults_injected counter under the destination proxy's
  /// metric prefix.
  Decision decide(int channel, int src_proc, int dst_proc, bool dst_is_proxy);

  std::uint64_t faults_injected() const { return injected_.value(); }

 private:
  machine::FaultSpec spec_;
  metrics::MetricsRegistry& reg_;
  /// Next per-(src,dst,channel) message index. Message order within one
  /// such stream comes from a single sender coroutine in program order, so
  /// the index does not depend on cross-actor tie scheduling.
  std::map<std::array<int, 3>, std::uint64_t> stream_pos_;
  metrics::Counter injected_;  // total (also split below)
  metrics::Counter drops_;
  metrics::Counter dups_;
  metrics::Counter delays_;
};

}  // namespace dpu::fabric
