// Wire protocol between host processes and DPU proxy (worker) processes.
//
// Channels (payload types at the end of this file):
//   kProxyChannel     — RTS/RTR control messages, group packets, cached
//                       calls, inter-proxy notifications (arrival imms,
//                       barrier counters).
//   kGroupMetaChannel — host<->host receive-buffer metadata exchange used
//                       by Group_Offload_call's matching step (fig. 9).
//   kLivenessChannel  — heartbeats, fences and degrade notices (fault runs).
//
// Completion flags: in the real system the proxy RDMA-writes a completion
// counter into pre-registered host memory and Wait polls it. Here the
// "address of the counter" is a shared Event carried in the request
// messages; post_flag_write models the RDMA update.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <variant>
#include <vector>

#include "machine/address_space.h"
#include "verbs/verbs.h"

namespace dpu::offload {

inline constexpr int kProxyChannel = 2;
inline constexpr int kGroupMetaChannel = 4;
/// Liveness-plane channel (heartbeats, leases, fences, degrade notices).
/// Deliberately distinct from the faulted control channels: losing liveness
/// probes to the *message* fault model would conflate "lossy wire" with
/// "dead proxy". 5 is taken by the BluesMPI baseline.
inline constexpr int kLivenessChannel = 6;

/// Typed completion status surfaced by Wait/Group_Wait/Finalize. The old
/// behaviour — aborting the whole simulation when the control plane gave up
/// on a peer — made failover impossible; callers now observe how the
/// operation completed and the endpoint handles degradation internally.
enum class [[nodiscard]] Status {
  kOk,           ///< completed on the offloaded (proxy) path
  kDegraded,     ///< completed, but via host fallback or sibling re-dispatch
  kUnreachable,  ///< peer unreachable and no failover path available
  kRejected,     ///< refused at admission: tenant over its max_inflight quota
};

/// Sequencing header of the two retransmitted channels (kProxyChannel,
/// kGroupMetaChannel). Under an active fault plan the Retransmitter stamps a
/// per-(sender, receiver) seq starting at 1 and the receiver's DupFilter
/// drops replays; clean runs ship `seq == 0` and skip the filter.
struct SeqHeader {
  std::uint64_t seq = 0;  ///< 0 = unsequenced (no fault plan)
  int sender = -1;        ///< proc id the seq space belongs to
};

/// Per-receiver duplicate suppression over (sender, seq). Seen-sets compact
/// to a contiguous base so memory stays O(reorder window), not O(messages).
class DupFilter {
 public:
  /// Returns true the first time (sender, seq) is seen, false for replays.
  bool accept(int sender, std::uint64_t seq) {
    auto& s = per_sender_[sender];
    if (seq <= s.base) return false;
    if (!s.seen.insert(seq).second) return false;
    while (!s.seen.empty() && *s.seen.begin() == s.base + 1) {
      ++s.base;
      s.seen.erase(s.seen.begin());
    }
    return true;
  }

  /// Drop the per-sender window (pooled-proxy hygiene: a finalized host's
  /// seq space must not linger into the next tenant's job on this proxy).
  void erase_sender(int sender) { per_sender_.erase(sender); }

  bool has_sender(int sender) const { return per_sender_.count(sender) != 0; }

 private:
  struct Window {
    std::uint64_t base = 0;  ///< all seqs <= base already accepted
    std::set<std::uint64_t> seen;
  };
  std::map<int, Window> per_sender_;
};

/// Chunk descriptor for the segmented data path. A message above
/// `CostModel::stripe_threshold` is split into `count` segments; each RTS/
/// RTR/group-entry then describes one segment of the *whole-buffer*
/// registration (offset arithmetic — there is exactly one GVMI registration
/// per striped buffer, never one per chunk). `count == 1` means monolithic:
/// the default, and the only shape that exists with striping off.
struct ChunkInfo {
  std::size_t offset = 0;     ///< byte offset of this segment in the message
  std::uint32_t index = 0;    ///< segment index in [0, count)
  std::uint32_t count = 1;    ///< total segments of the message
  int owner_proxy = -1;       ///< proxy proc id that moves this segment (-1 = home)
};

/// Shared completion countdown for one striped request: the FIN fires (on
/// both hosts) when the *last* chunk's RDMA lands, exactly once. `done[i]`
/// records per-chunk delivery so failover can replay only the chunks a dead
/// proxy still owed.
struct ChunkCountdown {
  int remaining = 0;
  std::vector<char> done;  ///< per-chunk delivered bit (set by the NIC hook)
};

/// Ready-To-Send: host -> (its own) proxy. Carries the GVMI first
/// registration so the proxy can cross-register.
struct RtsProxyMsg {
  int src_rank = -1;
  int dst_rank = -1;
  int tag = 0;
  std::size_t len = 0;  ///< this segment's length (whole message when count==1)
  verbs::GvmiMrInfo src_info;  ///< whole-buffer registration (chunks offset into it)
  verbs::Completion src_flag;  ///< host-side completion counter (FIN target)
  ChunkInfo chunk;
  std::shared_ptr<ChunkCountdown> countdown;  ///< shared across the chunk-set
  int tenant = 0;  ///< owning tenant — scopes every proxy-side key (no aliasing)
};

/// Ready-To-Receive: destination host -> the *source-side* proxy.
struct RtrProxyMsg {
  int src_rank = -1;
  int dst_rank = -1;
  int tag = 0;
  std::size_t len = 0;
  machine::Addr dst_addr = 0;  ///< already offset for this segment
  verbs::RKey dst_rkey = 0;    ///< whole-buffer rkey
  verbs::Completion dst_flag;
  ChunkInfo chunk;
  /// Receiver-side countdown: its done[] bits are the destination host's
  /// view of per-chunk delivery (set by the same NIC hook that marks the
  /// sender-side countdown). The FIN decision itself uses the RTS countdown.
  std::shared_ptr<ChunkCountdown> countdown;
  int tenant = 0;
};

enum class GopType { kSend, kRecv, kBarrier };

/// One matched Group_op entry as shipped to the proxy (fig. 9's
/// Group_Offload_packet element).
struct GroupEntryWire {
  GopType type = GopType::kSend;
  int peer = -1;  ///< dst rank for sends, src rank for recvs
  int tag = 0;
  std::size_t len = 0;
  // Send-only fields.
  machine::Addr src_addr = 0;
  verbs::GvmiMrInfo src_info;   ///< host GVMI registration of the source
  machine::Addr dst_addr = 0;   ///< matched destination buffer
  verbs::RKey dst_rkey = 0;
  std::uint64_t dst_req_id = 0;  ///< receiver-side request the buffer belongs to
  ChunkInfo chunk;  ///< segment descriptor (count==1 unless the entry striped)
};

/// Home proxy -> sibling worker: move one striped group segment on the
/// home's behalf. The sibling cross-registers the *whole* source buffer in
/// its own cache (shared-PD: the node's workers share the DPU's HCA), posts
/// the segment RDMA with the delivery hook the home built, and sets `done`
/// so the home's barrier/FIN logic observes the completion.
struct ChunkWorkMsg {
  int home_proxy = -1;
  int host_rank = -1;            ///< source host whose buffer this is
  verbs::GvmiMrInfo src_info;    ///< whole-buffer registration
  machine::Addr src_addr = 0;    ///< already offset for this segment
  int dst_rank = -1;
  verbs::RKey dst_rkey = 0;
  machine::Addr dst_addr = 0;
  std::size_t len = 0;
  std::function<void()> on_delivered;  ///< imm/liveness hook built by the home
  verbs::Completion done;        ///< home-side completion the sibling must set
  int tenant = 0;
};

/// Full group offload packet: host -> proxy (first call for a request).
struct GroupPacketMsg {
  int host_rank = -1;
  std::uint64_t req_id = 0;
  std::vector<GroupEntryWire> entries;
  verbs::Completion flag;
  int tenant = 0;
};

/// Cached re-invocation: host -> proxy (§VII-D; the host cache hit sends
/// only the request id).
struct GroupCachedCallMsg {
  int host_rank = -1;
  std::uint64_t req_id = 0;
  verbs::Completion flag;
  int tenant = 0;
};

/// Immediate consumed by the destination-side proxy when a group send's
/// RDMA write lands (drives receive-completion tracking and barriers).
struct RecvArrivedMsg {
  int src_rank = -1;
  int dst_rank = -1;
  int tag = 0;
  /// Receiver-side request id the matched buffer belongs to. Arrivals must
  /// complete *that* request's receive, not whichever job happens to be
  /// first with the same (src, tag) — two concurrent groups may share both.
  std::uint64_t dst_req_id = 0;
  int tenant = 0;
};

/// Receive-readiness credit between proxies: the destination-side proxy
/// grants one credit per instantiated receive entry, and the source-side
/// proxy consumes one per posted send. This is the fig. 10 bookkeeping that
/// lets "each worker know the receive completion progress of its locally
/// mapped host process" — without it a cached re-call could overwrite a
/// buffer the destination proxy is still forwarding from.
struct CreditMsg {
  int src_rank = -1;  ///< sending host the credit is granted to
  int dst_rank = -1;  ///< receiving host that owns the buffer
  int tag = 0;
  int tenant = 0;
};

/// One message per destination proxy carrying all credits of one call
/// (keeps the per-call proxy-to-proxy message count at O(proxies), not
/// O(entries)).
// lint: proto-field ok: pure container; each inner CreditMsg carries its tenant
struct CreditBatchMsg {
  std::vector<CreditMsg> credits;
};

/// Barrier counter update between proxies (fig. 10 / Algorithm 1).
struct BarrierCntrMsg {
  int src_rank = -1;  ///< host rank whose barrier progressed
  int dst_rank = -1;  ///< host rank whose proxy should observe it
  int count = 0;
  int tenant = 0;
};

/// Host -> proxy: Finalize_Offload. Once every host mapped to a proxy has
/// sent one and all queues drained, the proxy's progress loop exits.
// lint: proto-field ok: host_rank is globally unique; the proxy derives the tenant
struct StopMsg {
  int host_rank = -1;
};

/// Host -> proxy: drop cached cross-registrations of a buffer (cache
/// coherence when the host re-purposes memory).
// lint: proto-field ok: cache keys are (host_rank, addr); ranks are global
struct InvalidateMsg {
  int host_rank = -1;
  machine::Addr addr = 0;
  std::size_t len = 0;
};

/// Host<->host metadata for group matching: the receiving side's buffer
/// descriptions for one (receiver, sender) pair, in program order.
struct GroupRecvMeta {
  int tag = 0;
  std::size_t len = 0;
  machine::Addr addr = 0;
  verbs::RKey rkey = 0;
};

struct GroupMetaMsg {
  int from_rank = -1;  ///< the receiving host that owns these buffers
  std::uint64_t req_id = 0;  ///< the receiver's request these buffers belong to
  std::vector<GroupRecvMeta> entries;
  int tenant = 0;
};

// ---------------------------------------------------------------------------
// Liveness plane (kLivenessChannel). Only exists when FaultSpec::liveness is
// on; none of these messages is ever sent on a clean run.
// ---------------------------------------------------------------------------

/// Host -> proxy liveness probe. The proxy answers from its *progress loop*
/// (not the transport): a hung-but-alive proxy still generates transport
/// acks, so only an application-level reply proves serviceability.
// lint: proto-field ok: liveness plane probes a proxy, not a tenant's job
struct HeartbeatMsg {
  int from_rank = -1;
  std::uint64_t seq = 0;
};

/// Proxy -> host heartbeat reply; `seq` echoes the probe (host-side RTT).
// lint: proto-field ok: liveness plane reply; scoped by (proxy, seq) only
struct HeartbeatAckMsg {
  int proxy = -1;
  std::uint64_t seq = 0;
};

/// Proxy -> host acknowledgement of StopMsg, liveness runs only: lets
/// Finalize_Offload bound its drain instead of trusting a dead proxy.
// lint: proto-field ok: liveness plane ack; the host matches it by proxy id
struct StopAckMsg {
  int proxy = -1;
};

/// Host -> proxy: discard any queued/combined basic-primitive state for
/// (src, dst, tag) — the hosts completed it on the fallback path. Sent
/// best-effort (the target is presumed dead; if it recovers from a hang the
/// fence stops it from re-executing the failed-over pair).
// lint: proto-field ok: fences by (src, dst, tag); ranks are globally unique
struct FenceBasicMsg {
  int src_rank = -1;
  int dst_rank = -1;
  int tag = 0;
};

/// Host -> proxy: abandon the group job instance of (host, req_id) and
/// swallow its future arrivals (keyed by dst_req_id, the PR-2 matching
/// machinery). Fences a dead/hung proxy's partial work so a recovery can
/// never double-execute a request the hosts already degraded.
struct FenceGroupMsg {
  int host_rank = -1;
  std::uint64_t req_id = 0;
  int tenant = 0;
};

/// Host -> host death certificate + degradation notice. `dead_proxy` lets
/// the receiver skip its own detection timeout. For group degrades the
/// notice must flood through the request's peer graph (every live
/// participant of a degraded group must replay it on the host path, even
/// ranks whose own dependencies are all healthy — group data flows are
/// transitive). `req_ids` names the receiver-side requests this degrade
/// concerns: the sender's own request id plus the dst_req_id of every send
/// entry aimed at the destination, so the receiver degrades exactly the
/// affected requests (no over-degrading of unrelated concurrent groups).
// lint: proto-field ok: host-to-host notice scoped by receiver-side req_ids
struct DegradeMsg {
  int from_rank = -1;
  int dead_proxy = -1;
  bool group = false;
  std::vector<std::uint64_t> req_ids;
};

/// Proxy -> source host, liveness runs only: one of this host's group sends
/// (request `req_id`, destination `dst_rank`, tag `tag`) landed at the
/// target. Fired by the delivery hook — an NIC event, so it reports even
/// when the issuing proxy has since died. Together with the dst-host copy
/// of RecvArrivedMsg this gives both ends an identical, delivery-time view
/// of which transfers happened, which is what makes the fallback replay
/// skip-sets agree on the two sides.
// lint: proto-field ok: proxy-to-source-host report keyed by the sender's req_id
struct SendDeliveredMsg {
  std::uint64_t req_id = 0;
  int dst_rank = -1;
  int tag = 0;
};

// ---------------------------------------------------------------------------
// Channel payloads. Each receive site accepts one closed variant and
// dispatches it with sim::dispatch, so a message without a handler is a
// compile error. CtrlMsg::body stays a std::any (verbs sits below this
// layer); every (channel, receiver) pair carries exactly one payload type,
// which the receive site unwraps with verbs::payload. These aliases are
// also what tools/dpulint's proto-field rule treats as "wire message".
// ---------------------------------------------------------------------------

/// kProxyChannel, received by a proxy.
using ProxyMsg = std::variant<RtsProxyMsg, RtrProxyMsg, ChunkWorkMsg, GroupPacketMsg,
                              GroupCachedCallMsg, RecvArrivedMsg, CreditBatchMsg,
                              BarrierCntrMsg, StopMsg, InvalidateMsg>;
/// kLivenessChannel, received by a proxy.
using ProxyLivenessMsg = std::variant<HeartbeatMsg, FenceBasicMsg, FenceGroupMsg>;
/// kLivenessChannel, received by a host endpoint.
using HostLivenessMsg =
    std::variant<HeartbeatAckMsg, StopAckMsg, RecvArrivedMsg, SendDeliveredMsg, DegradeMsg>;
/// kGroupMetaChannel, received by a host endpoint.
using GroupMetaChannelMsg = std::variant<GroupMetaMsg>;

/// Payload of a retransmitted channel: the message plus its sequencing
/// header.
template <typename Msg>
struct Sequenced {
  SeqHeader hdr;
  Msg msg;
};
using ProxyWire = Sequenced<ProxyMsg>;
using GroupMetaWire = Sequenced<GroupMetaChannelMsg>;

/// MPI context ids used by the failover replay so degraded traffic can
/// never match healthy minimpi traffic (communicators use non-negative
/// contexts). The contexts are derived per tenant: two communicators that
/// degrade in the same instant used to collide on the old global constants
/// (-7777/-7778 + fb_tag scoping is only unique within one job), silently
/// cross-matching their replay traffic. Every call site must go through
/// these helpers — dpulint's fallback-ctx rule bans raw -7777/-7778 literals elsewhere.
inline constexpr int kFailoverContextBase = -7777;

inline constexpr int failover_group_context(int tenant) {
  return kFailoverContextBase - 2 * tenant;
}

inline constexpr int failover_basic_context(int tenant) {
  return kFailoverContextBase - 1 - 2 * tenant;
}

}  // namespace dpu::offload
