// Wire protocol between host processes and DPU proxy (worker) processes.
//
// Channels:
//   kProxyChannel     — RTS/RTR control messages, group packets, cached
//                       calls, inter-proxy notifications (arrival imms,
//                       barrier counters).
//   kGroupMetaChannel — host<->host receive-buffer metadata exchange used
//                       by Group_Offload_call's matching step (fig. 9).
//
// Completion flags: in the real system the proxy RDMA-writes a completion
// counter into pre-registered host memory and Wait polls it. Here the
// "address of the counter" is a shared Event carried in the request
// messages; post_flag_write models the RDMA update.
#pragma once

#include <any>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <utility>
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

/// The closed set of wire-message kinds. Every struct that travels on a
/// channel declares `static constexpr MsgKind kKind = MsgKind::k<X>;` — the
/// tag is what makes "wire message" machine-checkable: tools/dpulint keys
/// its proto-field and handler-exhaustive rules off kKind (one struct per
/// kind, a dispatch site per struct, a tenant field unless waived), so a
/// new message kind cannot be added without either wiring it through the
/// proxy dispatch or explicitly waiving it.
enum class MsgKind {
  kReliable,
  kRtsProxy,
  kRtrProxy,
  kChunkWork,
  kGroupPacket,
  kGroupCachedCall,
  kRecvArrived,
  kCredit,
  kCreditBatch,
  kBarrierCntr,
  kStop,
  kInvalidate,
  kGroupMeta,
  kHeartbeat,
  kHeartbeatAck,
  kStopAck,
  kFenceBasic,
  kFenceGroup,
  kDegrade,
  kSendDelivered,
};

/// Debug/trace name for a message kind.
constexpr const char* kind_name(MsgKind k) {
  switch (k) {
    case MsgKind::kReliable: return "Reliable";
    case MsgKind::kRtsProxy: return "RtsProxy";
    case MsgKind::kRtrProxy: return "RtrProxy";
    case MsgKind::kChunkWork: return "ChunkWork";
    case MsgKind::kGroupPacket: return "GroupPacket";
    case MsgKind::kGroupCachedCall: return "GroupCachedCall";
    case MsgKind::kRecvArrived: return "RecvArrived";
    case MsgKind::kCredit: return "Credit";
    case MsgKind::kCreditBatch: return "CreditBatch";
    case MsgKind::kBarrierCntr: return "BarrierCntr";
    case MsgKind::kStop: return "Stop";
    case MsgKind::kInvalidate: return "Invalidate";
    case MsgKind::kGroupMeta: return "GroupMeta";
    case MsgKind::kHeartbeat: return "Heartbeat";
    case MsgKind::kHeartbeatAck: return "HeartbeatAck";
    case MsgKind::kStopAck: return "StopAck";
    case MsgKind::kFenceBasic: return "FenceBasic";
    case MsgKind::kFenceGroup: return "FenceGroup";
    case MsgKind::kDegrade: return "Degrade";
    case MsgKind::kSendDelivered: return "SendDelivered";
  }
  return "?";
}

/// Shared ack token for one reliable control message. The receiver marks it
/// after the (simulated) transport-level ack latency; the sender's pending
/// retransmit timer reads it. This models the RC QP's hardware ack without
/// a second inbox: acks themselves are never faulted (InfiniBand loses whole
/// packets, and the retry logic only needs "ack seen by deadline?").
struct AckState {
  bool acked = false;
};

/// Envelope for sequence-numbered, retransmittable control messages. Only
/// used when fault injection is enabled; clean runs ship bare bodies.
// lint: proto-field ok: transport envelope; the tenant rides on the inner body
struct ReliableMsg {
  static constexpr MsgKind kKind = MsgKind::kReliable;
  std::uint64_t seq = 0;  ///< per-sender, starts at 1
  int sender = -1;        ///< proc id the seq space belongs to
  std::shared_ptr<AckState> ack;
  std::any inner;
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
  static constexpr MsgKind kKind = MsgKind::kRtsProxy;
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
  static constexpr MsgKind kKind = MsgKind::kRtrProxy;
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
  static constexpr MsgKind kKind = MsgKind::kChunkWork;
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
  static constexpr MsgKind kKind = MsgKind::kGroupPacket;
  int host_rank = -1;
  std::uint64_t req_id = 0;
  std::vector<GroupEntryWire> entries;
  verbs::Completion flag;
  int tenant = 0;
};

/// Cached re-invocation: host -> proxy (§VII-D; the host cache hit sends
/// only the request id).
struct GroupCachedCallMsg {
  static constexpr MsgKind kKind = MsgKind::kGroupCachedCall;
  int host_rank = -1;
  std::uint64_t req_id = 0;
  verbs::Completion flag;
  int tenant = 0;
};

/// Immediate consumed by the destination-side proxy when a group send's
/// RDMA write lands (drives receive-completion tracking and barriers).
struct RecvArrivedMsg {
  static constexpr MsgKind kKind = MsgKind::kRecvArrived;
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
  // lint: handler-exhaustive ok: credits only travel batched in CreditBatchMsg
  static constexpr MsgKind kKind = MsgKind::kCredit;
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
  static constexpr MsgKind kKind = MsgKind::kCreditBatch;
  std::vector<CreditMsg> credits;
};

/// Barrier counter update between proxies (fig. 10 / Algorithm 1).
struct BarrierCntrMsg {
  static constexpr MsgKind kKind = MsgKind::kBarrierCntr;
  int src_rank = -1;  ///< host rank whose barrier progressed
  int dst_rank = -1;  ///< host rank whose proxy should observe it
  int count = 0;
  int tenant = 0;
};

/// Host -> proxy: Finalize_Offload. Once every host mapped to a proxy has
/// sent one and all queues drained, the proxy's progress loop exits.
// lint: proto-field ok: host_rank is globally unique; the proxy derives the tenant
struct StopMsg {
  static constexpr MsgKind kKind = MsgKind::kStop;
  int host_rank = -1;
};

/// Host -> proxy: drop cached cross-registrations of a buffer (cache
/// coherence when the host re-purposes memory).
// lint: proto-field ok: cache keys are (host_rank, addr); ranks are global
struct InvalidateMsg {
  static constexpr MsgKind kKind = MsgKind::kInvalidate;
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
  static constexpr MsgKind kKind = MsgKind::kGroupMeta;
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
  static constexpr MsgKind kKind = MsgKind::kHeartbeat;
  int from_rank = -1;
  std::uint64_t seq = 0;
};

/// Proxy -> host heartbeat reply; `seq` echoes the probe (host-side RTT).
// lint: proto-field ok: liveness plane reply; scoped by (proxy, seq) only
struct HeartbeatAckMsg {
  static constexpr MsgKind kKind = MsgKind::kHeartbeatAck;
  int proxy = -1;
  std::uint64_t seq = 0;
};

/// Proxy -> host acknowledgement of StopMsg, liveness runs only: lets
/// Finalize_Offload bound its drain instead of trusting a dead proxy.
// lint: proto-field ok: liveness plane ack; the host matches it by proxy id
struct StopAckMsg {
  static constexpr MsgKind kKind = MsgKind::kStopAck;
  int proxy = -1;
};

/// Host -> proxy: discard any queued/combined basic-primitive state for
/// (src, dst, tag) — the hosts completed it on the fallback path. Sent
/// best-effort (the target is presumed dead; if it recovers from a hang the
/// fence stops it from re-executing the failed-over pair).
// lint: proto-field ok: fences by (src, dst, tag); ranks are globally unique
struct FenceBasicMsg {
  static constexpr MsgKind kKind = MsgKind::kFenceBasic;
  int src_rank = -1;
  int dst_rank = -1;
  int tag = 0;
};

/// Host -> proxy: abandon the group job instance of (host, req_id) and
/// swallow its future arrivals (keyed by dst_req_id, the PR-2 matching
/// machinery). Fences a dead/hung proxy's partial work so a recovery can
/// never double-execute a request the hosts already degraded.
struct FenceGroupMsg {
  static constexpr MsgKind kKind = MsgKind::kFenceGroup;
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
  static constexpr MsgKind kKind = MsgKind::kDegrade;
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
  static constexpr MsgKind kKind = MsgKind::kSendDelivered;
  std::uint64_t req_id = 0;
  int dst_rank = -1;
  int tag = 0;
};

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
