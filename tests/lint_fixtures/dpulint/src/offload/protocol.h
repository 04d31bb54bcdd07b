// dpulint self-test fixture: a miniature protocol header with planted
// nodiscard, proto-field and handler-exhaustive violations. Never compiled —
// only lexed by `dpulint --self-test`. An expect-comment (rule names after
// the colon) marks a line the analyzer MUST flag; unmarked lines must be
// clean.
#pragma once

namespace fixture {

/// Planted: the completion status without [[nodiscard]]. The commented-out
/// declaration above it is a decoy: comments must not satisfy the rule.
// enum class [[nodiscard]] Status { kOk, kFailed };
enum class Status { kOk, kFailed };  // expect: nodiscard

enum class MsgKind {
  kPing,
  kPong,
  kBadTenant,
  kDupClaimed,  // expect: handler-exhaustive
  kOrphanStruct,
  kLostKind,  // expect: handler-exhaustive
  kWaivedTenant,
  kBatchedOnly,
};

/// Fully conforming wire message: tagged, tenant-scoped, dispatched.
struct PingMsg {
  static constexpr MsgKind kKind = MsgKind::kPing;
  int src_rank = -1;
  int tenant = 0;
};

/// Planted: tagged wire message with no tenant field and no waiver.
struct PongMsg {  // expect: proto-field
  static constexpr MsgKind kKind = MsgKind::kPong;
  int dst_rank = -1;
};

/// Planted: wrong tenant declaration shape, an aliasing reference member,
/// and a mutable static member — three distinct proto-field findings.
struct BadTenantMsg {
  static constexpr MsgKind kKind = MsgKind::kBadTenant;
  long tenant = 0;  // expect: proto-field
  int& aliased;  // expect: proto-field
  static int live_count;  // expect: proto-field
};

/// Planted: two structs claim kDupClaimed (finding lands on the enumerator).
struct DupAMsg {
  static constexpr MsgKind kKind = MsgKind::kDupClaimed;
  int tenant = 0;
};
struct DupBMsg {
  static constexpr MsgKind kKind = MsgKind::kDupClaimed;
  int tenant = 0;
};

/// Planted: conforming message that no dispatch chain ever any_casts.
struct OrphanStructMsg {
  static constexpr MsgKind kKind = MsgKind::kOrphanStruct;  // expect: handler-exhaustive
  int tenant = 0;
};

/// Waived: structurally tenant-free, with the reason on record.
// lint: proto-field ok: fixture message keyed by globally unique rank
struct WaivedTenantMsg {
  static constexpr MsgKind kKind = MsgKind::kWaivedTenant;
  int host_rank = -1;
};

/// Waived: only ever travels inside another message, so no dispatch site.
struct BatchedOnlyMsg {
  // lint: handler-exhaustive ok: rides inside PingMsg batches in this fixture
  static constexpr MsgKind kKind = MsgKind::kBatchedOnly;
  int tenant = 0;
};

/// Untagged helper struct: not a wire message, exempt from proto-field
/// even though it has no tenant and holds a reference.
struct ScratchState {
  int slots = 0;
  int& scratch_ref;
};

}  // namespace fixture
