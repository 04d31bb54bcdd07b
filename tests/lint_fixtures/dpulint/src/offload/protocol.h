// dpulint self-test fixture: a miniature protocol header with planted
// nodiscard and proto-field violations. Never compiled — only lexed by
// `dpulint --self-test`. An expect-comment (rule names after the colon)
// marks a line the analyzer MUST flag; unmarked lines must be clean.
#pragma once

namespace fixture {

/// Planted: the completion status without [[nodiscard]]. The commented-out
/// declaration above it is a decoy: comments must not satisfy the rule.
// enum class [[nodiscard]] Status { kOk, kFailed };
enum class Status { kOk, kFailed };  // expect: nodiscard

/// Fully conforming wire message: a variant alternative, tenant-scoped.
struct PingMsg {
  int src_rank = -1;
  int tenant = 0;
};

/// Planted: wire message with no tenant field and no waiver.
struct PongMsg {  // expect: proto-field
  int dst_rank = -1;
};

/// Planted: wrong tenant declaration shape, an aliasing reference member,
/// and a mutable static member — three distinct proto-field findings.
struct BadTenantMsg {
  long tenant = 0;  // expect: proto-field
  int& aliased;  // expect: proto-field
  static int live_count;  // expect: proto-field
};

/// Planted: reached only through a namespace-qualified alternative of the
/// second alias; still a wire message.
struct QualifiedMsg {  // expect: proto-field
  int host_rank = -1;
};

/// Waived: structurally tenant-free, with the reason on record.
// lint: proto-field ok: fixture message keyed by globally unique rank
struct WaivedTenantMsg {
  int host_rank = -1;
};

/// Not a wire message: only a member of another message (like CreditMsg
/// inside CreditBatchMsg), so it is exempt even without a tenant.
struct BatchedOnlyMsg {
  int dst_rank = -1;
};

/// Untagged helper struct: not a variant alternative, exempt from
/// proto-field even though it has no tenant and holds a reference. The
/// member variant and the commented-out alias below are decoys: only
/// `using X = std::variant<...>;` aliases name wire messages.
struct ScratchState {
  int slots = 0;
  int& scratch_ref;
};

struct HolderMsg {
  std::variant<ScratchState, int> scratch;
  std::vector<BatchedOnlyMsg> batch;
  int tenant = 0;
};

// using DecoyWire = std::variant<ScratchState>;

/// The channel payload aliases that define "wire message".
using FixtureWire = std::variant<PingMsg, PongMsg, BadTenantMsg, WaivedTenantMsg, HolderMsg>;
using FixtureLiveness = variant<PingMsg, fixture::QualifiedMsg>;

}  // namespace fixture
