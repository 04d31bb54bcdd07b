// Simulated InfiniBand verbs with the BlueField cross-GVMI extension.
//
// Semantics mirrored from real verbs (§IV of the paper):
//  * memory must be registered before use; registration yields an lkey
//    (local use) and rkey (remote RDMA access);
//  * any RDMA write/read validates the local key at the initiator and the
//    remote key at the target — stale or foreign keys raise SimError;
//  * registration costs CPU time on the calling core (host or DPU).
//
// GVMI extension (§V):
//  * a DPU process allocates a GVMI-ID once per protection domain;
//  * a host process registers a buffer *against* that GVMI-ID -> mkey;
//  * the DPU cross-registers (addr, len, mkey, GVMI-ID) -> mkey2;
//  * mkey2 then acts as an lkey for RDMA issued by the DPU *on behalf of*
//    the host: the data path starts at the host's memory (no staging hop).
//
// Completion model: post_* calls charge the initiator's per-message
// overhead, then return a Completion that fires when the operation's last
// byte (plus ack latency) lands. There is no explicit CQ object; the
// Completion plays the role of a CQE, and every completion pokes the
// initiator's activity Notifier so progress loops can sleep.
#pragma once

#include <any>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "fabric/fabric.h"
#include "fabric/fault.h"
#include "machine/address_space.h"
#include "machine/spec.h"
#include "sim/engine.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace dpu::verbs {

using machine::Addr;
using RKey = std::uint32_t;
using LKey = std::uint32_t;
using MKey = std::uint32_t;
using GvmiId = std::uint32_t;

/// Result of a standard registration.
struct MrInfo {
  Addr addr = 0;
  std::size_t len = 0;
  LKey lkey = 0;
  RKey rkey = 0;
  int owner = -1;  ///< proc id owning the memory
};

/// Result of a host-side GVMI registration (the "first registration").
struct GvmiMrInfo {
  Addr addr = 0;
  std::size_t len = 0;
  MKey mkey = 0;
  GvmiId gvmi = 0;
  int owner = -1;  ///< host proc id whose memory this is
};

/// Completion handle for a posted operation.
using Completion = std::shared_ptr<sim::Event>;

/// Control message delivered to a process inbox (two-sided send).
struct CtrlMsg {
  int src = -1;
  int channel = 0;
  std::size_t wire_bytes = 0;
  std::any body;
  /// Sender-side program-order stamp, assigned when the message (or the
  /// delivery hook carrying it) is created — i.e. in the sender coroutine's
  /// own order, which no same-time dispatch permutation can change.
  std::uint64_t post_stamp = 0;
  /// Virtual time the message landed in the inbox (set at delivery).
  SimTime delivered_at = 0;
};

/// The body of `msg` as T. Every (channel, receiver) pair carries exactly
/// one payload type, so any other body is a protocol bug: it fails with a
/// SimError naming `channel` instead of a bare std::bad_any_cast.
template <typename T>
T& payload(CtrlMsg& msg, const char* channel) {
  auto* p = std::any_cast<T>(&msg.body);
  if (p == nullptr) {
    throw SimError(std::string("foreign payload type on ") + channel + " (from proc " +
                   std::to_string(msg.src) + ")");
  }
  return *p;
}

/// Inbox insertion tiebreak: messages landing at the SAME virtual time are
/// kept in (src, post_stamp) order instead of delivery-event order, so the
/// receiver's processing sequence is invariant under tie-shuffled
/// scheduling. Messages from distinct times never reorder (FIFO).
inline bool inbox_before(const CtrlMsg& a, const CtrlMsg& b) {
  return a.delivered_at == b.delivered_at &&
         (a.src < b.src || (a.src == b.src && a.post_stamp < b.post_stamp));
}

class Runtime;

/// Per-process verbs context. All Task-returning members charge simulated
/// CPU time on the owning process's core and therefore must be awaited from
/// that process's coroutine.
class ProcCtx {
 public:
  ProcCtx(Runtime& rt, int proc);
  ProcCtx(const ProcCtx&) = delete;
  ProcCtx& operator=(const ProcCtx&) = delete;

  int proc() const { return proc_; }
  int node() const;
  machine::AddressSpace& mem() { return mem_; }
  const machine::AddressSpace& mem() const { return mem_; }

  /// Notified whenever a ctrl message arrives or one of this process's
  /// posted operations completes; progress loops wait on this.
  sim::Notifier& activity() { return activity_; }

  Runtime& runtime() { return rt_; }
  sim::Engine& engine();

  // ---- standard IB registration ------------------------------------------
  sim::Task<MrInfo> reg_mr(Addr addr, std::size_t len);
  sim::Task<void> dereg_mr(const MrInfo& mr);

  // ---- GVMI ----------------------------------------------------------------
  /// Allocates a GVMI-ID owned by this (DPU) process; done once per PD.
  GvmiId alloc_gvmi_id();

  /// Host-side GVMI registration of a local buffer against a remote
  /// (DPU-owned) GVMI-ID; yields the mkey the DPU will cross-register.
  sim::Task<GvmiMrInfo> reg_mr_gvmi(Addr addr, std::size_t len, GvmiId gvmi);

  /// DPU-side cross-registration ("second registration"): validates the
  /// host registration and yields mkey2, usable as an lkey for on-behalf
  /// RDMA. The GVMI-ID inside `info` must belong to this process.
  sim::Task<MKey> cross_register(const GvmiMrInfo& info);

  sim::Task<void> dereg_mr_gvmi(const GvmiMrInfo& info);

  // ---- one-sided data ops ---------------------------------------------------
  /// RDMA write from this process's memory to a remote buffer.
  sim::Task<Completion> post_rdma_write(LKey lkey, Addr laddr, int dst_proc, RKey rkey,
                                        Addr raddr, std::size_t len);

  /// RDMA read of a remote buffer into this process's memory.
  sim::Task<Completion> post_rdma_read(LKey lkey, Addr laddr, int src_proc, RKey rkey,
                                       Addr raddr, std::size_t len);

  /// RDMA write with immediate: like post_rdma_write, but delivery also
  /// places `imm_body` into `dst_proc`'s inbox for `imm_channel` and pokes
  /// its activity notifier (hardware-generated receive completion).
  sim::Task<Completion> post_rdma_write_imm(LKey lkey, Addr laddr, int dst_proc, RKey rkey,
                                            Addr raddr, std::size_t len, int imm_channel,
                                            std::any imm_body);

  /// Cross-GVMI RDMA write: this (DPU) process moves data *from the host
  /// buffer named by mkey2* to a remote registered buffer. Initiation costs
  /// this process's (DPU) overhead; the wire path starts at the host NIC.
  sim::Task<Completion> post_rdma_write_on_behalf(MKey mkey2, Addr src_addr, int dst_proc,
                                                  RKey rkey, Addr dst_addr, std::size_t len);

  /// Cross-GVMI write-with-immediate (offload FIN packets piggy-back on the
  /// data delivery this way).
  sim::Task<Completion> post_rdma_write_on_behalf_imm(MKey mkey2, Addr src_addr, int dst_proc,
                                                      RKey rkey, Addr dst_addr,
                                                      std::size_t len, int imm_channel,
                                                      std::any imm_body);

  /// Cross-GVMI write with a delivery hook: `on_delivered` runs when the
  /// last byte lands at the target (models target-side completion
  /// side-effects such as an immediate consumed by another QP).
  sim::Task<Completion> post_rdma_write_on_behalf_hooked(MKey mkey2, Addr src_addr,
                                                         int dst_proc, RKey rkey,
                                                         Addr dst_addr, std::size_t len,
                                                         std::function<void()> on_delivered);

  /// Fire-and-forget remote flag write: on delivery, sets `flag` and pokes
  /// `wake_proc`'s activity notifier (models an RDMA write of a completion
  /// counter into another process's memory). Never faulted — the reliable
  /// offload path uses post_flag_write_raw instead.
  sim::Task<void> post_flag_write(int dst_proc, Completion flag, int wake_proc);

  /// Non-coroutine flag write used by the retransmit layer: charges no CPU
  /// (a NIC-autonomous resend), runs through the fault plan, and invokes
  /// `on_delivered` at the target when the write actually lands.
  void post_flag_write_raw(int dst_proc, Completion flag, int wake_proc,
                           std::function<void()> on_delivered = {});

  // ---- two-sided control messages -------------------------------------------
  /// Sends a small message into `dst_proc`'s inbox for `channel`.
  /// `wire_bytes` is the modelled on-wire size. Subject to the fault plan.
  sim::Task<void> post_ctrl(int dst_proc, int channel, std::any body, std::size_t wire_bytes);

  /// Non-coroutine variant for retransmits and delivery hooks: identical
  /// wire behaviour (including fault injection) but no initiator CPU
  /// charge. `on_delivered` runs at the receiver when (each copy of) the
  /// message lands in the inbox — the transport-level receipt the reliable
  /// layer builds its acks on; it does not run for dropped copies.
  void post_ctrl_raw(int dst_proc, int channel, std::any body, std::size_t wire_bytes,
                     std::function<void()> on_delivered = {});

  /// Inbox for a logical channel (created on demand).
  sim::Channel<CtrlMsg>& inbox(int channel);

  /// Lands `msg` in this process's inbox: stamps the delivery time and
  /// inserts with the inbox_before tiebreak (see CtrlMsg).
  void deliver_to_inbox(CtrlMsg msg);

  /// Convenience: blocks (simulated) until a posted op completes.
  sim::Task<void> wait(const Completion& c);

  /// Builds a delivery hook that injects `imm_body` into `dst_proc`'s inbox
  /// for `imm_channel` (write-with-immediate semantics); pass the result to
  /// post_rdma_write_on_behalf_hooked when the immediate should be consumed
  /// by a process other than the data's destination (e.g. its proxy).
  std::function<void()> make_imm_hook(int dst_proc, int imm_channel, std::any imm_body);

 private:
  friend class Runtime;

  struct Reg {
    Addr addr;
    std::size_t len;
  };

  sim::Task<Completion> post_write_internal(int data_src_proc, Addr src_addr, int dst_proc,
                                            Addr dst_addr, std::size_t len,
                                            std::function<void()> on_delivered = {});
  /// Shared wire stage of post_ctrl / post_ctrl_raw; consults the fault plan.
  void send_ctrl_wire(int dst_proc, int channel, std::any body, std::size_t wire_bytes,
                      std::function<void()> on_delivered = {});
  /// Validates an mkey2 access; returns the host proc owning the memory.
  int check_cross_reg(MKey mkey2, Addr src_addr, std::size_t len) const;
  void validate_local(LKey lkey, Addr addr, std::size_t len) const;
  void validate_remote_key(int target_proc, RKey rkey, Addr addr, std::size_t len) const;

  Runtime& rt_;
  int proc_;
  machine::AddressSpace mem_;
  sim::Notifier activity_;
  std::map<LKey, Reg> lkeys_;
  std::map<RKey, Reg> rkeys_;
  std::map<int, std::unique_ptr<sim::Channel<CtrlMsg>>> inboxes_;
  /// Busy-until clock of this process's data-path QP when the per-QP/
  /// per-core issue-rate cap (CostModel::dpu_qp_GBps) is active; unused
  /// (and untouched) when the cap is 0.
  SimTime qp_free_at_ = 0;
  /// Program-order stamp source for outgoing ctrl messages / imm hooks.
  std::uint64_t ctrl_stamp_ = 0;
};

/// Owns all per-process contexts plus the global key/GVMI tables (the
/// simulated "fabric-visible" state an HCA would hold).
class Runtime {
 public:
  Runtime(sim::Engine& eng, const machine::ClusterSpec& spec, fabric::Fabric& fab);

  ProcCtx& ctx(int proc) { return *ctxs_.at(static_cast<std::size_t>(proc)); }
  const machine::ClusterSpec& spec() const { return spec_; }
  sim::Engine& engine() { return eng_; }
  fabric::Fabric& fab() { return fab_; }
  fabric::FaultPlan& fault() { return fault_; }

 private:
  friend class ProcCtx;

  struct GvmiReg {  // host-side GVMI registration record
    int host_proc;
    Addr addr;
    std::size_t len;
    GvmiId gvmi;
    bool live = true;
  };
  struct CrossReg {  // DPU-side cross-registration record
    int dpu_proc;
    int host_proc;
    Addr addr;
    std::size_t len;
    bool live = true;
  };

  sim::Engine& eng_;
  machine::ClusterSpec spec_;
  fabric::Fabric& fab_;
  fabric::FaultPlan fault_;
  std::vector<std::unique_ptr<ProcCtx>> ctxs_;

  std::uint32_t next_key_ = 100;
  std::uint32_t next_gvmi_ = 7000;
  std::unordered_map<GvmiId, int> gvmi_owner_;     // gvmi id -> dpu proc
  std::unordered_map<MKey, GvmiReg> gvmi_regs_;    // mkey -> host registration
  std::unordered_map<MKey, CrossReg> cross_regs_;  // mkey2 -> cross registration
};

}  // namespace dpu::verbs
