// Wire-level message bodies for minimpi's point-to-point protocols.
//
// Four protocol paths exist, chosen by locality and size:
//   inter-node, len <= eager_threshold  -> EagerNet (data rides the ctrl msg)
//   inter-node, len  > eager_threshold  -> RndvNet  (RTS -> CTS -> RDMA+FIN)
//   intra-node, len <= eager_threshold  -> EagerShm (copy-in / copy-out)
//   intra-node, len  > eager_threshold  -> RndvShm  (CMA-style single copy)
//
// The defining property of the rendezvous paths (the paper's §II-A): every
// ->  transition is handled inside a progress call of the *owning* process,
// so a rank that is computing cannot move its own transfers forward.
#pragma once

#include <cstddef>
#include <cstdint>
#include <variant>
#include <vector>

#include "machine/address_space.h"
#include "verbs/verbs.h"

namespace dpu::mpi {

/// Matching envelope: messages match a posted receive when context, tag and
/// source world-rank all agree.
struct Envelope {
  int src_world = -1;
  int tag = 0;
  int context = 0;

  bool matches(const Envelope& recv_want) const {
    return context == recv_want.context && tag == recv_want.tag &&
           src_world == recv_want.src_world;
  }
};

struct EagerNetMsg {
  Envelope env;
  std::size_t len = 0;
  std::vector<std::byte> data;  ///< empty when the source buffer is unbacked
};

struct RtsNetMsg {
  Envelope env;
  std::size_t len = 0;
  std::uint64_t sender_req = 0;
};

struct CtsNetMsg {
  std::uint64_t sender_req = 0;
  std::uint64_t receiver_req = 0;
  machine::Addr raddr = 0;
  verbs::RKey rkey = 0;
  std::size_t len = 0;
};

/// Arrives as the immediate of the rendezvous RDMA write.
struct FinNetMsg {
  std::uint64_t receiver_req = 0;
};

struct EagerShmMsg {
  Envelope env;
  std::size_t len = 0;
  std::vector<std::byte> data;
};

struct RtsShmMsg {
  Envelope env;
  std::size_t len = 0;
  std::uint64_t sender_req = 0;
  machine::Addr src_addr = 0;  ///< CMA: receiver copies straight out of here
};

struct FinShmMsg {
  std::uint64_t sender_req = 0;
};

/// The one payload type of kMpiChannel: every minimpi message, dispatched
/// by MpiCtx::progress through one handler overload per alternative.
using MpiMsg = std::variant<EagerNetMsg, RtsNetMsg, CtsNetMsg, FinNetMsg, EagerShmMsg,
                            RtsShmMsg, FinShmMsg>;

}  // namespace dpu::mpi
