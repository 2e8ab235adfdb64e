// tmcsim -- network message descriptor.
#pragma once

#include <cstddef>
#include <cstdint>

#include "net/topology.h"

namespace tmc::net {

/// Endpoint identifier: a process id in the scheduling layer. The network
/// itself only routes on node ids; endpoints ride along for final delivery.
/// The canonical encoding packs (job, rank) with the rank in the low bits,
/// so layers that index per-job tables can split an id without consulting
/// the scheduler.
using EndpointId = std::uint64_t;

/// Low bits of an EndpointId holding the within-job rank.
inline constexpr unsigned kEndpointRankBits = 20;

[[nodiscard]] constexpr std::uint64_t endpoint_job(EndpointId id) {
  return id >> kEndpointRankBits;
}
[[nodiscard]] constexpr std::uint64_t endpoint_rank(EndpointId id) {
  return id & ((EndpointId{1} << kEndpointRankBits) - 1);
}

struct Message {
  std::uint64_t id = 0;
  NodeId src_node = kInvalidNode;
  NodeId dst_node = kInvalidNode;
  EndpointId src_endpoint = 0;
  EndpointId dst_endpoint = 0;
  /// Owning job (for coscheduling progress gates); 0 = system traffic.
  std::uint32_t job = 0;
  int tag = 0;
  std::size_t bytes = 0;
  /// Timeline flow id riding along for causal tracing: the send emits a
  /// flow-start under this id, the mailbox deposit the matching finish.
  /// 0 (tracing off) means no flow events are recorded for this message.
  std::uint64_t flow = 0;
  /// Job incarnation at send time (fault mode only; 0 otherwise). A job
  /// abort bumps the comm system's incarnation counter, so deliveries and
  /// queued resends addressed to an earlier life of the job are discarded
  /// instead of reaching its restarted processes.
  std::uint32_t incarnation = 0;
  /// Fault-mode resend attempts already made for this logical message.
  std::uint16_t attempts = 0;
  /// True when no source buffer backs the payload, so it rides as
  /// accounting only: a fault resend, or a reply the comm layer injects on
  /// a process's behalf. Every other send stages its payload in the source
  /// node's memory first.
  bool unstaged = false;
};

}  // namespace tmc::net
