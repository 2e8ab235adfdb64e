// tmcsim -- work-stealing architecture: parameters, chunking, CLI flags.
//
// The third software architecture (SoftwareArch::kStealing) keeps the fixed
// architecture's compile-time process count but decomposes each process's
// work into migratable tasklets. An idle worker sends a real steal-request
// message to a victim; the victim's node intercepts it at delivery, pays a
// handler CPU charge, and replies with a grant (tasklets migrate, their
// payload bytes traversing the network) or a deny. Steal cost is therefore
// topology-, contention- and distance-dependent -- and a steal aimed at a
// crashed node rides the existing fault machinery (retry, backoff, job
// abort) like any other message.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "cli/flags.h"
#include "sim/time.h"

namespace tmc::sched::stealing {

/// Message tags of the steal protocol. Far above every workload tag (the
/// applications use small tags; sort peaks around 2000+rank) so protocol
/// traffic can never alias an application receive.
inline constexpr int kTagStealInit = 0x5EA10000;    // initial work parcel
inline constexpr int kTagStealReq = 0x5EA10001;     // thief -> victim
inline constexpr int kTagStealReply = 0x5EA10002;   // victim -> thief
inline constexpr int kTagStealResult = 0x5EA10003;  // worker -> rank 0

/// How a thief picks its victim.
enum class VictimPolicy {
  kRandom,      // seeded-uniform over the other workers
  kNearest,     // smallest router distance from the thief's node (tie: rank)
  kLastVictim,  // last successful victim, falling back to seeded-random
};

/// How much a grant migrates.
enum class Granularity {
  kSingleTask,  // one tasklet from the front of the victim's deque
  kHalfDeque,   // ceil(half) of the victim's deque
};

/// Self-scheduling chunk-size schedule used by the workload decompositions.
enum class Chunking {
  kStatic,     // equal chunks, workers * chunks_per_worker of them
  kGuided,     // guided self-scheduling: chunk = ceil(remaining / workers)
  kFactoring,  // factoring: batches of `workers` chunks, ceil(R / 2W) each
};

[[nodiscard]] std::string_view to_string(VictimPolicy policy);
[[nodiscard]] std::string_view to_string(Granularity granularity);
[[nodiscard]] std::string_view to_string(Chunking chunking);

struct StealParams {
  /// Steal-attempt rate of an idle worker, attempts per second: after a
  /// deny the thief waits 1/rate (escalating with consecutive denials,
  /// capped at 64x) before retrying. 0 disables stealing entirely -- the
  /// machine then never instantiates the engine and kStealing degenerates
  /// byte-identically to the fixed architecture.
  double steal_rate = 0.0;
  VictimPolicy victim = VictimPolicy::kRandom;
  Granularity granularity = Granularity::kSingleTask;
  Chunking chunking = Chunking::kStatic;
  /// Decomposition target: chunks per worker under kStatic, and the floor
  /// of the chunk count under the adaptive schedules.
  int chunks_per_worker = 8;
  /// Steal-request message size (a descriptor, not a payload).
  std::size_t request_bytes = 64;
  /// Grant/deny reply framing; granted tasklets add their migrate bytes.
  std::size_t reply_header_bytes = 32;
  /// CPU the victim's node pays to serve an intercepted request (deque
  /// inspection + reply construction), charged as high-priority work that
  /// preempts the victim's application process.
  sim::SimTime handler_cpu = sim::SimTime::microseconds(25);
  /// CPU each control step of the stealing runtime costs the worker (pop
  /// decision, termination check, victim selection).
  sim::SimTime control_cpu = sim::SimTime::microseconds(5);
  /// Seed of the per-job victim-selection streams (independent of the
  /// workload and fault seeds).
  std::uint64_t seed = 1905;

  [[nodiscard]] bool enabled() const { return steal_rate > 0.0; }
  /// Base retry interval after a denied steal (1 / steal_rate).
  [[nodiscard]] sim::SimTime poll_interval() const {
    return sim::SimTime::nanoseconds(
        static_cast<std::int64_t>(1e9 / steal_rate));
  }
};

/// Counters of the steal protocol, merged into MachineStats.
struct StealStats {
  std::uint64_t requests = 0;        // steal requests intercepted
  std::uint64_t grants = 0;
  std::uint64_t denials = 0;
  std::uint64_t tasks_migrated = 0;
  std::uint64_t bytes_migrated = 0;  // migrate payload riding on grants
};

/// Splits `total` work units into chunk sizes under the given schedule.
/// Every returned size is >= 1 and the sizes sum to `total` exactly;
/// deterministic in its arguments. kStatic yields workers*chunks_per_worker
/// near-equal chunks (fewer when total is small); the self-scheduling
/// schedules (guided/factoring) yield decreasing sizes.
[[nodiscard]] std::vector<std::size_t> chunk_sizes(std::size_t total,
                                                   int workers,
                                                   Chunking chunking,
                                                   int chunks_per_worker);

/// Flag rows (family kSteal) for `params`: --steal-rate, --steal-victim,
/// --steal-granularity, --steal-chunk, --steal-chunks and --steal-seed.
[[nodiscard]] std::vector<cli::Flag> cli_flags(StealParams& params);

}  // namespace tmc::sched::stealing
