#include "sched/stealing/stealing.h"

#include <algorithm>
#include <limits>

namespace tmc::sched::stealing {

std::string_view to_string(VictimPolicy policy) {
  switch (policy) {
    case VictimPolicy::kRandom: return "random";
    case VictimPolicy::kNearest: return "nearest";
    case VictimPolicy::kLastVictim: return "last";
  }
  return "?";
}

std::string_view to_string(Granularity granularity) {
  switch (granularity) {
    case Granularity::kSingleTask: return "task";
    case Granularity::kHalfDeque: return "half";
  }
  return "?";
}

std::string_view to_string(Chunking chunking) {
  switch (chunking) {
    case Chunking::kStatic: return "static";
    case Chunking::kGuided: return "guided";
    case Chunking::kFactoring: return "factoring";
  }
  return "?";
}

std::vector<std::size_t> chunk_sizes(std::size_t total, int workers,
                                     Chunking chunking,
                                     int chunks_per_worker) {
  std::vector<std::size_t> sizes;
  if (total == 0) return sizes;
  const auto w = static_cast<std::size_t>(std::max(1, workers));
  switch (chunking) {
    case Chunking::kStatic: {
      const std::size_t want =
          w * static_cast<std::size_t>(std::max(1, chunks_per_worker));
      const std::size_t count = std::min(total, want);
      sizes.reserve(count);
      // Largest-remainder split: first (total % count) chunks get the extra
      // unit, mirroring the fixed builders' rows_of() convention.
      for (std::size_t i = 0; i < count; ++i) {
        sizes.push_back(total / count + (i < total % count ? 1 : 0));
      }
      return sizes;
    }
    case Chunking::kGuided: {
      std::size_t remaining = total;
      while (remaining > 0) {
        const std::size_t chunk = std::max<std::size_t>(
            1, (remaining + w - 1) / w);
        sizes.push_back(chunk);
        remaining -= chunk;
      }
      return sizes;
    }
    case Chunking::kFactoring: {
      std::size_t remaining = total;
      while (remaining > 0) {
        // One batch of `workers` chunks, each ceil(R / 2W) of the remainder
        // at batch start (Hummel et al.'s factoring with alpha = 2).
        const std::size_t chunk = std::max<std::size_t>(
            1, (remaining + 2 * w - 1) / (2 * w));
        for (std::size_t i = 0; i < w && remaining > 0; ++i) {
          const std::size_t take = std::min(chunk, remaining);
          sizes.push_back(take);
          remaining -= take;
        }
      }
      return sizes;
    }
  }
  return sizes;
}

std::vector<cli::Flag> cli_flags(StealParams& params) {
  return cli::in_family(
      cli::Family::kSteal,
      {
          cli::real("--steal-rate", "R", params.steal_rate,
                    "idle-worker steal attempts per second\n"
                    "(0 = stealing off)",
                    cli::at_least(0.0)),
          cli::choice("--steal-victim", params.victim,
                      {{"random", VictimPolicy::kRandom},
                       {"nearest", VictimPolicy::kNearest},
                       {"last", VictimPolicy::kLastVictim}},
                      "victim selection"),
          cli::choice("--steal-granularity", params.granularity,
                      {{"task", Granularity::kSingleTask},
                       {"half", Granularity::kHalfDeque}},
                      "per-grant migration (half = half the\n"
                      "victim's deque)"),
          cli::choice("--steal-chunk", params.chunking,
                      {{"static", Chunking::kStatic},
                       {"guided", Chunking::kGuided},
                       {"factoring", Chunking::kFactoring}},
                      "decomposition schedule"),
          cli::integer("--steal-chunks", "N", params.chunks_per_worker,
                       "chunks per worker under --steal-chunk\n"
                       "static (default 8)",
                       1, std::numeric_limits<int>::max()),
          cli::integer("--steal-seed", "S", params.seed,
                       "seed of the victim-selection streams"),
      });
}

}  // namespace tmc::sched::stealing
