// tmcsim -- per-node memory management unit.
//
// The paper (section 3.2) implements a software MMU on every Transputer that
// manages the node's 4 MB local store and, in particular, allocates the
// mailbox buffers used by the store-and-forward communication system. A
// message "can suffer a delay if an intermediate processor delays allocation
// of memory for the mailbox" -- memory contention is one of the two system
// overheads the paper's conclusions rest on, so we model the allocator
// structurally: a real first-fit free-list over a fixed arena, with a FIFO
// queue of blocked requests that are granted as memory is released.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "obs/timeline.h"
#include "sim/ring_queue.h"
#include "sim/simulation.h"
#include "sim/slot_pool.h"
#include "sim/stats.h"
#include "sim/time.h"
#include "sim/unique_function.h"

namespace tmc::obs {
class Distribution;
}  // namespace tmc::obs

namespace tmc::mem {

class Mmu;

/// RAII handle to an allocated region. Move-only; releasing (or destroying)
/// the block returns the memory to the MMU and may unblock queued requests.
/// The owning Mmu must outlive all of its Blocks.
class Block {
 public:
  Block() = default;
  Block(Block&& other) noexcept { swap(other); }
  Block& operator=(Block&& other) noexcept {
    if (this != &other) {
      release();
      swap(other);
    }
    return *this;
  }
  Block(const Block&) = delete;
  Block& operator=(const Block&) = delete;
  ~Block() { release(); }

  /// Frees the region (no-op on an empty handle).
  void release();

  [[nodiscard]] bool valid() const { return mmu_ != nullptr; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t offset() const { return offset_; }

 private:
  friend class Mmu;
  Block(Mmu* mmu, std::size_t offset, std::size_t size)
      : mmu_(mmu), offset_(offset), size_(size) {}
  void swap(Block& other) noexcept {
    std::swap(mmu_, other.mmu_);
    std::swap(offset_, other.offset_);
    std::swap(size_, other.size_);
  }

  Mmu* mmu_ = nullptr;
  std::size_t offset_ = 0;
  std::size_t size_ = 0;
};

/// Queueing discipline for blocked allocation requests.
enum class MmuDiscipline {
  /// Strict FIFO with head-of-line blocking: if the oldest blocked request
  /// does not fit, younger ones wait behind it. Starvation-free, but under
  /// heavy pressure a large blocked request can wedge the whole node
  /// (store-and-forward buffer deadlock).
  kFifo,
  /// First-fit scan: every release re-scans the whole queue in arrival
  /// order and grants anything that now fits. Small requests (message
  /// consumption, result deposits) keep flowing past a blocked large one --
  /// the behaviour of the era's mailbox allocators, and what lets the
  /// paper's system sustain multiprogramming level 16 at the memory limit
  /// (thrashing gracefully instead of deadlocking).
  kFirstFit,
};

/// First-fit free-list allocator over a fixed-size arena with a queue of
/// blocked allocation requests.
///
/// Requests are granted through the event queue (never synchronously inside
/// `request`), after `service_time` of allocator latency; this keeps grant
/// ordering deterministic and reentrancy-free.
class Mmu {
 public:
  using Grant = sim::UniqueFunction<void(Block)>;

  /// `capacity` bytes of arena; `service_time` is charged per allocation.
  Mmu(sim::Simulation& sim, std::size_t capacity,
      sim::SimTime service_time = sim::SimTime::zero(),
      MmuDiscipline discipline = MmuDiscipline::kFirstFit);

  Mmu(const Mmu&) = delete;
  Mmu& operator=(const Mmu&) = delete;

  /// Requests `bytes` (> 0, <= capacity); `on_grant` receives the Block when
  /// the allocation succeeds (possibly after blocking on memory pressure).
  /// Throws std::invalid_argument if the request can never be satisfied.
  /// `owner` optionally tags the request for cancel_owner (fault mode: a
  /// crashed node must be able to retract a dead process's pending request).
  void request(std::size_t bytes, Grant on_grant, const void* owner = nullptr);

  /// Immediate allocation attempt that never blocks or queues.
  [[nodiscard]] std::optional<Block> try_alloc(std::size_t bytes);

  /// Destroys all queued (blocked) requests and all granted-but-undelivered
  /// allocations without running their callbacks (teardown aid: grant
  /// callbacks may own Blocks of other MMUs). Returns the number discarded.
  std::size_t discard_pending();

  /// Retracts every request tagged with `owner`: queued requests are dropped
  /// and granted-but-undelivered allocations are returned to the arena, all
  /// without running their callbacks. Freed memory is pumped to waiters.
  /// Returns the number retracted. No-op for a null owner.
  std::size_t cancel_owner(const void* owner);

  /// Optional timeline recorder (null = off): every request that blocks
  /// becomes a "mem-blocked" instant on `track` (value = bytes requested).
  void set_timeline(obs::Timeline* timeline, obs::TrackId track);

  /// Optional metric handle (null = off): `grant_latency` observes each
  /// blocked request's queueing delay in seconds. Owner (the obs registry)
  /// must outlive us.
  void set_metrics(obs::Distribution* grant_latency) {
    grant_latency_ = grant_latency;
  }

  // --- observability ---------------------------------------------------
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t bytes_used() const { return used_; }
  [[nodiscard]] std::size_t bytes_free() const { return capacity_ - used_; }
  [[nodiscard]] std::size_t high_watermark() const { return high_watermark_; }
  [[nodiscard]] std::size_t pending_requests() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t alloc_count() const { return alloc_count_; }
  [[nodiscard]] std::uint64_t blocked_count() const { return blocked_count_; }
  /// Largest single allocation currently possible (contiguity-limited).
  [[nodiscard]] std::size_t largest_free_range() const;
  [[nodiscard]] std::size_t free_range_count() const { return free_.size(); }
  /// Total simulated time requests have spent blocked in the queue.
  [[nodiscard]] sim::SimTime total_block_time() const { return total_block_time_; }
  /// Time-averaged bytes in use.
  [[nodiscard]] double average_bytes_used() const {
    return usage_.average(sim_.now());
  }

 private:
  friend class Block;

  struct FreeRange {
    std::size_t offset;
    std::size_t size;
  };
  struct Pending {
    std::size_t bytes = 0;
    Grant on_grant;
    sim::SimTime enqueued;
    const void* owner = nullptr;
  };
  /// A granted-but-not-yet-delivered allocation parked in the grant pool.
  /// The event scheduled by deliver() captures only {this, handle}, so
  /// granting never allocates; the handle's generation keeps an event for a
  /// discarded grant from touching a reused slot.
  struct GrantSlot {
    std::size_t offset = 0;
    std::size_t bytes = 0;
    Grant on_grant;
    const void* owner = nullptr;
  };

  /// Carves `bytes` from the free list; nullopt if no range fits.
  std::optional<std::size_t> carve(std::size_t bytes);
  void release_range(std::size_t offset, std::size_t size);
  /// Grants queued requests that now fit, per the discipline.
  void pump();
  void deliver(std::size_t offset, std::size_t bytes, Grant on_grant,
               const void* owner);
  void fire_grant(sim::SlotHandle slot);

  sim::Simulation& sim_;
  std::size_t capacity_;
  sim::SimTime service_time_;
  MmuDiscipline discipline_;
  obs::Timeline* timeline_ = nullptr;
  obs::TrackId track_ = 0;
  obs::NameId name_blocked_ = 0;
  obs::Distribution* grant_latency_ = nullptr;
  std::vector<FreeRange> free_;  // sorted by offset, coalesced
  sim::RingQueue<Pending> queue_;  // blocked requests, arrival order
  sim::SlotPool<GrantSlot> grants_{2};
  std::size_t used_ = 0;
  std::size_t high_watermark_ = 0;
  std::uint64_t alloc_count_ = 0;
  std::uint64_t blocked_count_ = 0;
  sim::SimTime total_block_time_;
  sim::TimeWeighted usage_;
};

}  // namespace tmc::mem
