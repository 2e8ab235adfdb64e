#include "mem/mmu.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.h"

namespace tmc::mem {

void Block::release() {
  if (mmu_ == nullptr) return;
  Mmu* mmu = mmu_;
  mmu_ = nullptr;
  mmu->release_range(offset_, size_);
  mmu->pump();
}

Mmu::Mmu(sim::Simulation& sim, std::size_t capacity, sim::SimTime service_time,
         MmuDiscipline discipline)
    : sim_(sim),
      capacity_(capacity),
      service_time_(service_time),
      discipline_(discipline) {
  if (capacity == 0) throw std::invalid_argument("Mmu capacity must be > 0");
  // No reservation: a machine builds one MMU per node, and most never block
  // a request or hold more than a few grants at once. The free list, the
  // grant pool and the blocked queue each grow by doubling to the depth
  // this node's traffic reaches and keep it, so the steady state is still
  // allocation-free.
  free_.push_back(FreeRange{0, capacity});
}

std::optional<std::size_t> Mmu::carve(std::size_t bytes) {
  for (auto it = free_.begin(); it != free_.end(); ++it) {
    if (it->size >= bytes) {
      const std::size_t offset = it->offset;
      it->offset += bytes;
      it->size -= bytes;
      if (it->size == 0) free_.erase(it);
      used_ += bytes;
      high_watermark_ = std::max(high_watermark_, used_);
      usage_.update(sim_.now(), static_cast<double>(used_));
      return offset;
    }
  }
  return std::nullopt;
}

void Mmu::release_range(std::size_t offset, std::size_t size) {
  assert(size <= used_);
  used_ -= size;
  usage_.update(sim_.now(), static_cast<double>(used_));
  // Insert sorted by offset and coalesce with neighbours.
  auto it = std::lower_bound(
      free_.begin(), free_.end(), offset,
      [](const FreeRange& r, std::size_t off) { return r.offset < off; });
  it = free_.insert(it, FreeRange{offset, size});
  // Coalesce with successor.
  if (auto next = std::next(it);
      next != free_.end() && it->offset + it->size == next->offset) {
    it->size += next->size;
    free_.erase(next);
  }
  // Coalesce with predecessor.
  if (it != free_.begin()) {
    auto prev = std::prev(it);
    if (prev->offset + prev->size == it->offset) {
      prev->size += it->size;
      free_.erase(it);
    }
  }
}

void Mmu::fire_grant(sim::SlotHandle slot) {
  if (!grants_.live(slot)) return;  // discarded grant
  GrantSlot& g = grants_[slot.index];
  const std::size_t offset = g.offset;
  const std::size_t bytes = g.bytes;
  Grant cb = std::move(g.on_grant);
  // Retire before running the callback: it may request again and reuse the
  // slot.
  grants_.retire(slot.index);
  cb(Block(this, offset, bytes));
}

void Mmu::deliver(std::size_t offset, std::size_t bytes, Grant on_grant,
                  const void* owner) {
  ++alloc_count_;
  const sim::SlotHandle slot = grants_.acquire();
  grants_[slot.index] = GrantSlot{offset, bytes, std::move(on_grant), owner};
  sim_.schedule(service_time_, [this, slot] { fire_grant(slot); });
}

void Mmu::set_timeline(obs::Timeline* timeline, obs::TrackId track) {
  timeline_ = timeline;
  track_ = track;
  if (timeline_ != nullptr) name_blocked_ = timeline_->intern("mem-blocked");
}

void Mmu::request(std::size_t bytes, Grant on_grant, const void* owner) {
  if (bytes == 0 || bytes > capacity_) {
    throw std::invalid_argument("Mmu request of " + std::to_string(bytes) +
                                " bytes cannot be satisfied (capacity " +
                                std::to_string(capacity_) + ")");
  }
  // kFifo never overtakes an already-blocked request; kFirstFit serves any
  // fitting request immediately (whatever is still queued after the last
  // pump() does not fit anyway).
  if (queue_.empty() || discipline_ == MmuDiscipline::kFirstFit) {
    if (auto offset = carve(bytes)) {
      deliver(*offset, bytes, std::move(on_grant), owner);
      return;
    }
  }
  ++blocked_count_;
  if (timeline_ != nullptr) {
    timeline_->instant(track_, name_blocked_, sim_.now(),
                       static_cast<double>(bytes));
  }
  queue_.push_back(Pending{bytes, std::move(on_grant), sim_.now(), owner});
}

std::optional<Block> Mmu::try_alloc(std::size_t bytes) {
  if (bytes == 0 || bytes > capacity_) return std::nullopt;
  if (!queue_.empty() && discipline_ == MmuDiscipline::kFifo) {
    return std::nullopt;
  }
  if (auto offset = carve(bytes)) {
    ++alloc_count_;
    return Block(this, *offset, bytes);
  }
  return std::nullopt;
}

void Mmu::pump() {
  // Grants found in one scan all fire at now + service_time, oldest
  // request first: no user code runs inside the scan, so nothing else is
  // scheduled between them.
  const auto grant = [this](Pending& p, std::size_t offset) {
    total_block_time_ += sim_.now() - p.enqueued;
    obs::observe(grant_latency_, (sim_.now() - p.enqueued).to_seconds());
    deliver(offset, p.bytes, std::move(p.on_grant), p.owner);
  };
  if (discipline_ == MmuDiscipline::kFifo) {
    while (!queue_.empty()) {
      auto offset = carve(queue_.front().bytes);
      if (!offset) break;  // head-of-line blocking
      grant(queue_.front(), *offset);
      queue_.pop_front();
    }
  } else {
    // First-fit scan: grant anything that fits, oldest first.
    queue_.erase_if([&](Pending& p) {
      auto offset = carve(p.bytes);
      if (offset) grant(p, *offset);
      return offset.has_value();
    });
  }
}

std::size_t Mmu::discard_pending() {
  std::size_t n = 0;
  while (!queue_.empty()) {
    Pending head = std::move(queue_.front());
    queue_.pop_front();
    ++n;
    // head.on_grant destroyed here; may release blocks and re-enter pump(),
    // which is safe: the queue entry was already removed.
  }
  // Granted-but-undelivered allocations: their delivery events may have
  // been discarded with the event queue, so drop the parked callbacks too.
  // The arena range stays carved (teardown only). Destroying a callback can
  // release blocks and pump new grants into the pool, so iterate by index
  // and let the caller loop to a fixed point.
  grants_.for_each_live([&](std::uint32_t slot) {
    Grant doomed = std::move(grants_[slot].on_grant);
    grants_.retire(slot);
    ++n;
  });
  return n;
}

std::size_t Mmu::cancel_owner(const void* owner) {
  if (owner == nullptr) return 0;
  std::size_t n = 0;
  // Collect doomed callbacks and destroy them only after the scans: a
  // callback's destructor may release Blocks, which re-enters pump() and
  // would invalidate the iterators below.
  std::vector<Grant> doomed;
  n += queue_.erase_if([&](Pending& p) {
    if (p.owner != owner) return false;
    doomed.push_back(std::move(p.on_grant));
    return true;
  });
  grants_.for_each_live([&](std::uint32_t slot) {
    GrantSlot& g = grants_[slot];
    if (g.owner != owner) return;
    doomed.push_back(std::move(g.on_grant));
    grants_.retire(slot);
    release_range(g.offset, g.bytes);
    ++n;
  });
  if (n > 0) pump();
  return n;  // `doomed` destructs here; nested pumps are safe now.
}

std::size_t Mmu::largest_free_range() const {
  std::size_t best = 0;
  for (const auto& range : free_) best = std::max(best, range.size);
  return best;
}

}  // namespace tmc::mem
