// tmcsim -- generation-tagged slot pool for in-flight work.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace tmc::sim {

/// Address of one pool slot's occupant. Retiring the slot bumps its
/// generation, so a handle goes stale the moment its occupant leaves, even
/// if the slot is reused at once.
struct SlotHandle {
  std::uint32_t index = 0;
  std::uint32_t generation = 0;
};

/// Pool of `T` slots addressed by SlotHandle.
///
/// The event kernel, the MMU's grant pool, the comm system's delivery pool
/// and the wormhole engine's worm pool all park in-flight work here, so a
/// callback that resumes it captures {owner, handle} -- 16 bytes, inline in
/// UniqueFunction's small buffer -- and never allocates.
///
/// Free slots form an intrusive LIFO list: acquire() reuses the most
/// recently retired slot and appends a new one only when none is free. A
/// full pool grows to max(first_reservation, 2 * size), so a warm pool stops
/// allocating. A slot's free-list link doubles as its live mark, so each
/// slot costs two 32-bit words beyond its payload, or none when they fit in
/// the payload's tail padding.
///
/// The pool keeps bookkeeping only. acquire() returns the slot with whatever
/// payload its last occupant left (value-initialised when new), and the
/// caller moves resources out before retire(). An acquire() that grows the
/// pool invalidates references into it, but never indices.
template <typename T>
class SlotPool {
  static constexpr std::uint32_t kFreeListEnd = 0xffffffffu;
  static constexpr std::uint32_t kLive = 0xfffffffeu;

  struct Node {
    // The bookkeeping words may sit in the payload's tail padding (a
    // callback plus a flag leaves 15 bytes there), so the event kernel's
    // slot costs no more than the payload alone.
    [[no_unique_address]] T value{};
    std::uint32_t generation = 0;
    std::uint32_t next_free = kLive;  // free-list link, or kLive
  };

 public:
  /// Bytes per slot, payload included (layout pins).
  static constexpr std::size_t kSlotBytes = sizeof(Node);

  /// The first acquire() into an empty pool reserves `first_reservation`
  /// slots (reserve() can do so earlier); later growth doubles.
  explicit SlotPool(std::size_t first_reservation = 16)
      : first_reservation_(first_reservation) {}

  /// Takes a free slot, or grows the pool, and returns its handle.
  SlotHandle acquire() {
    return acquire([](std::size_t) {});
  }

  /// As acquire(), calling `on_grow(capacity)` each time the pool
  /// reallocates, so an owner can size a structure that tracks the pool
  /// (the event queue reserves its heap array alongside) without checking
  /// on every acquire.
  template <typename OnGrow>
  SlotHandle acquire(OnGrow&& on_grow) {
    std::uint32_t index = free_head_;
    if (index != kFreeListEnd) {
      free_head_ = nodes_[index].next_free;
    } else {
      if (nodes_.size() == nodes_.capacity()) {
        grow();
        on_grow(nodes_.capacity());
      }
      index = static_cast<std::uint32_t>(nodes_.size());
      nodes_.emplace_back();
    }
    Node& node = nodes_[index];
    node.next_free = kLive;
    if (++live_ > peak_live_) peak_live_ = live_;
    return SlotHandle{index, node.generation};
  }

  /// Frees a live slot: its handles go stale and it heads the free list.
  void retire(std::uint32_t index) {
    Node& node = nodes_[index];
    assert(node.next_free == kLive && "retiring a free slot");
    ++node.generation;
    node.next_free = free_head_;
    free_head_ = index;
    --live_;
  }

  /// True when `handle` names a current occupant: false for a stale handle
  /// and for a generation not yet issued. The index must be below size(),
  /// as in every handle the pool issued; an owner that accepts handles
  /// from outside checks that first.
  [[nodiscard]] bool live(SlotHandle handle) const {
    assert(handle.index < nodes_.size());
    const Node& node = nodes_[handle.index];
    return node.next_free == kLive && node.generation == handle.generation;
  }

  [[nodiscard]] T& operator[](std::uint32_t index) {
    return nodes_[index].value;
  }
  [[nodiscard]] const T& operator[](std::uint32_t index) const {
    return nodes_[index].value;
  }

  /// Calls `f(index)` for each live slot in index order. `f` may retire
  /// slots and acquire new ones (growing the pool); the scan re-reads the
  /// size each step, so slots appended during it are visited too.
  template <typename F>
  void for_each_live(F&& f) {
    for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
      if (nodes_[i].next_free == kLive) f(i);
    }
  }

  /// Slots ever created, live or free.
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] std::size_t live_count() const { return live_; }
  /// High-water mark of live_count().
  [[nodiscard]] std::size_t peak_live() const { return peak_live_; }
  /// Slots the pool holds without reallocating.
  [[nodiscard]] std::size_t capacity() const { return nodes_.capacity(); }
  /// Times a full pool reallocated after its first reservation.
  [[nodiscard]] std::uint64_t growths() const { return growths_; }

  /// Reserves room for `capacity` slots up front.
  void reserve(std::size_t capacity) { nodes_.reserve(capacity); }

 private:
  void grow() {
    if (nodes_.capacity() != 0) ++growths_;
    nodes_.reserve(std::max(first_reservation_, nodes_.size() * 2));
  }

  std::vector<Node> nodes_;
  std::uint32_t free_head_ = kFreeListEnd;
  std::size_t first_reservation_;
  std::size_t live_ = 0;
  std::size_t peak_live_ = 0;
  std::uint64_t growths_ = 0;
};

}  // namespace tmc::sim
