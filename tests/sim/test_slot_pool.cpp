#include "sim/slot_pool.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tmc::sim {
namespace {

TEST(SlotPool, ReusesTheLastRetiredSlotFirst) {
  SlotPool<int> pool;
  const SlotHandle a = pool.acquire();
  const SlotHandle b = pool.acquire();
  const SlotHandle c = pool.acquire();
  EXPECT_EQ(a.index, 0u);
  EXPECT_EQ(b.index, 1u);
  EXPECT_EQ(c.index, 2u);
  pool.retire(a.index);
  pool.retire(c.index);
  // LIFO: c was freed last, so it comes back first, then a, then a new slot.
  EXPECT_EQ(pool.acquire().index, c.index);
  EXPECT_EQ(pool.acquire().index, a.index);
  EXPECT_EQ(pool.acquire().index, 3u);
  EXPECT_EQ(pool.size(), 4u);
  EXPECT_EQ(pool.live_count(), 4u);
}

TEST(SlotPool, RejectsStaleAndForgedHandles) {
  SlotPool<int> pool;
  const SlotHandle first = pool.acquire();
  EXPECT_TRUE(pool.live(first));
  pool.retire(first.index);
  EXPECT_FALSE(pool.live(first));  // retired
  // The free slot's next generation has not been issued yet.
  const SlotHandle forged{first.index, first.generation + 1};
  EXPECT_FALSE(pool.live(forged));
  const SlotHandle second = pool.acquire();
  EXPECT_EQ(second.index, first.index);
  EXPECT_EQ(second.generation, forged.generation);
  EXPECT_TRUE(pool.live(second));
  EXPECT_FALSE(pool.live(first));  // stale even though the slot is reused
  // Ahead of the live occupant's generation.
  EXPECT_FALSE(pool.live(SlotHandle{second.index, second.generation + 1}));
}

TEST(SlotPool, ScanSurvivesAcquiresThatGrowThePool) {
  SlotPool<int> pool(2);
  pool[pool.acquire().index] = 10;
  pool[pool.acquire().index] = 11;
  ASSERT_EQ(pool.capacity(), 2u);
  std::vector<int> seen;
  pool.for_each_live([&](std::uint32_t i) {
    seen.push_back(pool[i]);
    if (pool[i] == 10) {
      // Mid-scan: retire this slot and acquire three more. The first reuses
      // slot 0 (already visited); the next two grow the pool past its
      // reservation and land after the cursor, so the scan visits them.
      pool.retire(i);
      for (int v : {20, 21, 22}) pool[pool.acquire().index] = v;
    }
  });
  EXPECT_EQ(seen, (std::vector<int>{10, 11, 21, 22}));
  EXPECT_GT(pool.capacity(), 2u);
  EXPECT_EQ(pool.growths(), 1u);
  EXPECT_EQ(pool[0], 20);
  EXPECT_EQ(pool.live_count(), 4u);
}

TEST(SlotPool, CountsGrowthsBeyondAPreReservation) {
  SlotPool<int> pool(4);
  pool.reserve(8);
  EXPECT_EQ(pool.capacity(), 8u);
  EXPECT_EQ(pool.growths(), 0u);
  for (int i = 0; i < 8; ++i) pool.acquire();
  EXPECT_EQ(pool.capacity(), 8u);
  EXPECT_EQ(pool.growths(), 0u);
  pool.acquire();  // full: doubles
  EXPECT_EQ(pool.capacity(), 16u);
  EXPECT_EQ(pool.growths(), 1u);
  EXPECT_EQ(pool.peak_live(), 9u);
}

TEST(SlotPool, FirstReservationIsNotCountedAsGrowth) {
  SlotPool<int> pool(4);
  EXPECT_EQ(pool.capacity(), 0u);
  // The growth hook sees every reallocation, the first reservation too.
  std::vector<std::size_t> grown;
  const auto on_grow = [&](std::size_t capacity) { grown.push_back(capacity); };
  pool.acquire(on_grow);
  EXPECT_EQ(pool.capacity(), 4u);
  EXPECT_EQ(pool.growths(), 0u);
  for (int i = 0; i < 4; ++i) pool.acquire(on_grow);
  EXPECT_EQ(pool.capacity(), 8u);
  EXPECT_EQ(pool.growths(), 1u);
  EXPECT_EQ(grown, (std::vector<std::size_t>{4, 8}));
}

TEST(SlotPool, TracksLiveCountAndPeak) {
  SlotPool<int> pool;
  const SlotHandle a = pool.acquire();
  const SlotHandle b = pool.acquire();
  pool.retire(a.index);
  pool.retire(b.index);
  pool.acquire();
  EXPECT_EQ(pool.live_count(), 1u);
  EXPECT_EQ(pool.peak_live(), 2u);
  EXPECT_EQ(pool.size(), 2u);
}

}  // namespace
}  // namespace tmc::sim
