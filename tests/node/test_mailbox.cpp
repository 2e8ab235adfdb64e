#include "node/mailbox.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/simulation.h"

namespace tmc::node {
namespace {

net::Message msg_with_tag(int tag, std::size_t bytes = 10) {
  net::Message m;
  m.tag = tag;
  m.bytes = bytes;
  return m;
}

class MailboxTest : public ::testing::Test {
 protected:
  MailboxTest() : mmu(sim, 4096) {}
  mem::Block block(std::size_t bytes) {
    auto b = mmu.try_alloc(bytes);
    EXPECT_TRUE(b.has_value());
    return std::move(*b);
  }
  sim::Simulation sim;
  mem::Mmu mmu;
  Mailbox box;
};

TEST_F(MailboxTest, StartsEmpty) {
  EXPECT_TRUE(box.empty());
  EXPECT_FALSE(box.has(kAnyTag));
  EXPECT_FALSE(box.take(kAnyTag).has_value());
}

TEST_F(MailboxTest, DepositAndTakeByTag) {
  box.deposit(msg_with_tag(5), block(10));
  EXPECT_TRUE(box.has(5));
  EXPECT_FALSE(box.has(6));
  auto taken = box.take(5);
  ASSERT_TRUE(taken.has_value());
  EXPECT_EQ(taken->message.tag, 5);
  EXPECT_TRUE(box.empty());
}

TEST_F(MailboxTest, AnyTagMatchesEverything) {
  box.deposit(msg_with_tag(9), block(10));
  EXPECT_TRUE(box.has(kAnyTag));
  EXPECT_TRUE(box.take(kAnyTag).has_value());
}

TEST_F(MailboxTest, FifoWithinTag) {
  auto first = msg_with_tag(3);
  first.id = 1;
  auto second = msg_with_tag(3);
  second.id = 2;
  box.deposit(first, block(10));
  box.deposit(second, block(10));
  EXPECT_EQ(box.take(3)->message.id, 1u);
  EXPECT_EQ(box.take(3)->message.id, 2u);
}

TEST_F(MailboxTest, TagFilterSkipsNonMatching) {
  auto a = msg_with_tag(1);
  a.id = 1;
  auto b = msg_with_tag(2);
  b.id = 2;
  box.deposit(a, block(10));
  box.deposit(b, block(10));
  EXPECT_EQ(box.take(2)->message.id, 2u);
  EXPECT_EQ(box.size(), 1u);
  EXPECT_EQ(box.take(kAnyTag)->message.id, 1u);
}

TEST_F(MailboxTest, BufferedBytesTracksPinnedMemory) {
  box.deposit(msg_with_tag(1), block(100));
  box.deposit(msg_with_tag(2), block(200));
  EXPECT_EQ(box.buffered_bytes(), 300u);
  EXPECT_EQ(mmu.bytes_used(), 300u);
  box.take(1)->buffer.release();
  EXPECT_EQ(box.buffered_bytes(), 200u);
  EXPECT_EQ(mmu.bytes_used(), 200u);
}

TEST_F(MailboxTest, TakeTransfersBufferOwnership) {
  box.deposit(msg_with_tag(1), block(64));
  {
    auto taken = box.take(1);
    ASSERT_TRUE(taken.has_value());
  }  // buffer destroyed here
  EXPECT_EQ(mmu.bytes_used(), 0u);
}

TEST_F(MailboxTest, DeepMailboxMatchesAReferenceQueue) {
  // Mailboxes run dozens deep with most takes at the front: a seeded mix of
  // deposits, front takes and tagged takes (often from the middle) must
  // keep arrival order, size, has() and buffered_bytes() of a plain list.
  struct Ref {
    int tag;
    std::size_t bytes;
  };
  std::vector<Ref> ref;
  std::uint64_t state = 7;
  const auto roll = [&state](std::uint64_t n) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return (state >> 33) % n;
  };
  for (int i = 0; i < 4000; ++i) {
    const std::uint64_t op = roll(10);
    if (op < 5 || ref.size() < 8) {
      const int tag = static_cast<int>(roll(3));
      const std::size_t bytes = 1 + roll(16);
      box.deposit(msg_with_tag(tag, bytes), block(bytes));
      ref.push_back(Ref{tag, bytes});
    } else {
      const int tag = op < 9 ? kAnyTag : static_cast<int>(roll(3));
      auto it = ref.begin();
      while (it != ref.end() && tag != kAnyTag && it->tag != tag) ++it;
      auto taken = box.take(tag);
      ASSERT_EQ(taken.has_value(), it != ref.end());
      if (taken) {
        EXPECT_EQ(taken->message.tag, it->tag);
        EXPECT_EQ(taken->message.bytes, it->bytes);
        EXPECT_EQ(taken->buffer.size(), it->bytes);
        ref.erase(it);
      }
    }
    ASSERT_EQ(box.size(), ref.size());
    std::size_t bytes = 0;
    for (const Ref& r : ref) bytes += r.bytes;
    EXPECT_EQ(box.buffered_bytes(), bytes);
    EXPECT_EQ(mmu.bytes_used(), bytes);
    for (int tag = 0; tag < 3; ++tag) {
      const bool waiting =
          std::any_of(ref.begin(), ref.end(),
                      [tag](const Ref& r) { return r.tag == tag; });
      EXPECT_EQ(box.has(tag), waiting);
    }
  }
  while (box.take(kAnyTag)) {
  }
  EXPECT_TRUE(box.empty());
  EXPECT_EQ(mmu.bytes_used(), 0u);
}

}  // namespace
}  // namespace tmc::node
