#include "sim/unique_function.h"

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

namespace tmc::sim {
namespace {

TEST(UniqueFunction, DefaultIsEmpty) {
  UniqueFunction<void()> f;
  EXPECT_FALSE(f);
}

TEST(UniqueFunction, NullptrConstructibleIsEmpty) {
  UniqueFunction<void()> f = nullptr;
  EXPECT_FALSE(f);
}

TEST(UniqueFunction, InvokesStoredCallable) {
  int hits = 0;
  UniqueFunction<void()> f = [&] { ++hits; };
  f();
  f();
  EXPECT_EQ(hits, 2);
}

TEST(UniqueFunction, ForwardsArgumentsAndReturn) {
  UniqueFunction<int(int, int)> add = [](int a, int b) { return a + b; };
  EXPECT_EQ(add(2, 3), 5);
}

TEST(UniqueFunction, HoldsMoveOnlyCapture) {
  auto owned = std::make_unique<std::string>("payload");
  UniqueFunction<std::string()> f = [p = std::move(owned)] { return *p; };
  EXPECT_EQ(f(), "payload");
}

TEST(UniqueFunction, AcceptsMoveOnlyParameters) {
  UniqueFunction<int(std::unique_ptr<int>)> f =
      [](std::unique_ptr<int> p) { return *p; };
  EXPECT_EQ(f(std::make_unique<int>(9)), 9);
}

TEST(UniqueFunction, MoveTransfersOwnership) {
  int hits = 0;
  UniqueFunction<void()> a = [&] { ++hits; };
  UniqueFunction<void()> b = std::move(a);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): documented contract
  EXPECT_TRUE(b);
  b();
  EXPECT_EQ(hits, 1);
}

TEST(UniqueFunction, MoveAssignReplacesTarget) {
  int first = 0, second = 0;
  UniqueFunction<void()> f = [&] { ++first; };
  f = [&] { ++second; };
  f();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
}

TEST(UniqueFunction, MutableLambdaKeepsState) {
  UniqueFunction<int()> counter = [n = 0]() mutable { return ++n; };
  EXPECT_EQ(counter(), 1);
  EXPECT_EQ(counter(), 2);
}

TEST(UniqueFunction, SmallCapturesAreStoredInline) {
  std::array<std::uint64_t, 4> payload{1, 2, 3, 4};  // 32 bytes
  UniqueFunction<std::uint64_t()> f = [payload] { return payload[0]; };
  EXPECT_TRUE(f.uses_inline_storage());
  EXPECT_EQ(f(), 1u);
}

TEST(UniqueFunction, MoveOnlyCapturesAreStoredInline) {
  auto owned = std::make_unique<int>(11);
  UniqueFunction<int()> f = [p = std::move(owned)] { return *p; };
  EXPECT_TRUE(f.uses_inline_storage());
  UniqueFunction<int()> moved = std::move(f);
  EXPECT_TRUE(moved.uses_inline_storage());
  EXPECT_EQ(moved(), 11);
}

TEST(UniqueFunction, OversizedCapturesFallBackToHeap) {
  std::array<std::uint64_t, 16> payload{};  // 128 bytes > kInlineSize
  payload[15] = 99;
  UniqueFunction<std::uint64_t()> f = [payload] { return payload[15]; };
  EXPECT_FALSE(f.uses_inline_storage());
  EXPECT_EQ(f(), 99u);
  UniqueFunction<std::uint64_t()> moved = std::move(f);
  EXPECT_FALSE(moved.uses_inline_storage());
  EXPECT_EQ(moved(), 99u);
}

TEST(UniqueFunction, OverAlignedCapturesFallBackToHeap) {
  // The inline buffer is pointer-aligned, which keeps the object at 56
  // bytes; a capture that needs more alignment lives on the heap, where
  // operator new honours it.
  static_assert(sizeof(UniqueFunction<void()>) == 7 * sizeof(void*));
  struct alignas(32) Wide {
    std::uint64_t value = 0;
  };
  static_assert(!UniqueFunction<std::uint64_t()>::stores_inline<Wide>());
  Wide wide;
  wide.value = 42;
  UniqueFunction<std::uint64_t()> f = [wide] {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&wide) % 32, 0u);
    return wide.value;
  };
  EXPECT_FALSE(f.uses_inline_storage());
  EXPECT_EQ(f(), 42u);
}

TEST(UniqueFunction, ThrowingMoveCapturesFallBackToHeap) {
  // Inline storage relocates with the callable's move constructor, so a
  // potentially-throwing move must live on the heap (pointer relocation).
  struct ThrowingMove {
    ThrowingMove() = default;
    ThrowingMove(ThrowingMove&&) noexcept(false) {}
    int value = 5;
  };
  static_assert(!UniqueFunction<int()>::stores_inline<ThrowingMove>());
  ThrowingMove capture;
  UniqueFunction<int()> f = [capture = std::move(capture)] {
    return capture.value;
  };
  EXPECT_FALSE(f.uses_inline_storage());
  EXPECT_EQ(f(), 5);
}

TEST(UniqueFunction, MovedFromIsEmptyAndReassignable) {
  UniqueFunction<int()> a = [] { return 1; };
  UniqueFunction<int()> b = std::move(a);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): documented contract
  EXPECT_FALSE(a.uses_inline_storage());
  a = [] { return 2; };
  EXPECT_TRUE(a);
  EXPECT_EQ(a(), 2);
  EXPECT_EQ(b(), 1);
}

TEST(UniqueFunction, MoveAssignDestroysPreviousTarget) {
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  UniqueFunction<void()> f = [t = std::move(token)] { (void)t; };
  EXPECT_FALSE(watch.expired());
  f = [] {};
  EXPECT_TRUE(watch.expired());
}

TEST(UniqueFunction, HeapCaptureDestroyedExactlyOnce) {
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  struct Big {
    std::shared_ptr<int> keep;
    std::array<std::byte, 64> pad{};
  };
  {
    UniqueFunction<void()> f = [big = Big{std::move(token), {}}] {
      (void)big;
    };
    EXPECT_FALSE(f.uses_inline_storage());
    UniqueFunction<void()> g = std::move(f);
    EXPECT_FALSE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());
}

}  // namespace
}  // namespace tmc::sim
