// Tests for the Lamport lock-free SPSC ring — the thesis' IPC queue.
// Includes real two-thread stress tests: this is the one component whose
// concurrency is exercised natively rather than under the simulator.
#include "queue/spsc_ring.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

namespace lvrm::queue {
namespace {

TEST(SpscRing, SingleThreadFifo) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(ring.try_push(i));
  for (int i = 0; i < 5; ++i) {
    const auto v = ring.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(ring.try_pop().has_value());
}

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  SpscRing<int> ring(5);
  EXPECT_EQ(ring.capacity(), 8u);
  SpscRing<int> ring2(8);
  EXPECT_EQ(ring2.capacity(), 8u);
  SpscRing<int> tiny(0);
  EXPECT_EQ(tiny.capacity(), 2u);
}

TEST(SpscRing, FullRingRejectsPush) {
  SpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(i));
  EXPECT_FALSE(ring.try_push(99));  // all capacity slots usable, then full
  ring.try_pop();
  EXPECT_TRUE(ring.try_push(99));
}

TEST(SpscRing, SizeApprox) {
  SpscRing<int> ring(8);
  EXPECT_TRUE(ring.empty_approx());
  ring.try_push(1);
  ring.try_push(2);
  EXPECT_EQ(ring.size_approx(), 2u);
  ring.try_pop();
  EXPECT_EQ(ring.size_approx(), 1u);
}

TEST(SpscRing, MoveOnlyPayloads) {
  SpscRing<std::unique_ptr<int>> ring(4);
  ring.try_push(std::make_unique<int>(5));
  const auto v = ring.try_pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(**v, 5);
}

TEST(SpscRing, IndexWraparound) {
  SpscRing<int> ring(4);
  for (int round = 0; round < 1000; ++round) {
    EXPECT_TRUE(ring.try_push(round));
    const auto v = ring.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, round);
  }
}

// Two real threads hammer the ring; every value must arrive exactly once, in
// order, with no tearing — Lamport's correctness property.
class SpscStress : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SpscStress, TwoThreadIntegrity) {
  const std::size_t capacity = GetParam();
  constexpr std::uint64_t kItems = 50'000;
  SpscRing<std::uint64_t> ring(capacity);

  // yield() when blocked: on a single-CPU host a pure spin would burn whole
  // scheduler quanta between progress steps.
  std::atomic<bool> failed{false};
  std::thread consumer([&] {
    std::uint64_t expected = 0;
    while (expected < kItems) {
      const auto v = ring.try_pop();
      if (!v.has_value()) {
        std::this_thread::yield();
        continue;
      }
      if (*v != expected) {
        failed.store(true);
        return;
      }
      ++expected;
    }
  });

  for (std::uint64_t i = 0; i < kItems;) {
    if (ring.try_push(i)) {
      ++i;
    } else {
      std::this_thread::yield();
    }
  }
  consumer.join();
  EXPECT_FALSE(failed.load());
  EXPECT_TRUE(ring.empty_approx());
}

INSTANTIATE_TEST_SUITE_P(Capacities, SpscStress,
                         ::testing::Values(2, 8, 64, 1024));

TEST(SpscRing, StressWithStructPayload) {
  struct Item {
    std::uint64_t seq;
    std::uint64_t check;
  };
  constexpr std::uint64_t kItems = 50'000;
  SpscRing<Item> ring(128);
  std::atomic<std::uint64_t> bad{0};

  std::thread consumer([&] {
    std::uint64_t got = 0;
    while (got < kItems) {
      const auto v = ring.try_pop();
      if (!v.has_value()) {
        std::this_thread::yield();
        continue;
      }
      if (v->check != v->seq * 0x9E3779B97F4A7C15ULL) ++bad;
      ++got;
    }
  });
  for (std::uint64_t i = 0; i < kItems;) {
    if (ring.try_push(Item{i, i * 0x9E3779B97F4A7C15ULL})) {
      ++i;
    } else {
      std::this_thread::yield();
    }
  }
  consumer.join();
  EXPECT_EQ(bad.load(), 0u);
}

}  // namespace
}  // namespace lvrm::queue
