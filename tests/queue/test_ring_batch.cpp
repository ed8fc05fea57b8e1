// Tests for the batch push/pop APIs added to the queue/ rings: wraparound
// across the index mask, partial transfers against nearly-full/nearly-empty
// rings, interleaving with the single-item API (cached peer-index
// correctness), and a two-thread stress.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "queue/fastforward_ring.hpp"
#include "queue/mc_ring.hpp"
#include "queue/spsc_ring.hpp"

namespace lvrm::queue {
namespace {

TEST(SpscRingBatch, PushPopRoundTripInOrder) {
  SpscRing<int> ring(64);
  std::array<int, 16> in{};
  std::iota(in.begin(), in.end(), 100);
  EXPECT_EQ(ring.try_push_batch(in.data(), in.size()), 16u);
  std::array<int, 16> out{};
  EXPECT_EQ(ring.try_pop_batch(out.data(), out.size()), 16u);
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i], 100 + static_cast<int>(i));
}

TEST(SpscRingBatch, WrapsAroundIndexMask) {
  // Capacity 8; repeated batches of 5 force the masked indices to wrap many
  // times and at varying offsets within a batch.
  SpscRing<std::uint64_t> ring(8);
  std::uint64_t next_in = 0, next_out = 0;
  std::uint64_t buf[5];
  for (int round = 0; round < 100; ++round) {
    for (std::size_t i = 0; i < 5; ++i) buf[i] = next_in + i;
    const std::size_t pushed = ring.try_push_batch(buf, 5);
    next_in += pushed;
    const std::size_t popped = ring.try_pop_batch(buf, 5);
    for (std::size_t i = 0; i < popped; ++i) EXPECT_EQ(buf[i], next_out + i);
    next_out += popped;
  }
  // Drain the remainder.
  std::uint64_t tail[8];
  const std::size_t popped = ring.try_pop_batch(tail, 8);
  for (std::size_t i = 0; i < popped; ++i) EXPECT_EQ(tail[i], next_out + i);
  EXPECT_EQ(next_out + popped, next_in);
}

TEST(SpscRingBatch, PartialPushIntoNearlyFullRing) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(ring.try_push(i));
  int extra[5] = {6, 7, 8, 9, 10};
  // Only two slots remain: the batch is truncated, not rejected.
  EXPECT_EQ(ring.try_push_batch(extra, 5), 2u);
  EXPECT_EQ(ring.try_push_batch(extra, 5), 0u);  // now genuinely full
  for (int i = 0; i < 6; ++i) EXPECT_EQ(ring.try_pop().value(), i);
  EXPECT_EQ(ring.try_pop().value(), 6);
  EXPECT_EQ(ring.try_pop().value(), 7);
  EXPECT_FALSE(ring.try_pop().has_value());
}

TEST(SpscRingBatch, PartialPopFromNearlyEmptyRing) {
  SpscRing<int> ring(8);
  ASSERT_TRUE(ring.try_push(1));
  ASSERT_TRUE(ring.try_push(2));
  int out[5] = {};
  EXPECT_EQ(ring.try_pop_batch(out, 5), 2u);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[1], 2);
  EXPECT_EQ(ring.try_pop_batch(out, 5), 0u);
}

TEST(SpscRingBatch, InterleavesWithSingleItemApi) {
  // Mixing the two APIs exercises the cached peer-index refresh on both
  // endpoints: stale caches must only ever make the ring look MORE full
  // (push side) or MORE empty (pop side), never corrupt FIFO order.
  SpscRing<int> ring(16);
  int next_in = 0, next_out = 0;
  int buf[8];
  for (int round = 0; round < 200; ++round) {
    if (round % 3 == 0) {
      for (int i = 0; i < 8; ++i) buf[i] = next_in + i;
      next_in += static_cast<int>(ring.try_push_batch(buf, 8));
    } else if (ring.try_push(next_in)) {
      ++next_in;
    }
    if (round % 2 == 0) {
      const std::size_t popped = ring.try_pop_batch(buf, 4);
      for (std::size_t i = 0; i < popped; ++i)
        EXPECT_EQ(buf[i], next_out + static_cast<int>(i));
      next_out += static_cast<int>(popped);
    } else if (auto v = ring.try_pop()) {
      EXPECT_EQ(*v, next_out);
      ++next_out;
    }
  }
  while (auto v = ring.try_pop()) {
    EXPECT_EQ(*v, next_out);
    ++next_out;
  }
  EXPECT_EQ(next_out, next_in);
}

TEST(SpscRingBatch, SizeApproxTracksBatchOps) {
  SpscRing<int> ring(16);
  int buf[10];
  for (int i = 0; i < 10; ++i) buf[i] = i;
  ring.try_push_batch(buf, 10);
  EXPECT_EQ(ring.size_approx(), 10u);
  ring.try_pop_batch(buf, 4);
  EXPECT_EQ(ring.size_approx(), 6u);
}

TEST(SpscRingBatch, TwoThreadStressConservesAndOrders) {
  SpscRing<std::uint64_t> ring(64);
  constexpr std::uint64_t kItems = 200'000;
  std::thread producer([&ring] {
    std::uint64_t buf[16];
    std::uint64_t next = 0;
    while (next < kItems) {
      const std::size_t want =
          static_cast<std::size_t>(std::min<std::uint64_t>(16, kItems - next));
      for (std::size_t i = 0; i < want; ++i) buf[i] = next + i;
      next += ring.try_push_batch(buf, want);
    }
  });
  std::uint64_t buf[16];
  std::uint64_t expected = 0;
  while (expected < kItems) {
    const std::size_t popped = ring.try_pop_batch(buf, 16);
    for (std::size_t i = 0; i < popped; ++i) {
      ASSERT_EQ(buf[i], expected);
      ++expected;
    }
  }
  producer.join();
  EXPECT_EQ(ring.size_approx(), 0u);
}

TEST(McRingBatch, PublishesWholeBurstOnReturn) {
  // With an internal publication batch of 8, three single pushes stay
  // invisible to the consumer — but a batch push publishes on return
  // regardless of the publication threshold.
  McRingBuffer<int> ring(32, /*batch=*/8);
  ASSERT_TRUE(ring.try_push(1));
  ASSERT_TRUE(ring.try_push(2));
  ASSERT_TRUE(ring.try_push(3));
  EXPECT_FALSE(ring.try_pop().has_value());  // unpublished
  int burst[2] = {4, 5};
  ASSERT_EQ(ring.try_push_batch(burst, 2), 2u);
  int out[8];
  // All five items (the stragglers plus the burst) became visible at once.
  EXPECT_EQ(ring.try_pop_batch(out, 8), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(out[i], i + 1);
}

TEST(McRingBatch, BatchPopReleasesSlotsImmediately) {
  McRingBuffer<int> ring(4, /*batch=*/8);
  int in[4] = {1, 2, 3, 4};
  ASSERT_EQ(ring.try_push_batch(in, 4), 4u);  // ring now full
  int out[4];
  ASSERT_EQ(ring.try_pop_batch(out, 4), 4u);
  // Slots were released on return (no waiting for the publication batch):
  // the producer can refill the whole ring.
  EXPECT_EQ(ring.try_push_batch(in, 4), 4u);
}

TEST(McRingBatch, PartialTransfersAndWraparound) {
  McRingBuffer<std::uint64_t> ring(8, /*batch=*/4);
  std::uint64_t next_in = 0, next_out = 0;
  std::uint64_t buf[6];
  for (int round = 0; round < 64; ++round) {
    for (std::size_t i = 0; i < 6; ++i) buf[i] = next_in + i;
    next_in += ring.try_push_batch(buf, 6);
    const std::size_t popped = ring.try_pop_batch(buf, 6);
    for (std::size_t i = 0; i < popped; ++i) EXPECT_EQ(buf[i], next_out + i);
    next_out += popped;
  }
  std::uint64_t tail[8];
  next_out += ring.try_pop_batch(tail, 8);
  EXPECT_EQ(next_out, next_in);
}

TEST(FastForwardBatch, PartialBatchStopsAtOccupiedSlot) {
  FastForwardRing<int> ring(8);
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(ring.try_push(i));
  int extra[5] = {6, 7, 8, 9, 10};
  EXPECT_EQ(ring.try_push_batch(extra, 5), 2u);  // two free slots
  int out[8];
  EXPECT_EQ(ring.try_pop_batch(out, 8), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(out[i], i);
  EXPECT_EQ(ring.try_pop_batch(out, 8), 0u);  // stops at first empty slot
}

TEST(FastForwardBatch, RoundTripWithWraparound) {
  FastForwardRing<std::uint64_t> ring(8);
  std::uint64_t next_in = 0, next_out = 0;
  std::uint64_t buf[5];
  for (int round = 0; round < 64; ++round) {
    for (std::size_t i = 0; i < 5; ++i) buf[i] = next_in + i;
    next_in += ring.try_push_batch(buf, 5);
    const std::size_t popped = ring.try_pop_batch(buf, 5);
    for (std::size_t i = 0; i < popped; ++i) EXPECT_EQ(buf[i], next_out + i);
    next_out += popped;
  }
  std::uint64_t tail[8];
  next_out += ring.try_pop_batch(tail, 8);
  EXPECT_EQ(next_out, next_in);
}

}  // namespace
}  // namespace lvrm::queue
