// Tests for the shared-memory FramePool + FrameHandle descriptors
// (DESIGN.md §12): acquire/release conservation, exhaustion behavior,
// stale-handle generation tagging, slot alignment inside the ShmArena
// segment, and a two-thread RX->TX stress that doubles as the TSan target
// for the descriptor data path.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "net/frame_pool.hpp"
#include "queue/shm_arena.hpp"
#include "queue/spsc_ring.hpp"

namespace lvrm::net {
namespace {

TEST(FramePool, AcquireReleaseRoundTripConserves) {
  queue::ShmArena arena;
  FramePool pool(arena, 8);
  EXPECT_EQ(pool.capacity(), 8u);
  EXPECT_EQ(pool.in_flight(), 0u);

  std::vector<FrameHandle> handles;
  for (int i = 0; i < 8; ++i) {
    const FrameHandle h = pool.acquire();
    ASSERT_NE(h, kInvalidFrameHandle);
    pool.at(h).id = static_cast<std::uint64_t>(1000 + i);
    handles.push_back(h);
  }
  EXPECT_EQ(pool.in_flight(), 8u);
  EXPECT_EQ(pool.acquired_total(), 8u);

  // Slots are distinct: every written id reads back through its own handle.
  for (int i = 0; i < 8; ++i)
    EXPECT_EQ(pool.at(handles[static_cast<std::size_t>(i)]).id,
              static_cast<std::uint64_t>(1000 + i));

  for (const FrameHandle h : handles) pool.release(h);
  EXPECT_EQ(pool.in_flight(), 0u);
  EXPECT_EQ(pool.acquired_total(), pool.released_total());
  EXPECT_EQ(pool.exhausted_total(), 0u);
}

TEST(FramePool, ExhaustionReturnsInvalidAndCountsThenRecovers) {
  queue::ShmArena arena;
  FramePool pool(arena, 4);
  std::vector<FrameHandle> held;
  for (int i = 0; i < 4; ++i) held.push_back(pool.acquire());

  EXPECT_EQ(pool.acquire(), kInvalidFrameHandle);
  EXPECT_EQ(pool.acquire(), kInvalidFrameHandle);
  EXPECT_EQ(pool.exhausted_total(), 2u);
  // A failed acquire is not an allocation: conservation still holds.
  EXPECT_EQ(pool.in_flight(), 4u);

  pool.release(held.back());
  held.pop_back();
  const FrameHandle again = pool.acquire();
  EXPECT_NE(again, kInvalidFrameHandle);
  pool.release(again);
  for (const FrameHandle h : held) pool.release(h);
  EXPECT_EQ(pool.in_flight(), 0u);
}

TEST(FramePool, GenerationBumpsOnEachRecycleOfTheSameSlot) {
  // Capacity-1 pool: every acquire reuses the one slot, so the generation
  // tag (high 8 bits of the handle) must differ between incarnations —
  // that difference is what the debug stale-handle asserts key on.
  queue::ShmArena arena;
  FramePool pool(arena, 1);
  const FrameHandle first = pool.acquire();
  pool.release(first);
  const FrameHandle second = pool.acquire();
  EXPECT_EQ(first & kFrameHandleIndexMask, second & kFrameHandleIndexMask);
  EXPECT_NE(first >> kFrameHandleIndexBits, second >> kFrameHandleIndexBits);
  pool.release(second);
}

TEST(FramePool, SlotsAreCacheLineAlignedInsideTheArenaSegment) {
  queue::ShmArena arena;
  FramePool pool(arena, 3);
  static_assert(sizeof(FramePool::Slot) % queue::kCacheLine == 0,
                "slot size must be a multiple of the cache line");
  static_assert(alignof(FramePool::Slot) == queue::kCacheLine,
                "slots must be cache-line aligned");
  const FrameHandle h0 = pool.acquire();
  const FrameHandle h1 = pool.acquire();
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&pool.at(h0)) %
                queue::kCacheLine,
            0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&pool.at(h1)) %
                queue::kCacheLine,
            0u);
  pool.release(h0);
  pool.release(h1);
}

TEST(FramePool, OwnsOneArenaSegmentAndDestroysItWithThePool) {
  queue::ShmArena arena;
  const std::size_t before = arena.segment_count();
  {
    FramePool pool(arena, 16);
    EXPECT_EQ(arena.segment_count(), before + 1);
    EXPECT_NE(pool.segment(), queue::kInvalidSegment);
    EXPECT_FALSE(arena.attach(pool.segment()).empty());
  }
  // shmctl(IPC_RMID) at teardown: the segment is gone with the pool.
  EXPECT_EQ(arena.segment_count(), before);
}

TEST(FramePoolStress, TwoThreadRxTxPipelineConservesSlots) {
  // The deployment regime of DESIGN.md §12: one acquiring endpoint (RX)
  // writes frames and passes 32-bit handles through an SPSC ring; one
  // releasing endpoint (TX) reads each frame and recycles its slot. This is
  // the ring/pool stress test the CI TSan job runs.
  constexpr std::uint64_t kFrames = 20'000;
  queue::ShmArena arena;
  FramePool pool(arena, 64);
  queue::SpscRing<FrameHandle> ring(64);

  std::uint64_t tx_sum = 0, tx_count = 0;
  std::thread tx([&] {
    while (tx_count < kFrames) {
      if (const auto h = ring.try_pop()) {
        pool.prefetch(*h);
        tx_sum += pool.at(*h).id;
        pool.release(*h);
        ++tx_count;
      } else {
        std::this_thread::yield();  // don't burn the peer's quantum
      }
    }
  });

  std::uint64_t rx_sent = 0;
  while (rx_sent < kFrames) {
    const FrameHandle h = pool.acquire();
    if (h == kInvalidFrameHandle) {
      std::this_thread::yield();  // TX hasn't recycled yet
      continue;
    }
    pool.at(h).id = rx_sent;
    if (ring.try_push(h)) {
      ++rx_sent;
    } else {
      pool.release(h);  // ring full: give the slot back and retry
      std::this_thread::yield();
    }
  }
  tx.join();

  EXPECT_EQ(tx_count, kFrames);
  EXPECT_EQ(tx_sum, kFrames * (kFrames - 1) / 2);
  EXPECT_EQ(pool.in_flight(), 0u);
  EXPECT_EQ(pool.acquired_total(), pool.released_total());
}

TEST(FramePoolStress, ShedChurnReleasesEverySlotUnderMixedDropAndForward) {
  // The overload regime of DESIGN.md §13: under shedding, a large fraction
  // of acquired slots are released on a DROP path (admission reject, sampled
  // shed, watermark shed) rather than the TX completion path, and the pool
  // runs near exhaustion the whole time. Drop-side releases and acquire
  // retries must stay race-free and conserve every slot.
  constexpr std::uint64_t kFrames = 20'000;
  queue::ShmArena arena;
  FramePool pool(arena, 32);  // small: constant exhaustion churn
  queue::SpscRing<FrameHandle> ring(32);

  std::uint64_t forwarded = 0, shed = 0;
  std::thread consumer([&] {
    // Deterministic xorshift so the shed pattern is reproducible.
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    while (forwarded + shed < kFrames) {
      if (const auto h = ring.try_pop()) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if (x % 4 == 0) {
          pool.release(*h);  // shed: drop without reading the frame
          ++shed;
        } else {
          forwarded += pool.at(*h).id ? 1 : 1;
          pool.release(*h);
        }
      } else {
        std::this_thread::yield();
      }
    }
  });

  std::uint64_t sent = 0, exhausted = 0;
  while (sent < kFrames) {
    const FrameHandle h = pool.acquire();
    if (h == kInvalidFrameHandle) {
      ++exhausted;  // the overload path: admission would reject here
      std::this_thread::yield();
      continue;
    }
    pool.at(h).id = sent + 1;
    if (ring.try_push(h)) {
      ++sent;
    } else {
      pool.release(h);
      std::this_thread::yield();
    }
  }
  consumer.join();

  EXPECT_EQ(forwarded + shed, kFrames);
  EXPECT_GT(shed, 0u);
  EXPECT_EQ(pool.in_flight(), 0u);
  EXPECT_EQ(pool.acquired_total(), pool.released_total());
}

}  // namespace
}  // namespace lvrm::net
