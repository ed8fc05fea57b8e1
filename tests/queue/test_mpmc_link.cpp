// Tests for the MPMC virtual link (DESIGN.md §17) — the fabric ring that
// replaces the O(shards × VRIs) SPSC mesh. Like test_spsc_ring.cpp, the
// multi-producer / multi-consumer stress tests here run real threads (and
// run under tsan in CI): this is concurrency exercised natively, not under
// the simulator.
#include "queue/mpmc_link.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

namespace lvrm::queue {
namespace {

TEST(MpmcLink, SingleThreadFifo) {
  MpmcLink<int> link(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(link.try_push(i));
  for (int i = 0; i < 5; ++i) {
    const auto v = link.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(link.try_pop().has_value());
}

TEST(MpmcLink, CapacityRoundsUpToPowerOfTwo) {
  MpmcLink<int> link(5);
  EXPECT_EQ(link.capacity(), 8u);
  MpmcLink<int> exact(8);
  EXPECT_EQ(exact.capacity(), 8u);
  MpmcLink<int> tiny(0);
  EXPECT_EQ(tiny.capacity(), 2u);
}

TEST(MpmcLink, FullLinkRejectsPush) {
  MpmcLink<int> link(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(link.try_push(i));
  EXPECT_FALSE(link.try_push(99));  // every capacity slot usable, then full
  ASSERT_TRUE(link.try_pop().has_value());
  EXPECT_TRUE(link.try_push(99));
}

TEST(MpmcLink, SizeApprox) {
  MpmcLink<int> link(8);
  EXPECT_TRUE(link.empty_approx());
  link.try_push(1);
  link.try_push(2);
  EXPECT_EQ(link.size_approx(), 2u);
  link.try_pop();
  EXPECT_EQ(link.size_approx(), 1u);
}

TEST(MpmcLink, PartialBurstPushAcceptsWhatFits) {
  MpmcLink<int> link(4);
  int items[6] = {0, 1, 2, 3, 4, 5};
  // Only 4 slots: the burst is truncated, not rejected outright.
  EXPECT_EQ(link.try_push_batch(items, 6), 4u);
  int out[6] = {};
  EXPECT_EQ(link.try_pop_batch(out, 6), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(out[i], i);
}

TEST(MpmcLink, PartialBurstPopDrainsWhatIsThere) {
  MpmcLink<int> link(8);
  int items[3] = {7, 8, 9};
  ASSERT_EQ(link.try_push_batch(items, 3), 3u);
  int out[8] = {};
  EXPECT_EQ(link.try_pop_batch(out, 8), 3u);
  EXPECT_EQ(out[0], 7);
  EXPECT_EQ(out[1], 8);
  EXPECT_EQ(out[2], 9);
  EXPECT_EQ(link.try_pop_batch(out, 8), 0u);
}

TEST(MpmcLink, WraparoundPreservesFifoAcrossManyCycles) {
  MpmcLink<std::uint32_t> link(8);
  std::uint32_t next_in = 0, next_out = 0;
  // Push/pop in mismatched burst sizes for many times the capacity so the
  // indices wrap repeatedly and straddle the ring edge mid-burst.
  std::uint32_t buf[5];
  std::uint32_t out[7];
  for (std::uint32_t round = 0; round < 1000; ++round) {
    const std::uint32_t n = 1 + (round % 5);
    for (std::uint32_t i = 0; i < n; ++i) buf[i] = next_in + i;
    next_in += static_cast<std::uint32_t>(link.try_push_batch(buf, n));
    const std::size_t m = link.try_pop_batch(out, 1 + (round % 7));
    for (std::size_t i = 0; i < m; ++i) ASSERT_EQ(out[i], next_out + i);
    next_out += static_cast<std::uint32_t>(m);
  }
  while (const auto v = link.try_pop()) ASSERT_EQ(*v, next_out++);
  EXPECT_EQ(next_in, next_out);
}

// --- multi-threaded stress ------------------------------------------------
//
// Each producer pushes a tagged ascending sequence (tag in the high bits,
// sequence in the low bits). The checks afterwards are the §17 correctness
// properties: (1) conservation — every pushed value arrives exactly once,
// (2) per-producer FIFO — any consumer's view of one producer's values is
// ascending, which is exactly the guarantee the per-producer claimed
// segments are supposed to give.
void mpmc_stress(int producers, int consumers, std::size_t per_producer,
                 std::size_t capacity) {
  MpmcLink<std::uint64_t> link(capacity);
  std::atomic<std::size_t> popped{0};
  const std::size_t total = per_producer * static_cast<std::size_t>(producers);

  std::vector<std::vector<std::uint64_t>> seen(
      static_cast<std::size_t>(consumers));
  std::vector<std::thread> threads;
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&link, p, per_producer] {
      std::uint64_t buf[16];
      std::size_t sent = 0;
      while (sent < per_producer) {
        const std::size_t n = std::min<std::size_t>(16, per_producer - sent);
        for (std::size_t i = 0; i < n; ++i)
          buf[i] = (static_cast<std::uint64_t>(p) << 32) | (sent + i);
        const std::size_t k = link.try_push_batch(buf, n);
        sent += k;
        if (k == 0) std::this_thread::yield();
      }
    });
  }
  for (int c = 0; c < consumers; ++c) {
    threads.emplace_back([&link, &popped, &seen, c, total] {
      std::uint64_t out[16];
      while (popped.load(std::memory_order_relaxed) < total) {
        const std::size_t k = link.try_pop_batch(out, 16);
        if (k == 0) {
          std::this_thread::yield();
          continue;
        }
        popped.fetch_add(k, std::memory_order_relaxed);
        auto& mine = seen[static_cast<std::size_t>(c)];
        mine.insert(mine.end(), out, out + k);
      }
    });
  }
  for (auto& t : threads) t.join();

  // Conservation: every (producer, seq) pair exactly once across consumers.
  std::vector<std::vector<int>> counts(
      static_cast<std::size_t>(producers),
      std::vector<int>(per_producer, 0));
  for (const auto& mine : seen) {
    // Per-producer FIFO within one consumer's pop order.
    std::vector<std::uint64_t> last(static_cast<std::size_t>(producers), 0);
    std::vector<bool> any(static_cast<std::size_t>(producers), false);
    for (const std::uint64_t v : mine) {
      const auto p = static_cast<std::size_t>(v >> 32);
      const std::uint64_t s = v & 0xffffffffu;
      ASSERT_LT(p, static_cast<std::size_t>(producers));
      ASSERT_LT(s, per_producer);
      if (any[p]) {
        ASSERT_GT(s, last[p]) << "per-producer FIFO violated";
      }
      any[p] = true;
      last[p] = s;
      ++counts[p][static_cast<std::size_t>(s)];
    }
  }
  for (int p = 0; p < producers; ++p)
    for (std::size_t s = 0; s < per_producer; ++s)
      ASSERT_EQ(counts[static_cast<std::size_t>(p)][s], 1)
          << "value (" << p << ", " << s << ") lost or duplicated";
}

TEST(MpmcLinkStress, TwoProducersOneConsumer) { mpmc_stress(2, 1, 20000, 64); }

TEST(MpmcLinkStress, OneProducerTwoConsumers) { mpmc_stress(1, 2, 20000, 64); }

TEST(MpmcLinkStress, FourByFour) { mpmc_stress(4, 4, 10000, 128); }

TEST(MpmcLinkStress, EightThreadsTinyRing) {
  // A 4-slot ring under 4+4 threads maximizes wraparound and claim
  // contention — the hardest case for the in-order publication protocol.
  mpmc_stress(4, 4, 5000, 4);
}

TEST(MpmcLinkStress, SingleItemPushers) {
  // Burst size 1 from every side: the claim CAS degenerates to the classic
  // MPMC counter race; FIFO and conservation must still hold.
  MpmcLink<std::uint64_t> link(32);
  constexpr int kProducers = 4;
  constexpr std::uint64_t kPer = 10000;
  std::atomic<std::uint64_t> sum{0};
  std::atomic<std::size_t> popped{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&link, p] {
      for (std::uint64_t s = 0; s < kPer; ++s) {
        while (!link.try_push((static_cast<std::uint64_t>(p) << 32) | s))
          std::this_thread::yield();
      }
    });
  }
  for (int c = 0; c < 2; ++c) {
    threads.emplace_back([&link, &sum, &popped] {
      while (popped.load(std::memory_order_relaxed) < kProducers * kPer) {
        const auto v = link.try_pop();
        if (!v) {
          std::this_thread::yield();
          continue;
        }
        sum.fetch_add(*v & 0xffffffffu, std::memory_order_relaxed);
        popped.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : threads) t.join();
  // Sum of 0..kPer-1 per producer — catches lost or duplicated values.
  EXPECT_EQ(sum.load(), kProducers * (kPer * (kPer - 1) / 2));
}

}  // namespace
}  // namespace lvrm::queue
