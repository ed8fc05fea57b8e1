// mpmc_link.hpp — cache-line-segmented multi-producer/multi-consumer ring.
//
// The IPC fabric's virtual link (DESIGN.md §17): where the SPSC mesh needs
// O(shards × VRIs) rings, one MpmcLink per VRI (ingress) or per home shard
// (TX drain) carries frames from *all* producers to *any* consumer, which
// is what makes idle-VRI stealing possible at all. The design follows the
// Virtual-Link / rte_ring family:
//
//   * Two counters per side, each on its own cache line: a CLAIM counter
//     producers (consumers) race on with CAS, and a PUBLISH counter that
//     makes claimed slots visible to the other side.
//   * A producer claims a contiguous run of slots with one CAS on
//     `prod_claim`, fills them racing nobody (per-producer claimed slots),
//     then waits for earlier claimants to publish and issues exactly ONE
//     release store over its whole burst — the same single-publication
//     batching discipline as SpscRing::try_push_batch.
//   * Consumers mirror the scheme on `cons_claim`/`cons_pub`, so a burst
//     pop is likewise one CAS + one release store.
//
// The claim/publish split means the expensive part (slot copies) runs
// fully in parallel across producers; only the in-order publication
// serializes, and it serializes on a wait bounded by the peer's burst copy,
// not by a lock. Progress: a claimant spins only on claimants *ahead* of
// it, which are themselves copying a bounded burst, so the wait is
// wait-free-bounded in practice though not formally lock-free.
//
// API mirrors SpscRing (try_push/try_pop, try_push_batch/try_pop_batch,
// size_approx, capacity) so call sites and benches can swap the families.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>

#include "queue/spsc_ring.hpp"  // kCacheLine

namespace lvrm::queue {

template <typename T>
class MpmcLink {
 public:
  /// `capacity` is rounded up to a power of two (minimum 2).
  explicit MpmcLink(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    capacity_ = cap;
    mask_ = cap - 1;
    slots_ = std::make_unique<T[]>(cap);
  }

  MpmcLink(const MpmcLink&) = delete;
  MpmcLink& operator=(const MpmcLink&) = delete;

  /// Any-producer push of up to `n` items in FIFO order (moved-from on
  /// success). Returns how many were accepted — fewer than `n` iff the link
  /// filled up. One CAS to claim the run, parallel slot fills, and exactly
  /// one release publication for the whole burst.
  std::size_t try_push_batch(T* items, std::size_t n) {
    std::uint64_t start;
    std::size_t k;
    std::uint64_t claim = prod_.claim.load(std::memory_order_relaxed);
    for (;;) {
      const std::uint64_t consumed =
          cons_.pub.load(std::memory_order_acquire);
      const std::uint64_t free = capacity_ - (claim - consumed);
      k = static_cast<std::size_t>(std::min<std::uint64_t>(n, free));
      if (k == 0) return 0;
      if (prod_.claim.compare_exchange_weak(claim, claim + k,
                                            std::memory_order_relaxed,
                                            std::memory_order_relaxed)) {
        start = claim;
        break;
      }
      // CAS failure reloaded `claim`; re-derive free space and retry.
    }
    for (std::size_t i = 0; i < k; ++i)
      slots_[(start + i) & mask_] = std::move(items[i]);
    // In-order publication: wait for every earlier claimant's single store,
    // then publish this burst with one release store. The wait must acquire:
    // a consumer that acquires this store reads the earlier claimants' slots
    // too, and only this acquire orders their fills before our store.
    while (prod_.pub.load(std::memory_order_acquire) != start) spin_pause();
    prod_.pub.store(start + k, std::memory_order_release);
    return k;
  }

  /// Any-producer single push. Returns false when the link is full.
  bool try_push(T value) { return try_push_batch(&value, 1) == 1; }

  /// Any-consumer pop of up to `n` items into `out[0..n)` in FIFO order.
  /// Returns how many were taken — fewer than `n` iff the link drained.
  /// Mirrors the producer side: one CAS, parallel moves, one release store.
  std::size_t try_pop_batch(T* out, std::size_t n) {
    std::uint64_t start;
    std::size_t k;
    std::uint64_t claim = cons_.claim.load(std::memory_order_relaxed);
    for (;;) {
      const std::uint64_t published =
          prod_.pub.load(std::memory_order_acquire);
      const std::uint64_t avail = published - claim;
      k = static_cast<std::size_t>(std::min<std::uint64_t>(n, avail));
      if (k == 0) return 0;
      if (cons_.claim.compare_exchange_weak(claim, claim + k,
                                            std::memory_order_relaxed,
                                            std::memory_order_relaxed)) {
        start = claim;
        break;
      }
    }
    for (std::size_t i = 0; i < k; ++i)
      out[i] = std::move(slots_[(start + i) & mask_]);
    // Retire in claim order so a producer never overwrites a slot a slower
    // consumer is still reading; the wait acquires for the same reason as
    // the producer's.
    while (cons_.pub.load(std::memory_order_acquire) != start) spin_pause();
    cons_.pub.store(start + k, std::memory_order_release);
    return k;
  }

  /// Any-consumer single pop. Returns nullopt when the link is empty.
  std::optional<T> try_pop() {
    T value;
    if (try_pop_batch(&value, 1) != 1) return std::nullopt;
    return value;
  }

  /// Approximate occupancy (published, unconsumed entries). Racy by nature;
  /// exact only when both sides are quiescent.
  std::size_t size_approx() const {
    const std::uint64_t consumed = cons_.pub.load(std::memory_order_acquire);
    const std::uint64_t published = prod_.pub.load(std::memory_order_acquire);
    return static_cast<std::size_t>(published - consumed);
  }

  bool empty_approx() const { return size_approx() == 0; }
  std::size_t capacity() const { return capacity_; }

 private:
  static void spin_pause() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#else
    std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
  }

  // Each counter owns a full cache line: producers ping-pong the producer
  // pair among themselves and consumers the consumer pair, but neither side
  // drags the other's lines around on its fast path (claim CAS + fill).
  struct alignas(kCacheLine) Side {
    std::atomic<std::uint64_t> claim{0};
    char pad_[kCacheLine - sizeof(std::atomic<std::uint64_t>)];
    std::atomic<std::uint64_t> pub{0};
  };
  static_assert(sizeof(Side) == 2 * kCacheLine,
                "claim and publish counters must own one cache line each");

  std::size_t capacity_ = 0;
  std::size_t mask_ = 0;
  std::unique_ptr<T[]> slots_;

  Side prod_;
  Side cons_;
};

}  // namespace lvrm::queue
