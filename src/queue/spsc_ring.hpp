// spsc_ring.hpp — Lamport-style lock-free single-producer/single-consumer ring.
//
// This is the thesis' IPC queue (Sec 3.5): the producer and consumer may run
// concurrently "so long as they do not access the same queue entry", with no
// locks — correctness follows Lamport's classic proof for a single producer
// and single consumer. Each LVRM<->VRI pair owns exactly one direction of one
// ring, so the SPSC restriction holds by construction.
//
// Implementation notes (the CP.free "only when you have to" case — this is a
// hot per-frame path shared between two pinned processes):
//   * head_ is written only by the consumer, tail_ only by the producer.
//   * acquire/release pairs order payload writes against index publication.
//   * indices monotonically increase and are masked on use, so full/empty are
//     distinguishable without wasting a slot (capacity entries usable).
//   * both indices live on their own cache line to avoid false sharing (the
//     cache-optimized refinement of FastForward/MCRingBuffer cited as [17,24]).
//   * each endpoint keeps a private *cache* of the peer's index on its own
//     line and refreshes it from the shared atomic only when the cache says
//     "apparently full/empty" — so a push usually touches no consumer-owned
//     line at all, and a pop no producer-owned line (the same trick
//     MCRingBuffer applies to its batched publication).
//   * try_push_batch/try_pop_batch move a whole burst per acquire/release
//     pair, amortizing the coherence traffic the per-frame hop otherwise
//     pays once per element.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <utility>

namespace lvrm::queue {

// Destructive-interference granularity. Pinned to 64 rather than taken from
// std::hardware_destructive_interference_size: the library constant varies
// with -mtune (GCC warns about exactly that under -Winterference-size), and
// ring layouts are part of the shm protocol, so the padding must not change
// between builds. 64 B is the L1 line of every x86-64 and aarch64 part the
// thesis targets; the static_asserts on the padded index structs below keep
// this honest.
inline constexpr std::size_t kCacheLine = 64;

template <typename T>
class SpscRing {
 public:
  /// `capacity` is rounded up to a power of two (minimum 2).
  explicit SpscRing(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    capacity_ = cap;
    mask_ = cap - 1;
    slots_ = std::make_unique<T[]>(cap);
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Producer side. Returns false when the ring is full. Reads the shared
  /// head only when the cached copy says the ring is apparently full.
  bool try_push(T value) {
    const std::uint64_t tail = prod_.tail.load(std::memory_order_relaxed);
    if (tail - prod_.head_cache >= capacity_) {
      prod_.head_cache = cons_.head.load(std::memory_order_acquire);
      if (tail - prod_.head_cache >= capacity_) return false;
    }
    slots_[tail & mask_] = std::move(value);
    prod_.tail.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Producer side: pushes up to `n` items from `items[0..n)` (moved-from on
  /// success) in FIFO order and returns how many were accepted — fewer than
  /// `n` iff the ring filled up (partial push). One refresh of the cached
  /// head at most and exactly one release publication for the whole burst.
  std::size_t try_push_batch(T* items, std::size_t n) {
    const std::uint64_t tail = prod_.tail.load(std::memory_order_relaxed);
    std::uint64_t free = capacity_ - (tail - prod_.head_cache);
    if (free < n) {
      prod_.head_cache = cons_.head.load(std::memory_order_acquire);
      free = capacity_ - (tail - prod_.head_cache);
    }
    const std::size_t k = static_cast<std::size_t>(
        std::min<std::uint64_t>(n, free));
    // Masked per-slot moves beat a two-chunk split here: the chunk loops
    // become memmove libcalls whose fixed cost exceeds a burst's worth of
    // inline moves at typical batch sizes.
    for (std::size_t i = 0; i < k; ++i)
      slots_[(tail + i) & mask_] = std::move(items[i]);
    if (k > 0) prod_.tail.store(tail + k, std::memory_order_release);
    return k;
  }

  /// Consumer side. Returns nullopt when the ring is empty. Reads the shared
  /// tail only when the cached copy says the ring is apparently empty.
  std::optional<T> try_pop() {
    const std::uint64_t head = cons_.head.load(std::memory_order_relaxed);
    if (head == cons_.tail_cache) {
      cons_.tail_cache = prod_.tail.load(std::memory_order_acquire);
      if (head == cons_.tail_cache) return std::nullopt;
    }
    T value = std::move(slots_[head & mask_]);
    cons_.head.store(head + 1, std::memory_order_release);
    return value;
  }

  /// Consumer side: pops up to `n` items into `out[0..n)` in FIFO order and
  /// returns how many were taken — fewer than `n` iff the ring drained
  /// (partial pop). One refresh of the cached tail at most and exactly one
  /// release of the consumed slots for the whole burst.
  std::size_t try_pop_batch(T* out, std::size_t n) {
    const std::uint64_t head = cons_.head.load(std::memory_order_relaxed);
    std::uint64_t avail = cons_.tail_cache - head;
    if (avail < n) {
      cons_.tail_cache = prod_.tail.load(std::memory_order_acquire);
      avail = cons_.tail_cache - head;
    }
    const std::size_t k = static_cast<std::size_t>(
        std::min<std::uint64_t>(n, avail));
    for (std::size_t i = 0; i < k; ++i)
      out[i] = std::move(slots_[(head + i) & mask_]);
    if (k > 0) cons_.head.store(head + k, std::memory_order_release);
    return k;
  }

  /// Approximate occupancy. May be called from the CONSUMER endpoint only
  /// (the endpoint that reads depths in LVRM: JSQ load estimation and the
  /// health probes): the consumer is the sole writer of head_, so a relaxed
  /// load of its own index suffices; only the producer's tail_ needs acquire
  /// to observe the latest publication. The result is exact at the call and
  /// can only under-count concurrent pushes (never phantom entries). The
  /// producer must derive occupancy from its own accepted-push count.
  std::size_t size_approx() const {
    const std::uint64_t head = cons_.head.load(std::memory_order_relaxed);
    const std::uint64_t tail = prod_.tail.load(std::memory_order_acquire);
    return static_cast<std::size_t>(tail - head);
  }

  bool empty_approx() const { return size_approx() == 0; }
  std::size_t capacity() const { return capacity_; }

 private:
  // Owner-grouped index blocks: each endpoint's shared index and its private
  // cache of the peer's index share one line, padded to a full line so the
  // two endpoints never false-share (cache-line hygiene, DESIGN.md §12).
  struct alignas(kCacheLine) ConsumerSide {
    std::atomic<std::uint64_t> head{0};
    std::uint64_t tail_cache = 0;
  };
  struct alignas(kCacheLine) ProducerSide {
    std::atomic<std::uint64_t> tail{0};
    std::uint64_t head_cache = 0;
  };
  static_assert(sizeof(ConsumerSide) == kCacheLine &&
                    alignof(ConsumerSide) == kCacheLine,
                "consumer indices must own exactly one cache line");
  static_assert(sizeof(ProducerSide) == kCacheLine &&
                    alignof(ProducerSide) == kCacheLine,
                "producer indices must own exactly one cache line");

  std::size_t capacity_ = 0;
  std::size_t mask_ = 0;
  std::unique_ptr<T[]> slots_;

  ConsumerSide cons_;
  ProducerSide prod_;
};

}  // namespace lvrm::queue
