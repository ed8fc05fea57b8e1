// mc_ring.hpp — MCRingBuffer-style batched-index SPSC ring.
//
// This is the thesis' reference [24]: Lee, Bu & Chandranmenon, "A Lock-Free,
// Cache-Efficient Multi-Core Synchronization Mechanism for Line-Rate Network
// Traffic Monitoring" (IPDPS'10) — by the thesis' own supervisor.
//
// MCRingBuffer reduces cache-line bouncing over a Lamport ring in two ways:
//   * control variables are grouped by owner on separate cache lines (as in
//     SpscRing), and
//   * the shared indices are only published every `batch` operations; in
//     between, each endpoint works against a private snapshot of the other's
//     index. A producer therefore invalidates the consumer's cached copy of
//     `tail` once per batch rather than once per element.
//
// The visible cost: up to batch-1 pushed elements may be momentarily
// invisible to the consumer until the producer publishes (flush() forces
// publication, used at shutdown/idle).
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
class McRingBuffer {
 public:
  explicit McRingBuffer(std::size_t capacity, std::size_t batch = 8) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    capacity_ = cap;
    mask_ = cap - 1;
    batch_ = batch < 1 ? 1 : batch;
    slots_ = std::make_unique<T[]>(cap);
  }

  McRingBuffer(const McRingBuffer&) = delete;
  McRingBuffer& operator=(const McRingBuffer&) = delete;

  bool try_push(T value) {
    // Check against the private snapshot first; refresh it from the shared
    // head only when the snapshot says "full" (one expensive read amortized
    // over many pushes).
    if (prod_.local_tail - prod_.head_snapshot >= capacity_) {
      prod_.head_snapshot = head_.value.load(std::memory_order_acquire);
      if (prod_.local_tail - prod_.head_snapshot >= capacity_) return false;
    }
    slots_[prod_.local_tail & mask_] = std::move(value);
    ++prod_.local_tail;
    if (prod_.local_tail - prod_.published_tail >= batch_) publish_tail();
    return true;
  }

  std::optional<T> try_pop() {
    if (cons_.local_head == cons_.tail_snapshot) {
      cons_.tail_snapshot = tail_.value.load(std::memory_order_acquire);
      if (cons_.local_head == cons_.tail_snapshot) return std::nullopt;
    }
    T value = std::move(slots_[cons_.local_head & mask_]);
    ++cons_.local_head;
    if (cons_.local_head - cons_.published_head >= batch_) publish_head();
    return value;
  }

  /// Producer-side batch push: up to `n` items from `items[0..n)` in FIFO
  /// order; returns the number accepted. Publishes the shared tail exactly
  /// once on return (a batch is a natural publication boundary), so the
  /// whole burst becomes visible to the consumer atomically.
  std::size_t try_push_batch(T* items, std::size_t n) {
    std::uint64_t free = capacity_ - (prod_.local_tail - prod_.head_snapshot);
    if (free < n) {
      prod_.head_snapshot = head_.value.load(std::memory_order_acquire);
      free = capacity_ - (prod_.local_tail - prod_.head_snapshot);
    }
    const std::size_t k =
        static_cast<std::size_t>(std::min<std::uint64_t>(n, free));
    for (std::size_t i = 0; i < k; ++i)
      slots_[(prod_.local_tail + i) & mask_] = std::move(items[i]);
    prod_.local_tail += k;
    if (k > 0) publish_tail();
    return k;
  }

  /// Consumer-side batch pop: up to `n` items into `out[0..n)`; returns the
  /// number taken. Releases the consumed slots to the producer exactly once
  /// on return.
  std::size_t try_pop_batch(T* out, std::size_t n) {
    std::uint64_t avail = cons_.tail_snapshot - cons_.local_head;
    if (avail < n) {
      cons_.tail_snapshot = tail_.value.load(std::memory_order_acquire);
      avail = cons_.tail_snapshot - cons_.local_head;
    }
    const std::size_t k =
        static_cast<std::size_t>(std::min<std::uint64_t>(n, avail));
    for (std::size_t i = 0; i < k; ++i)
      out[i] = std::move(slots_[(cons_.local_head + i) & mask_]);
    cons_.local_head += k;
    if (k > 0) publish_head();
    return k;
  }

  /// Producer-side: make all pushed elements visible now (idle/shutdown).
  void flush() { publish_tail(); }
  /// Consumer-side: release all consumed slots to the producer now.
  void flush_consumer() { publish_head(); }

  std::size_t capacity() const { return capacity_; }
  std::size_t batch() const { return batch_; }

 private:
  void publish_tail() {
    prod_.published_tail = prod_.local_tail;
    tail_.value.store(prod_.local_tail, std::memory_order_release);
  }
  void publish_head() {
    cons_.published_head = cons_.local_head;
    head_.value.store(cons_.local_head, std::memory_order_release);
  }

  // Owner-grouped control blocks, each padded to exactly one cache line
  // (MCRingBuffer's "control variables grouped by owner"; the static_asserts
  // keep the separation from silently regressing under refactoring).
  struct alignas(kCacheLine) SharedIndex {
    std::atomic<std::uint64_t> value{0};
  };
  struct alignas(kCacheLine) ProducerPrivate {
    std::uint64_t local_tail = 0;
    std::uint64_t published_tail = 0;
    std::uint64_t head_snapshot = 0;
  };
  struct alignas(kCacheLine) ConsumerPrivate {
    std::uint64_t local_head = 0;
    std::uint64_t published_head = 0;
    std::uint64_t tail_snapshot = 0;
  };
  static_assert(sizeof(SharedIndex) == kCacheLine &&
                    alignof(SharedIndex) == kCacheLine,
                "each shared index must own exactly one cache line");
  static_assert(sizeof(ProducerPrivate) == kCacheLine &&
                    alignof(ProducerPrivate) == kCacheLine,
                "producer-private block must own exactly one cache line");
  static_assert(sizeof(ConsumerPrivate) == kCacheLine &&
                    alignof(ConsumerPrivate) == kCacheLine,
                "consumer-private block must own exactly one cache line");

  std::size_t capacity_ = 0;
  std::size_t mask_ = 0;
  std::size_t batch_ = 1;
  std::unique_ptr<T[]> slots_;

  SharedIndex head_;  // consumer-owned
  SharedIndex tail_;  // producer-owned
  ProducerPrivate prod_;
  ConsumerPrivate cons_;
};

}  // namespace lvrm::queue
