// queue.hpp — bounded FIFO used as NIC rings and (simulated) IPC queues.
//
// This is the *simulation-side* queue: a passive bounded buffer with drop
// accounting and an observer hook that wakes the consuming PollServer. The
// real lock-free SPSC ring that the thesis ships between processes lives in
// src/queue/spsc_ring.hpp; inside the simulator, process placement is virtual
// so a single-threaded ring with the same FIFO/bounded semantics stands in
// for it while queue *lengths*, drops and priorities behave identically.
//
// Items live in a power-of-two ring that starts empty and doubles when it
// fills below capacity. The ring is a table of fixed-size segments, each
// allocated when the tail first reaches it, so growing moves segment
// pointers and at most one segment's items, and touches no more fresh
// memory than the new items need. A queue's memory follows its high-water
// mark and, once that is reached, pushes and pops allocate nothing
// (DESIGN.md §9). An item lives from its push to its pop, as in a deque.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/units.hpp"

namespace lvrm::sim {

template <typename T>
class BoundedQueue {
  static_assert(std::is_nothrow_move_constructible_v<T>);

 public:
  /// Items per segment, and so the ring slots the first push allocates.
  /// Four keeps a FrameMeta segment at 576 B, a size the allocator
  /// recycles cheaply: 16-item (2.3 KB) segments cost ~40 host ns more per
  /// frame in a bench_hotpath poll section that preloaded 50k frames into
  /// one queue.
  static constexpr std::size_t kSegmentSlots = 4;

  explicit BoundedQueue(std::size_t capacity, std::string name = {})
      : capacity_(capacity), name_(std::move(name)) {}
  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;
  ~BoundedQueue() {
    clear();
    for (T* segment : segments_)
      if (segment != nullptr)
        std::allocator<T>().deallocate(segment, kSegmentSlots);
  }

  /// Attempts to enqueue; returns false (and counts a drop) when full.
  bool push(T item) {
    if (size_ >= capacity_) {
      ++drops_;
      return false;
    }
    if (size_ == slots()) grow();
    const std::size_t pos = (head_ + size_) & (slots() - 1);
    T*& segment = segments_[pos / kSegmentSlots];
    if (segment == nullptr)
      segment = std::allocator<T>().allocate(kSegmentSlots);
    const bool was_empty = size_ == 0;
    std::construct_at(segment + pos % kSegmentSlots, std::move(item));
    ++size_;
    ++enqueued_;
    if (was_empty && on_nonempty_) on_nonempty_();
    return true;
  }

  /// Pops the head; only valid when !empty().
  T pop() {
    T* head = slot(head_);
    T item = std::move(*head);
    std::destroy_at(head);
    head_ = (head_ + 1) & (slots() - 1);
    --size_;
    ++dequeued_;
    return item;
  }

  /// Peeks at the head without removing it; only valid when !empty().
  const T& front() const { return *slot(head_); }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }

  std::uint64_t drops() const { return drops_; }
  std::uint64_t enqueued() const { return enqueued_; }
  std::uint64_t dequeued() const { return dequeued_; }

  const std::string& name() const { return name_; }

  /// Registers the wake-up hook invoked when the queue transitions from
  /// empty to non-empty (at most one observer; the consuming server).
  void set_observer(std::function<void()> fn) { on_nonempty_ = std::move(fn); }

  void clear() {
    for (; size_ > 0; --size_) {
      std::destroy_at(slot(head_));
      head_ = (head_ + 1) & (slots() - 1);
    }
  }

 private:
  std::size_t slots() const { return segments_.size() * kSegmentSlots; }
  T* slot(std::size_t pos) const {
    return segments_[pos / kSegmentSlots] + pos % kSegmentSlots;
  }

  /// Doubles the ring, which is full (so it holds fewer than capacity_
  /// items). The table is unrolled so the head's segment comes first, and
  /// the segments keep their items — except in a full ring whose head sits
  /// mid-segment: that segment also holds the newest items, below the
  /// head's offset, and those move to a fresh segment after the old ones.
  void grow() {
    const std::size_t n = segments_.size();
    std::vector<T*> table(n == 0 ? 1 : 2 * n, nullptr);
    const std::size_t first = head_ / kSegmentSlots;
    const std::size_t offset = head_ % kSegmentSlots;
    for (std::size_t i = 0; i < n; ++i)
      table[i] = segments_[(first + i) & (n - 1)];
    if (offset > 0) {
      T* wrapped = std::allocator<T>().allocate(kSegmentSlots);
      std::uninitialized_move(table[0], table[0] + offset, wrapped);
      std::destroy(table[0], table[0] + offset);
      table[n] = wrapped;
    }
    segments_.swap(table);
    head_ = offset;
  }

  std::size_t capacity_;
  std::string name_;
  // The ring: a power-of-two table of kSegmentSlots-item segments, each
  // allocated when the tail first reaches it. Ring position p is slot
  // p % kSegmentSlots of segment p / kSegmentSlots; the size_ items from
  // head_ onwards are live.
  std::vector<T*> segments_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::uint64_t drops_ = 0;
  std::uint64_t enqueued_ = 0;
  std::uint64_t dequeued_ = 0;
  std::function<void()> on_nonempty_;
};

}  // namespace lvrm::sim
