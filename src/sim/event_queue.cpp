#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace lvrm::sim {

EventId EventQueue::insert(Nanos at, std::uint64_t seq, Callback&& cb) {
  if (free_.empty()) grow();
  const std::uint32_t idx = free_.back();
  heap_.push_back(Entry{{at, seq}, idx});  // the only step here that can throw
  free_.pop_back();
  Slot& s = slot(idx);
  s.cb = std::move(cb);
  s.seq = seq;
  ++live_;
  sift_up(heap_.size() - 1, heap_.back());
  return make_id(seq, idx);
}

void EventQueue::cancel(EventId id) {
  const auto idx =
      static_cast<std::uint32_t>(id & ((EventId{1} << kSlotBits) - 1));
  if (idx >= chunks_.size() * kChunkSlots) return;
  Slot& s = slot(idx);
  if (s.seq == 0 || make_id(s.seq, idx) != id) return;
  s.seq = 0;
  --live_;
  ++dead_;
  // The slot joins the free list only after the callback is gone, so a
  // destructor that schedules events cannot be handed this slot.
  s.cb.reset();
  free_.push_back(idx);
  if (dead_ > live_) compact();
}

Nanos EventQueue::next_time() {
  assert(!empty());
  drop_dead_top();
  return heap_.front().key.at;
}

EventQueue::Fired EventQueue::pop() {
  assert(!empty());
  drop_dead_top();
  const Entry top = heap_.front();
  pop_top();
  Slot& s = slot(top.slot);
  cursor_ = top.key;
  Fired fired{top.key.at, make_id(top.key.seq, top.slot), std::move(s.cb)};
  s.seq = 0;
  --live_;
  free_.push_back(top.slot);
  return fired;
}

void EventQueue::fire_next(Nanos& clock) {
  assert(!empty());
  drop_dead_top();
  const Entry top = heap_.front();
  pop_top();
  Slot& s = slot(top.slot);
  s.seq = 0;
  --live_;
  cursor_ = top.key;
  clock = std::max(clock, top.key.at);
  // Chunks never move, so `s` stays valid while the callback grows the slab;
  // the slot is released once the call returns or throws.
  struct Release {
    EventQueue& q;
    Slot& s;
    std::uint32_t idx;
    ~Release() {
      s.cb.reset();
      q.free_.push_back(idx);  // never reallocates: grow() reserved it
    }
  } release{*this, s, top.slot};
  s.cb();
}

void EventQueue::grow() {
  const std::size_t base = chunks_.size() * kChunkSlots;
  if (base + kChunkSlots > (std::size_t{1} << kSlotBits))
    throw std::length_error("EventQueue: too many pending events");
  chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
  free_.reserve(base + kChunkSlots);
  for (std::uint32_t i = kChunkSlots; i-- > 0;)
    free_.push_back(static_cast<std::uint32_t>(base) + i);
}

void EventQueue::pop_top() {
  const Entry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0, last);
}

void EventQueue::drop_dead_top() {
  while (!live(heap_.front())) {
    pop_top();
    --dead_;
  }
}

void EventQueue::sift_up(std::size_t hole, Entry e) {
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / kArity;
    if (!before(e, heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = e;
}

void EventQueue::sift_down(std::size_t hole, Entry e) {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = kArity * hole + 1;
    if (first >= n) break;
    const std::size_t end = std::min(first + kArity, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c)
      if (before(heap_[c], heap_[best])) best = c;
    if (!before(heap_[best], e)) break;
    heap_[hole] = heap_[best];
    hole = best;
  }
  heap_[hole] = e;
}

void EventQueue::compact() {
  std::erase_if(heap_, [this](const Entry& e) { return !live(e); });
  dead_ = 0;
  // Floyd's bottom-up build. The pop order is the total order on
  // (time, seq), so rebuilding cannot change which event fires next.
  if (heap_.size() > 1)
    for (std::size_t i = (heap_.size() - 2) / kArity + 1; i-- > 0;)
      sift_down(i, heap_[i]);
}

}  // namespace lvrm::sim
