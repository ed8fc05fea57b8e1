// event_queue.hpp — the discrete-event kernel: a slab of callback slots
// indexed by a 4-ary min-heap on (time, insertion seq).
//
// Pop order is the total order on (time, seq): ties at one instant fire in
// insertion order, so a run is deterministic whatever the heap's arity or
// layout. Each pending event owns one slab slot holding its Callback inline
// and its seq; once the slab and the heap have grown to a run's peak of
// standing events, scheduling and firing allocate nothing. Slots live in
// fixed-size chunks that never move, so a callback runs in place while it
// schedules more events and grows the slab.
//
// An EventId names a slot and the event's seq. cancel() frees the slot and
// destroys the callback at once; an id that has fired, was cancelled, or
// whose slot has since been reused no longer matches and is a no-op. The
// cancelled event's heap entry stays behind, dead: its seq no longer
// matches its slot. Dead entries are dropped when they reach the top, and
// the heap is compacted once they outnumber live ones.
//
// A component can take an event's seq before it schedules the event:
// reserve_seq() takes the seq a push would take now, and push_reserved()
// schedules with it later, at a key the cursor has not passed. The event
// then fires exactly where a push at reservation time would have. The
// cursor is the key of the last event fired or popped, and passed() tells
// whether the kernel has reached a key, so a component can apply the effect
// of an event it never scheduled once the kernel gets to that event's key
// (DESIGN.md §9).
#pragma once

#include <cassert>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/units.hpp"
#include "sim/callback.hpp"

namespace lvrm::sim {

using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

/// An event's place in the pop order: time, then insertion seq.
struct EventKey {
  Nanos at;
  std::uint64_t seq;
  friend bool operator<(const EventKey& a, const EventKey& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }
};

class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Enqueues `cb` to fire at absolute time `at`. Returns a handle usable
  /// with cancel().
  EventId push(Nanos at, Callback&& cb) {
    return insert(at, next_seq_++, std::move(cb));
  }

  /// Takes the insertion seq a push() would take now.
  std::uint64_t reserve_seq() { return next_seq_++; }

  /// Enqueues `cb` at key (at, seq), where `seq` came from reserve_seq()
  /// and the key is not passed(). It fires where a push() at the time of
  /// the reservation would have.
  EventId push_reserved(Nanos at, std::uint64_t seq, Callback&& cb) {
    assert(seq < next_seq_ && !passed(at, seq));
    return insert(at, seq, std::move(cb));
  }

  /// True once the kernel has reached key (at, seq): the cursor is at or
  /// after it.
  bool passed(Nanos at, std::uint64_t seq) const {
    return !(cursor_ < EventKey{at, seq});
  }

  /// Moves the cursor past every key at or before time `at` whose seq is
  /// already taken, unless it is already later. A seq taken afterwards, for
  /// an event at `at`, still lies ahead.
  void pass_through(Nanos at) {
    const EventKey end{at, next_seq_ - 1};
    if (cursor_ < end) cursor_ = end;
  }

  /// Cancels a pending event and destroys its callback; cancelling an
  /// already-fired, already-cancelled or invalid id is a harmless no-op.
  void cancel(EventId id);

  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }

  /// Earliest pending event time; only valid when !empty().
  Nanos next_time();

  /// Pops and returns the earliest live event, moving the cursor to its
  /// key. Only valid when !empty().
  struct Fired {
    Nanos at;
    EventId id;
    Callback cb;
  };
  Fired pop();

  /// Pops the earliest live event, moves the cursor to its key, advances
  /// `clock` to its time (never backwards) and runs its callback in its
  /// slot. The event counts as gone from the moment it is popped: during
  /// the call, size() excludes it and cancelling its id does nothing. Only
  /// valid when !empty().
  void fire_next(Nanos& clock);

 private:
  struct Entry {
    EventKey key;
    std::uint32_t slot;
  };

  struct alignas(64) Slot {
    Callback cb;
    std::uint64_t seq = 0;  // seq of the pending event; 0 while free or firing
  };

  static constexpr std::size_t kArity = 4;
  static constexpr unsigned kSlotBits = 24;  // EventId = seq << 24 | slot
  static constexpr std::uint32_t kChunkSlots = 256;

  static bool before(const Entry& a, const Entry& b) { return a.key < b.key; }
  static EventId make_id(std::uint64_t seq, std::uint32_t slot) {
    return seq << kSlotBits | slot;
  }

  Slot& slot(std::uint32_t idx) {
    return chunks_[idx / kChunkSlots][idx % kChunkSlots];
  }
  bool live(const Entry& e) { return slot(e.slot).seq == e.key.seq; }

  EventId insert(Nanos at, std::uint64_t seq, Callback&& cb);
  /// Adds one chunk of free slots.
  void grow();
  /// Removes the heap's top entry.
  void pop_top();
  /// Drops dead entries from the top until a live one is there.
  void drop_dead_top();
  /// Moves `e` from `hole` towards the root / the leaves until in order.
  void sift_up(std::size_t hole, Entry e);
  void sift_down(std::size_t hole, Entry e);
  /// Removes every dead entry and rebuilds the heap.
  void compact();

  std::vector<Entry> heap_;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<std::uint32_t> free_;  // LIFO: the warmest slot is reused first
  std::size_t live_ = 0;
  std::size_t dead_ = 0;  // heap entries of cancelled events
  std::uint64_t next_seq_ = 1;
  EventKey cursor_{std::numeric_limits<Nanos>::min(), 0};
};

}  // namespace lvrm::sim
