// simulator.hpp — the virtual clock and event loop.
//
// Everything in the reproduction that the paper ran on wall-clock hardware
// (links, CPU cores, 1-second allocation periods, TCP timers) runs against
// this clock instead, which makes every figure deterministic and lets a
// "600-second" experiment finish in milliseconds of host time.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>

#include "common/units.hpp"
#include "sim/callback.hpp"
#include "sim/event_queue.hpp"

namespace lvrm::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Nanos now() const { return now_; }

  /// Schedules `cb` at absolute virtual time `at` (clamped to now).
  EventId at(Nanos when, Callback&& cb) {
    return queue_.push(std::max(when, now_), std::move(cb));
  }

  /// Schedules `cb` after a relative delay.
  EventId after(Nanos delay, Callback&& cb) {
    return queue_.push(now_ + std::max<Nanos>(delay, 0), std::move(cb));
  }

  void cancel(EventId id) { queue_.cancel(id); }

  /// Takes the insertion seq that at() or after() would take now, so an
  /// event can be scheduled later with at_reserved() and still fire where
  /// it would have fired if it had been scheduled now.
  std::uint64_t reserve_seq() { return queue_.reserve_seq(); }

  /// Schedules `cb` at key (when, seq), with `seq` from reserve_seq(). The
  /// key must lie ahead of the firing cursor: !passed(when, seq).
  EventId at_reserved(Nanos when, std::uint64_t seq, Callback&& cb) {
    return queue_.push_reserved(when, seq, std::move(cb));
  }

  /// True once the kernel has reached key (at, seq). Inside a callback the
  /// cursor is the firing event's key; after step() it is the key of the
  /// event that fired; after run_until(d) every key at or before time d
  /// whose seq was taken by then has passed. A component can test whether
  /// an event it never scheduled would have fired by now.
  bool passed(Nanos at, std::uint64_t seq) const {
    return queue_.passed(at, seq);
  }

  /// Runs until the queue drains or the clock passes `deadline`, whichever
  /// comes first. Events scheduled exactly at `deadline` still fire.
  void run_until(Nanos deadline);

  /// Runs until the queue drains, with a safety cap on the number of events
  /// (guards against accidental event storms in tests).
  void run_all(std::uint64_t max_events = 500'000'000ULL);

  /// Fires exactly one event if any is pending. Returns false when idle.
  bool step();

  std::uint64_t events_processed() const { return processed_; }
  bool idle() const { return queue_.empty(); }

 private:
  Nanos now_ = 0;
  EventQueue queue_;
  std::uint64_t processed_ = 0;
};

}  // namespace lvrm::sim
