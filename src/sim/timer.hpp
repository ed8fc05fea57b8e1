// timer.hpp — a re-armable one-shot timer that keeps one kernel event.
//
// TCP re-arms its retransmission timer on every ACK, each time a little
// later than before. Cancelling the pending event and pushing a new one
// would cost a dead heap entry per ACK. Instead, arm() only takes the
// insertion seq a push would take and records the new key. When the
// pending event fires before that key, it reschedules itself at it
// (Simulator::at_reserved). The timer therefore fires at exactly the key a
// cancel-and-push would have given it. It cancels only when the new key is
// earlier than the pending event's or when it is disarmed.
#pragma once

#include <cstdint>

#include "common/units.hpp"
#include "sim/callback.hpp"
#include "sim/simulator.hpp"

namespace lvrm::sim {

class Timer {
 public:
  /// `on_fire` runs each time the timer expires; the timer is disarmed by
  /// then, so it may re-arm itself.
  Timer(Simulator& sim, Callback&& on_fire)
      : sim_(sim), on_fire_(std::move(on_fire)) {}
  ~Timer() { disarm(); }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// Arms the timer to fire at `when` (clamped to now), replacing any
  /// earlier arming.
  void arm(Nanos when);

  /// Disarms the timer; a no-op when it is not armed.
  void disarm();

  bool armed() const { return event_ != kInvalidEvent; }

 private:
  void schedule();
  void on_event();

  Simulator& sim_;
  Callback on_fire_;
  EventId event_ = kInvalidEvent;  // the pending kernel event
  EventKey pending_{0, 0};         // its key
  EventKey due_{0, 0};             // where the timer fires: the latest arm()
};

}  // namespace lvrm::sim
