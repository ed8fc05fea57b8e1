#include "sim/timer.hpp"

#include <algorithm>

namespace lvrm::sim {

void Timer::arm(Nanos when) {
  due_ = {std::max(when, sim_.now()), sim_.reserve_seq()};
  // The new seq is the newest, so at an equal time the pending event still
  // comes first; it then moves itself to due_.
  if (armed() && pending_.at <= due_.at) return;
  disarm();
  schedule();
}

void Timer::disarm() {
  if (event_ == kInvalidEvent) return;
  sim_.cancel(event_);
  event_ = kInvalidEvent;
}

void Timer::schedule() {
  pending_ = due_;
  event_ = sim_.at_reserved(due_.at, due_.seq, [this] { on_event(); });
}

void Timer::on_event() {
  event_ = kInvalidEvent;
  if (pending_.seq != due_.seq) {
    schedule();
    return;
  }
  on_fire_();
}

}  // namespace lvrm::sim
