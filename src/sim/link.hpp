// link.hpp — a point-to-point link with serialization, propagation and a
// bounded transmit queue.
//
// The testbed's 1-Gigabit links are where both line-rate ceilings and TCP
// congestion drops come from: a frame occupies the wire for bytes*8 ns, and
// frames arriving while the transmit queue is full are tail-dropped, which is
// the loss signal TCP Reno reacts to in Experiments 3c and 4.
//
// Deliveries leave a link in the order they were admitted, so only the
// earliest one is an event in the kernel. Each later one waits in a FIFO
// with the insertion seq it took at admission, and the delivery ahead of it
// schedules it with that seq (Simulator::at_reserved). A frame waiting for
// the wire holds a TX-ring slot until its serialization starts; the link
// keeps the (start, seq) key that slot's release event would have had and
// counts the slot free once the kernel has passed that key. Every delivery
// fires, and every drop decision sees the backlog, exactly as if each
// delivery and each release were its own event (DESIGN.md §9).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>

#include "common/units.hpp"
#include "sim/queue.hpp"
#include "sim/simulator.hpp"

namespace lvrm::sim {

class Link {
 public:
  /// `queue_limit` is the transmit-queue depth in frames (excludes the frame
  /// currently on the wire), matching a NIC TX ring.
  Link(Simulator& sim, BitsPerSec rate, Nanos propagation,
       std::size_t queue_limit)
      : sim_(sim),
        rate_(rate),
        propagation_(propagation),
        queue_limit_(queue_limit) {}

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Queues `bytes` for transmission; `deliver` fires at the receiver once
  /// serialization + propagation complete. Returns false (tail drop) when
  /// the transmit queue is full. `deliver` is wrapped once, into the
  /// delivery's own Callback, so a frame-carrying capture stays inline.
  template <typename F>
  bool transmit(std::int64_t bytes, F&& deliver) {
    const std::optional<Nanos> arrival = admit(bytes);
    if (!arrival) return false;
    auto delivery = [this, deliver = std::forward<F>(deliver)]() mutable {
      next_delivery();
      deliver();
    };
    if (in_flight_++ == 0)
      sim_.at(*arrival, std::move(delivery));
    else
      waiting_.push({{*arrival, sim_.reserve_seq()}, std::move(delivery)});
    return true;
  }
  bool transmit(std::int64_t bytes, std::nullptr_t) {
    return transmit(bytes, [] {});
  }

  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t drops() const { return drops_; }
  /// Frames admitted whose serialization has not started.
  std::size_t backlog() const;
  BitsPerSec rate() const { return rate_; }

  /// Nanoseconds the wire has been occupied (for utilization reporting).
  Nanos busy_time() const { return busy_time_; }

 private:
  struct Waiting {
    EventKey key;
    Callback delivery;
  };

  /// Tail-drops the frame (nullopt) or puts it on the wire: reserves the
  /// seq of its TX-ring slot release when it waits, and returns its arrival
  /// time at the receiver. The caller then takes the delivery's seq, so a
  /// release always precedes the delivery it belongs to.
  std::optional<Nanos> admit(std::int64_t bytes);

  /// Runs first in every delivery: counts it and hands the kernel the next
  /// waiting delivery.
  void next_delivery();

  static constexpr std::size_t kUnbounded =
      std::numeric_limits<std::size_t>::max();

  Simulator& sim_;
  BitsPerSec rate_;
  Nanos propagation_;
  std::size_t queue_limit_;
  Nanos wire_free_at_ = 0;
  std::size_t in_flight_ = 0;  // deliveries not yet fired
  BoundedQueue<Waiting> waiting_{kUnbounded};  // in flight, after the first
  // Release keys of the waiting frames' TX-ring slots, in key order; the
  // front entries the kernel has passed are dropped when next looked at.
  mutable BoundedQueue<EventKey> releases_{kUnbounded};
  std::uint64_t delivered_ = 0;
  std::uint64_t drops_ = 0;
  Nanos busy_time_ = 0;
};

}  // namespace lvrm::sim
