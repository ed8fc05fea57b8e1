#include "sim/link.hpp"

#include <algorithm>

namespace lvrm::sim {

std::size_t Link::backlog() const {
  while (!releases_.empty() &&
         sim_.passed(releases_.front().at, releases_.front().seq))
    releases_.pop();
  return releases_.size();
}

std::optional<Nanos> Link::admit(std::int64_t bytes) {
  // A frame whose serialization has not begun occupies a TX-ring slot.
  const Nanos now = sim_.now();
  const bool wire_busy = wire_free_at_ > now;
  if (wire_busy && backlog() >= queue_limit_) {
    ++drops_;
    return std::nullopt;
  }

  const Nanos start = std::max(now, wire_free_at_);
  const Nanos wire = wire_time(bytes, rate_);
  wire_free_at_ = start + wire;
  busy_time_ += wire;

  if (wire_busy) releases_.push({start, sim_.reserve_seq()});

  return wire_free_at_ + propagation_;
}

void Link::next_delivery() {
  --in_flight_;
  ++delivered_;
  if (waiting_.empty()) return;
  Waiting next = waiting_.pop();
  sim_.at_reserved(next.key.at, next.key.seq, std::move(next.delivery));
}

}  // namespace lvrm::sim
