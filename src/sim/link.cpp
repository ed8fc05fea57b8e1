#include "sim/link.hpp"

#include <algorithm>

namespace lvrm::sim {

std::optional<Nanos> Link::admit(std::int64_t bytes) {
  // A frame whose serialization has not begun occupies a TX-ring slot.
  const Nanos now = sim_.now();
  const bool wire_busy = wire_free_at_ > now;
  if (wire_busy && backlog_ >= queue_limit_) {
    ++drops_;
    return std::nullopt;
  }

  const Nanos start = std::max(now, wire_free_at_);
  const Nanos wire = wire_time(bytes, rate_);
  wire_free_at_ = start + wire;
  busy_time_ += wire;

  if (wire_busy) {
    ++backlog_;
    sim_.at(start, [this] { --backlog_; });
  }

  return wire_free_at_ + propagation_;
}

}  // namespace lvrm::sim
