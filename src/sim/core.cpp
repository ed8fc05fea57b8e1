#include "sim/core.hpp"

#include <algorithm>

namespace lvrm::sim {

Nanos Core::run(Nanos cost, CostCategory cat, OwnerId owner,
                Callback&& done) {
  Nanos start = std::max(sim_.now(), busy_until_);
  if (owner != last_owner_ && last_owner_ != kNoOwner && owner != kNoOwner) {
    start += ctx_cost_;
    busy_[static_cast<std::size_t>(CostCategory::kSystem)] += ctx_cost_;
    ++ctx_switches_;
  }
  if (owner != kNoOwner) last_owner_ = owner;
  busy_until_ = start + cost;
  busy_[static_cast<std::size_t>(cat)] += cost;
  if (done) sim_.at(busy_until_, std::move(done));
  return busy_until_;
}

void Core::charge(Nanos cost, CostCategory cat) {
  busy_until_ = std::max(sim_.now(), busy_until_) + cost;
  busy_[static_cast<std::size_t>(cat)] += cost;
}

Nanos Core::busy_total() const {
  Nanos total = 0;
  for (auto b : busy_) total += b;
  return total;
}

void Core::reset_accounting() {
  busy_.fill(0);
  ctx_switches_ = 0;
}

}  // namespace lvrm::sim
