#include "sim/simulator.hpp"

#include <algorithm>

namespace lvrm::sim {

void Simulator::run_until(Nanos deadline) {
  while (!queue_.empty() && queue_.next_time() <= deadline) step();
  now_ = std::max(now_, deadline);
  queue_.pass_through(deadline);
}

void Simulator::run_all(std::uint64_t max_events) {
  std::uint64_t fired = 0;
  while (!queue_.empty() && fired < max_events) {
    step();
    ++fired;
  }
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  ++processed_;
  queue_.fire_next(now_);
  return true;
}

}  // namespace lvrm::sim
