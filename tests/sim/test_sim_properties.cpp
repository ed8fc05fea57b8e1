// Model-based property tests for the simulation primitives.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <iterator>
#include <ostream>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/core.hpp"
#include "sim/queue.hpp"
#include "sim/simulator.hpp"

namespace lvrm::sim {
namespace {

// Property: BoundedQueue behaves exactly like a capacity-capped std::deque
// under random push/pop/clear sequences. Both ranges draw capacities above
// the ring's initial size; RingGrowth's reach past kSmallCapacity, so the
// ring doubles several times, mostly while its head sits mid-buffer.
constexpr std::size_t kSmallCapacity = 16;

struct QueueModelCase {
  std::uint64_t seed;
  std::size_t min_capacity;
  std::size_t max_capacity;
};

// Names each case by its seed, as when the parameter was the seed alone.
void PrintTo(const QueueModelCase& c, std::ostream* os) { *os << c.seed; }

std::vector<QueueModelCase> queue_model_cases(std::size_t min_capacity,
                                              std::size_t max_capacity) {
  std::vector<QueueModelCase> cases;
  for (std::uint64_t seed = 0; seed < 10; ++seed)
    cases.push_back(QueueModelCase{seed, min_capacity, max_capacity});
  return cases;
}

class BoundedQueueModel : public ::testing::TestWithParam<QueueModelCase> {};

TEST_P(BoundedQueueModel, MatchesDequeModel) {
  const QueueModelCase c = GetParam();
  Rng rng(c.seed);
  const std::size_t capacity =
      c.min_capacity + rng.uniform(c.max_capacity - c.min_capacity + 1);
  BoundedQueue<std::uint64_t> queue(capacity);
  std::deque<std::uint64_t> model;
  std::uint64_t drops = 0;
  std::size_t peak = 0;

  for (int step = 0; step < 4000; ++step) {
    const auto op = rng.uniform(10);
    if (op < 5) {
      const std::uint64_t v = rng.next();
      const bool accepted = queue.push(v);
      if (model.size() < capacity) {
        EXPECT_TRUE(accepted);
        model.push_back(v);
      } else {
        EXPECT_FALSE(accepted);
        ++drops;
      }
    } else if (op < 9) {
      ASSERT_EQ(queue.empty(), model.empty());
      if (!model.empty()) {
        EXPECT_EQ(queue.pop(), model.front());
        model.pop_front();
      }
    } else if (op == 9 && rng.uniform(8) == 0) {
      queue.clear();
      model.clear();
    }
    ASSERT_EQ(queue.size(), model.size());
    if (!model.empty()) {
      ASSERT_EQ(queue.front(), model.front());
    }
    peak = std::max(peak, model.size());
  }
  EXPECT_EQ(queue.drops(), drops);
  if (c.min_capacity > kSmallCapacity) {
    EXPECT_GT(peak, kSmallCapacity);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, BoundedQueueModel,
    ::testing::ValuesIn(queue_model_cases(1, kSmallCapacity)));
INSTANTIATE_TEST_SUITE_P(
    RingGrowth, BoundedQueueModel,
    ::testing::ValuesIn(queue_model_cases(kSmallCapacity + 1, 64)));

// Property: events fire in the total order on (time, insertion seq), as a
// reference set ordered on that pair predicts, under random schedules
// (many same-time collisions) and cancels. Cancels hit pending events, so
// the heap compacts now and then, and ids that have fired or were
// cancelled already, whose slots the kernel has usually reused. Some firing callbacks schedule a burst and cancel from inside the
// call; a 300-event burst grows the slab while the callback runs from it.
class EventOrdering : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventOrdering, TimeThenInsertionOrder) {
  Rng rng(GetParam());
  Simulator sim;
  std::set<std::pair<Nanos, int>> pending;  // the reference: (time, seq)
  std::vector<EventId> ids;                 // by seq
  std::vector<Nanos> due;                   // by seq
  int fired = 0;

  // Half the cancels hit a pending event, the rest any id ever issued.
  const auto cancel_any = [&] {
    auto seq = static_cast<int>(rng.uniform(ids.size()));
    if (!pending.empty() && rng.uniform(2) == 0)
      seq = std::next(pending.begin(),
                      static_cast<std::ptrdiff_t>(rng.uniform(pending.size())))
                ->second;
    sim.cancel(ids[static_cast<std::size_t>(seq)]);
    pending.erase({due[static_cast<std::size_t>(seq)], seq});
  };
  std::function<void()> schedule = [&] {
    const int seq = static_cast<int>(ids.size());
    const Nanos at = sim.now() + static_cast<Nanos>(rng.uniform(50));
    due.push_back(at);
    pending.insert({at, seq});
    ids.push_back(sim.at(at, [&, seq] {
      ASSERT_FALSE(pending.empty());
      ASSERT_EQ(*pending.begin(),
                std::make_pair(due[static_cast<std::size_t>(seq)], seq));
      pending.erase(pending.begin());
      ++fired;
      if (ids.size() < 4000 && rng.uniform(8) == 0) {
        const int burst = rng.uniform(4) == 0 ? 300 : 3;
        for (int k = 0; k < burst; ++k) schedule();
        cancel_any();
        cancel_any();
        sim.cancel(ids[static_cast<std::size_t>(seq)]);  // itself: no-op
      }
      // Reads this callback's captures after the slab may have grown.
      EXPECT_EQ(sim.now(), due[static_cast<std::size_t>(seq)]);
    }));
  };

  for (int step = 0; step < 3000; ++step) {
    const auto op = rng.uniform(10);
    if (op < 4 || ids.empty()) {
      schedule();
    } else if (op < 6) {
      cancel_any();
    } else {
      sim.step();
    }
    ASSERT_EQ(sim.idle(), pending.empty());
  }
  sim.run_all();
  EXPECT_TRUE(pending.empty());
  EXPECT_GT(fired, 1000);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventOrdering,
                         ::testing::Range<std::uint64_t>(0, 6));

// Property: a core's busy_total never exceeds elapsed time and accounting
// categories sum to the total (work conservation).
TEST(CoreConservation, BusyNeverExceedsElapsed) {
  Rng rng(77);
  Simulator sim;
  Core core(sim, 0, /*ctx=*/100);
  Nanos charged = 0;
  for (int i = 0; i < 200; ++i) {
    const auto cost = static_cast<Nanos>(1 + rng.uniform(500));
    const auto cat = static_cast<CostCategory>(rng.uniform(3));
    const auto owner = static_cast<OwnerId>(rng.uniform(3));
    core.run(cost, cat, owner, nullptr);
    charged += cost;
  }
  sim.run_all();
  EXPECT_GE(core.busy_total(), charged);  // includes context switches
  // All work was queued back-to-back from t=0: the busy chain's end equals
  // the accounted busy time (no idle gaps slipped into the accounting).
  EXPECT_EQ(core.busy_until(), core.busy_total());
  EXPECT_EQ(core.busy_total(),
            core.busy(CostCategory::kUser) + core.busy(CostCategory::kSystem) +
                core.busy(CostCategory::kSoftirq));
}

}  // namespace
}  // namespace lvrm::sim
