#include "sim/poll_server.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace lvrm::sim {
namespace {

struct Rig {
  Simulator sim;
  Core core{sim, 0, 0};
  PollServer<int> server{sim, core, /*owner=*/1, "rig"};
};

TEST(PollServer, ServesFifoWithCost) {
  Rig rig;
  BoundedQueue<int> q(16);
  std::vector<std::pair<int, Nanos>> served;
  rig.server.add_input(
      q, 0, [](int&) { return Nanos{100}; },
      [&](int&& v) { served.emplace_back(v, rig.sim.now()); });
  rig.server.start();
  q.push(1);
  q.push(2);
  rig.sim.run_all();
  ASSERT_EQ(served.size(), 2u);
  EXPECT_EQ(served[0], (std::pair<int, Nanos>{1, 100}));
  EXPECT_EQ(served[1], (std::pair<int, Nanos>{2, 200}));
}

TEST(PollServer, HigherPriorityInputServedFirst) {
  Rig rig;
  BoundedQueue<int> data(16);
  BoundedQueue<int> control(16);
  std::vector<int> order;
  rig.server.add_input(data, 1, [](int&) { return Nanos{10}; },
                       [&](int&& v) { order.push_back(v); });
  rig.server.add_input(control, 0, [](int&) { return Nanos{10}; },
                       [&](int&& v) { order.push_back(v + 100); });
  // Fill both before starting: control (priority 0) must drain first.
  data.push(1);
  data.push(2);
  control.push(1);
  control.push(2);
  rig.server.start();
  rig.sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{101, 102, 1, 2}));
}

TEST(PollServer, RoundRobinWithinPriorityClass) {
  Rig rig;
  BoundedQueue<int> a(16);
  BoundedQueue<int> b(16);
  std::vector<int> order;
  rig.server.add_input(a, 0, [](int&) { return Nanos{10}; },
                       [&](int&& v) { order.push_back(v); });
  rig.server.add_input(b, 0, [](int&) { return Nanos{10}; },
                       [&](int&& v) { order.push_back(v + 10); });
  for (int i = 0; i < 3; ++i) {
    a.push(i);
    b.push(i);
  }
  rig.server.start();
  rig.sim.run_all();
  // Interleaved, not all of a then all of b.
  ASSERT_EQ(order.size(), 6u);
  EXPECT_NE(order[1] / 10, order[0] / 10);
}

TEST(PollServer, StopLeavesItemsQueued) {
  Rig rig;
  BoundedQueue<int> q(16);
  int served = 0;
  rig.server.add_input(q, 0, [](int&) { return Nanos{10}; },
                       [&](int&&) { ++served; });
  rig.server.start();
  q.push(1);
  rig.sim.run_all();
  rig.server.stop();
  q.push(2);
  q.push(3);
  rig.sim.run_all();
  EXPECT_EQ(served, 1);
  EXPECT_EQ(q.size(), 2u);
  rig.server.start();
  rig.sim.run_all();
  EXPECT_EQ(served, 3);
}

TEST(PollServer, CostChargedToCoreCategory) {
  Rig rig;
  BoundedQueue<int> q(16);
  rig.server.add_input(q, 0, [](int&) { return Nanos{70}; },
                       [](int&&) {}, CostCategory::kSystem);
  rig.server.start();
  q.push(1);
  q.push(2);
  rig.sim.run_all();
  EXPECT_EQ(rig.core.busy(CostCategory::kSystem), 140);
}

TEST(PollServer, CostFnMayMutateItem) {
  Rig rig;
  BoundedQueue<int> q(16);
  int seen = 0;
  rig.server.add_input(
      q, 0,
      [](int& v) {
        v *= 2;  // decision recorded in the item
        return Nanos{5};
      },
      [&](int&& v) { seen = v; });
  rig.server.start();
  q.push(21);
  rig.sim.run_all();
  EXPECT_EQ(seen, 42);
}

TEST(PollServer, SharedCoreInterleavesWithContextSwitches) {
  Simulator sim;
  Core core(sim, 0, /*ctx=*/50);
  PollServer<int> s1(sim, core, 1, "a");
  PollServer<int> s2(sim, core, 2, "b");
  BoundedQueue<int> q1(16);
  BoundedQueue<int> q2(16);
  int total = 0;
  s1.add_input(q1, 0, [](int&) { return Nanos{100}; }, [&](int&&) { ++total; });
  s2.add_input(q2, 0, [](int&) { return Nanos{100}; }, [&](int&&) { ++total; });
  s1.start();
  s2.start();
  q1.push(1);
  q2.push(1);
  sim.run_all();
  EXPECT_EQ(total, 2);
  EXPECT_GE(core.context_switches(), 1u);
}

TEST(PollServer, MigrationMovesWorkToNewCore) {
  Simulator sim;
  Core core_a(sim, 0, 0);
  Core core_b(sim, 1, 0);
  PollServer<int> server(sim, core_a, 1, "m");
  BoundedQueue<int> q(16);
  server.add_input(q, 0, [](int&) { return Nanos{10}; }, [](int&&) {});
  server.start();
  q.push(1);
  sim.run_all();
  EXPECT_EQ(core_a.busy_total(), 10);
  server.migrate(core_b, /*penalty=*/25);
  q.push(2);
  sim.run_all();
  EXPECT_EQ(core_a.busy_total(), 10);
  EXPECT_EQ(core_b.busy(CostCategory::kSystem), 25);  // migration penalty
  EXPECT_EQ(core_b.busy(CostCategory::kUser), 10);
}

TEST(PollServer, PickupLatencyDelaysIdleDiscovery) {
  Simulator sim;
  Core core(sim, 0, 0);
  PollServer<int> server(sim, core, 1, "p", /*pickup_latency=*/500);
  BoundedQueue<int> q(16);
  Nanos done = -1;
  server.add_input(q, 0, [](int&) { return Nanos{100}; },
                   [&](int&&) { done = sim.now(); });
  server.start();
  q.push(1);
  sim.run_all();
  EXPECT_EQ(done, 600);  // 500 discovery + 100 service
}

TEST(PollServer, ServedCount) {
  Rig rig;
  BoundedQueue<int> q(16);
  rig.server.add_input(q, 0, [](int&) { return Nanos{10}; }, [](int&&) {});
  rig.server.start();
  q.push(1);
  q.push(2);
  rig.sim.run_all();
  EXPECT_EQ(rig.server.served(), 2u);
}

// --- §17 stealing support: hint repair, idle hook -------------------------

TEST(PollServer, RepairHintAfterExternalPopClearsStaleHint) {
  // Regression (ISSUE §17 satellite): a steal pops a queue behind the
  // scheduler's back, leaving a stale-HIGH non-empty hint. repair_hint must
  // clear it so the server parks idle instead of probing the empty queue.
  Rig rig;
  BoundedQueue<int> busy(16);
  BoundedQueue<int> stolen(16);
  int served = 0;
  rig.server.add_input(busy, 0, [](int&) { return Nanos{10}; },
                       [&](int&&) { ++served; });
  const std::size_t stolen_idx = rig.server.add_input(
      stolen, 0, [](int&) { return Nanos{10}; }, [&](int&&) { ++served; });
  stolen.push(7);       // hint set by the observer
  stolen.pop();         // external pop: hint now stale-HIGH
  rig.server.repair_hint(stolen_idx);
  rig.server.start();
  busy.push(1);
  rig.sim.run_all();
  EXPECT_EQ(served, 1);  // only the busy queue's item; no phantom serve
  // And the repaired input still works when real work arrives.
  stolen.push(2);
  rig.sim.run_all();
  EXPECT_EQ(served, 2);
}

TEST(PollServer, RepairHintKeepsHintWhenItemsRemain) {
  Rig rig;
  BoundedQueue<int> q(16);
  int served = 0;
  const std::size_t idx = rig.server.add_input(
      q, 0, [](int&) { return Nanos{10}; }, [&](int&&) { ++served; });
  q.push(1);
  q.push(2);
  q.pop();  // partial external pop: one item remains
  rig.server.repair_hint(idx);
  rig.server.start();
  rig.sim.run_all();
  EXPECT_EQ(served, 1);  // remaining item still found and served
}

TEST(PollServer, IdleHookRunsWhenNothingServiceable) {
  Rig rig;
  BoundedQueue<int> q(16);
  int served = 0;
  int hook_calls = 0;
  rig.server.add_input(q, 0, [](int&) { return Nanos{10}; },
                       [&](int&&) { ++served; });
  rig.server.set_idle_hook([&] {
    ++hook_calls;
    if (hook_calls == 1) {
      q.push(42);  // "steal" work into our own queue
      return true;  // produced work: scan again
    }
    return false;
  });
  rig.server.start();  // nothing queued: hook fires, steals, serves
  rig.sim.run_all();
  EXPECT_EQ(served, 1);
  // Called once to produce work, then again after the serve drained it.
  EXPECT_GE(hook_calls, 2);
}

TEST(PollServer, IdleHookNotInvokedWhileWorkPending) {
  Rig rig;
  BoundedQueue<int> q(16);
  int hook_calls = 0;
  rig.server.add_input(q, 0, [](int&) { return Nanos{10}; }, [](int&&) {});
  rig.server.set_idle_hook([&] {
    ++hook_calls;
    return false;
  });
  q.push(1);
  q.push(2);
  rig.server.start();
  rig.sim.run_all();
  // Invoked only when the scan came up empty (after the drain), never
  // between back-to-back serves of real work.
  EXPECT_EQ(hook_calls, 1);
}

}  // namespace
}  // namespace lvrm::sim
