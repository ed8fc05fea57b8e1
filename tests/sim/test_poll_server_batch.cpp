// Tests for PollServer's per-input batching (burst draining of NIC rings).
#include <gtest/gtest.h>

#include <vector>

#include "sim/poll_server.hpp"

namespace lvrm::sim {
namespace {

struct Rig {
  Simulator sim;
  Core core{sim, 0, 0};
  PollServer<int> server{sim, core, 1, "batch-rig"};
};

TEST(PollServerBatch, DrainsBatchBeforeRescanningPriorities) {
  Rig rig;
  BoundedQueue<int> data(32);
  BoundedQueue<int> control(32);
  std::vector<int> order;
  rig.server.add_input(data, /*priority=*/1, [](int&) { return Nanos{10}; },
                       [&](int&& v) { order.push_back(v); },
                       CostCategory::kUser, /*batch=*/4);
  rig.server.add_input(control, /*priority=*/0, [](int&) { return Nanos{10}; },
                       [&](int&& v) { order.push_back(100 + v); });
  for (int i = 0; i < 8; ++i) data.push(i);
  rig.server.start();
  // A control event arrives while the first data item is in service: it must
  // wait for the current batch (items 0..3), then jump the queue.
  rig.sim.at(5, [&control] { control.push(1); });
  rig.sim.run_all();
  ASSERT_EQ(order.size(), 9u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[3], 3);
  EXPECT_EQ(order[4], 101);  // control after the batch, before data 4..7
  EXPECT_EQ(order[5], 4);
}

TEST(PollServerBatch, BatchEndsEarlyWhenInputDrains) {
  Rig rig;
  BoundedQueue<int> a(32);
  BoundedQueue<int> b(32);
  std::vector<int> order;
  rig.server.add_input(a, 0, [](int&) { return Nanos{10}; },
                       [&](int&& v) { order.push_back(v); },
                       CostCategory::kUser, /*batch=*/8);
  rig.server.add_input(b, 0, [](int&) { return Nanos{10}; },
                       [&](int&& v) { order.push_back(100 + v); },
                       CostCategory::kUser, /*batch=*/8);
  a.push(1);
  a.push(2);
  b.push(1);
  rig.server.start();
  rig.sim.run_all();
  // a drains after 2 items (below its batch of 8); b is served next.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 101}));
}

TEST(PollServerBatch, BatchOfOneIsStrictPriority) {
  Rig rig;
  BoundedQueue<int> data(32);
  BoundedQueue<int> control(32);
  std::vector<int> order;
  rig.server.add_input(data, 1, [](int&) { return Nanos{10}; },
                       [&](int&& v) { order.push_back(v); },
                       CostCategory::kUser, /*batch=*/1);
  rig.server.add_input(control, 0, [](int&) { return Nanos{10}; },
                       [&](int&& v) { order.push_back(100 + v); });
  for (int i = 0; i < 4; ++i) data.push(i);
  rig.server.start();
  rig.sim.at(5, [&control] { control.push(1); });
  rig.sim.run_all();
  // With batch 1 the control event only waits for the in-service item.
  EXPECT_EQ(order[1], 101);
}

TEST(PollServerBatch, RefillDuringBatchExtendsIt) {
  Rig rig;
  BoundedQueue<int> q(32);
  std::vector<Nanos> times;
  rig.server.add_input(q, 0, [](int&) { return Nanos{10}; },
                       [&](int&&) { times.push_back(rig.sim.now()); },
                       CostCategory::kUser, /*batch=*/4);
  q.push(0);
  q.push(1);
  rig.server.start();
  rig.sim.at(15, [&q] { q.push(2); });  // lands mid-batch
  rig.sim.run_all();
  ASSERT_EQ(times.size(), 3u);
  EXPECT_EQ(times[2], 30);  // served back-to-back as part of the same batch
}

TEST(PollServerBatch, StaleNonemptyHintIsRepairedAfterExternalClear) {
  // External actors (recovery, shedding) may drain a queue without going
  // through the server. The non-empty hint is then stale-HIGH; the next scan
  // must repair it and fall through to other inputs instead of spinning.
  Rig rig;
  BoundedQueue<int> a(32);
  BoundedQueue<int> b(32);
  std::vector<int> order;
  rig.server.add_input(a, 0, [](int&) { return Nanos{10}; },
                       [&](int&& v) { order.push_back(v); });
  rig.server.add_input(b, 1, [](int&) { return Nanos{10}; },
                       [&](int&& v) { order.push_back(100 + v); });
  a.push(1);   // sets a's hint (server not yet running)
  a.clear();   // external drain: hint now stale
  b.push(2);
  rig.server.start();
  rig.sim.run_all();
  // The scan skips the stale hint on `a` and serves `b`.
  EXPECT_EQ(order, (std::vector<int>{102}));
  // A fresh push on `a` re-arms its hint and is served normally.
  a.push(3);
  rig.sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{102, 3}));
}

}  // namespace
}  // namespace lvrm::sim
