#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"

namespace lvrm::sim {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(30, [&] { order.push_back(3); });
  q.push(10, [&] { order.push_back(1); });
  q.push(20, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) q.push(5, [&order, i] { order.push_back(i); });
  while (!q.empty()) q.pop().cb();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelSkipsEvent) {
  EventQueue q;
  int fired = 0;
  q.push(1, [&] { ++fired; });
  const EventId victim = q.push(2, [&] { fired += 100; });
  q.push(3, [&] { ++fired; });
  q.cancel(victim);
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, CancelInvalidIdIsNoop) {
  EventQueue q;
  q.push(1, [] {});
  q.cancel(9999);
  q.cancel(kInvalidEvent);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, SizeReflectsLiveEvents) {
  EventQueue q;
  const EventId a = q.push(1, [] {});
  q.push(2, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId first = q.push(1, [] {});
  q.push(7, [] {});
  q.cancel(first);
  EXPECT_EQ(q.next_time(), 7);
}

TEST(EventQueue, FiredCarriesTimestamp) {
  EventQueue q;
  q.push(123, [] {});
  const auto fired = q.pop();
  EXPECT_EQ(fired.at, 123);
}

TEST(EventQueue, StaleIdIsNoopAfterItsSlotIsReused) {
  EventQueue q;
  int fired = 0;
  const EventId done = q.push(1, [&] { ++fired; });
  q.pop().cb();
  const EventId dropped = q.push(2, [&] { fired += 10; });
  q.cancel(dropped);
  // Freed slots are reused first: both stale ids now name the live event's
  // slot, and neither may cancel it.
  const EventId live = q.push(3, [&] { fired += 100; });
  q.cancel(done);
  q.cancel(dropped);
  q.cancel(dropped);
  EXPECT_NE(live, done);
  EXPECT_NE(live, dropped);
  ASSERT_EQ(q.size(), 1u);
  q.pop().cb();
  EXPECT_EQ(fired, 101);
}

TEST(EventQueue, CancelHeavyChurnKeepsOrder) {
  // Cancels of pending events leave dead heap entries behind; once they
  // outnumber the live ones the heap is compacted and rebuilt, several
  // times over here, and must still pop in (time, insertion) order.
  EventQueue q;
  std::vector<std::pair<Nanos, int>> expected;
  std::vector<EventId> ids;
  std::vector<int> fired;
  for (int i = 0; i < 1000; ++i) {
    const Nanos at = (i * 7919) % 101;
    ids.push_back(q.push(at, [&fired, i] { fired.push_back(i); }));
    expected.emplace_back(at, i);
  }
  for (int i = 0; i < 1000; ++i) {
    if (i % 10 == 3) continue;  // survivors
    q.cancel(ids[static_cast<std::size_t>(i)]);
    expected[static_cast<std::size_t>(i)].second = -1;
  }
  std::erase_if(expected, [](const auto& e) { return e.second < 0; });
  std::sort(expected.begin(), expected.end());
  ASSERT_EQ(q.size(), expected.size());
  while (!q.empty()) q.pop().cb();
  ASSERT_EQ(fired.size(), expected.size());
  for (std::size_t k = 0; k < fired.size(); ++k)
    EXPECT_EQ(fired[k], expected[k].second);
}

TEST(EventQueue, MoveOnlyCaptureIsSchedulable) {
  EventQueue q;
  int seen = 0;
  auto owned = std::make_unique<int>(7);
  q.push(1, [&seen, owned = std::move(owned)] { seen = *owned; });
  q.pop().cb();
  EXPECT_EQ(seen, 7);
}

TEST(EventQueue, CaptureLargerThanInlineBufferStillFires) {
  std::array<std::uint64_t, 64> big{};
  std::iota(big.begin(), big.end(), 1);
  std::uint64_t sum = 0;
  auto sum_big = [&sum, big] {
    sum = std::accumulate(big.begin(), big.end(), std::uint64_t{0});
  };
  static_assert(!Callback::stores_inline<decltype(sum_big)>);
  EventQueue q;
  q.push(2, [] {});
  q.push(1, std::move(sum_big));
  q.pop().cb();
  EXPECT_EQ(sum, 64u * 65u / 2u);
}

// A capture that records its own destruction: moves hand the record over,
// so each scheduled token is destroyed exactly once wherever it ends.
struct Token {
  std::vector<int>* destroyed;
  int id;
  Token(std::vector<int>* d, int i) : destroyed(d), id(i) {}
  Token(Token&& o) noexcept
      : destroyed(std::exchange(o.destroyed, nullptr)), id(o.id) {}
  Token& operator=(Token&&) = delete;
  ~Token() {
    if (destroyed != nullptr) destroyed->push_back(id);
  }
};

TEST(EventQueue, EveryCallbackIsDestroyedExactlyOnce) {
  std::vector<int> destroyed;
  std::array<char, 256> pad{};  // pushes the odd ids past the inline buffer
  {
    EventQueue q;
    std::vector<EventId> ids;
    for (int i = 0; i < 6; ++i) {
      Token t(&destroyed, i);
      if (i % 2 == 0)
        ids.push_back(q.push(i, [t = std::move(t)] {}));
      else
        ids.push_back(q.push(i, [t = std::move(t), pad] {}));
    }
    q.pop().cb();  // fires 0 ...
    EXPECT_EQ(destroyed, (std::vector<int>{0}));  // ... and destroys it
    Nanos clock = 0;
    q.fire_next(clock);  // fires 1 in place
    EXPECT_EQ(destroyed, (std::vector<int>{0, 1}));
    q.cancel(ids[3]);
    q.cancel(ids[2]);
    q.cancel(ids[2]);  // already cancelled
    q.cancel(ids[0]);  // already fired
    EXPECT_EQ(destroyed, (std::vector<int>{0, 1, 3, 2}));
  }  // 4 and 5 are still pending when the queue goes
  EXPECT_EQ(destroyed.size(), 6u);
  std::sort(destroyed.begin(), destroyed.end());
  EXPECT_EQ(destroyed, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(EventQueue, ReservedSeqOrdersTheEventWhereItWasReserved) {
  EventQueue q;
  std::vector<char> order;
  const std::uint64_t early = q.reserve_seq();
  q.push(5, [&] { order.push_back('a'); });
  const std::uint64_t mid = q.reserve_seq();
  q.push(5, [&] { order.push_back('b'); });
  // Scheduled last, but their seqs place them before 'a' and between the
  // two pushes at the same instant.
  q.push_reserved(5, mid, [&] { order.push_back('m'); });
  q.push_reserved(5, early, [&] { order.push_back('e'); });
  const std::uint64_t late = q.reserve_seq();
  q.push_reserved(4, late, [&] { order.push_back('l'); });  // earlier time
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(order, (std::vector<char>{'l', 'e', 'a', 'm', 'b'}));
}

TEST(EventQueue, ReservedEventsCancelLikePushedOnes) {
  EventQueue q;
  int fired = 0;
  const std::uint64_t seq = q.reserve_seq();
  q.push(1, [&] { ++fired; });
  const EventId id = q.push_reserved(2, seq, [&] { fired += 10; });
  q.cancel(id);
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, PopMovesTheCursor) {
  EventQueue q;
  EXPECT_FALSE(q.passed(0, 1));
  const std::uint64_t before = q.reserve_seq();
  q.push(7, [] {});
  const std::uint64_t after = q.reserve_seq();
  q.pop();
  EXPECT_TRUE(q.passed(7, before));
  EXPECT_FALSE(q.passed(7, after));
  EXPECT_TRUE(q.passed(6, after));
  EXPECT_FALSE(q.passed(8, 0));
}

TEST(Simulator, PassedFollowsTheFiringCursor) {
  Simulator sim;
  const std::uint64_t before = sim.reserve_seq();
  bool inside_before = false;
  bool inside_after = true;
  std::uint64_t after = 0;
  sim.at(10, [&] {
    inside_before = sim.passed(10, before);
    inside_after = sim.passed(10, after);
  });
  after = sim.reserve_seq();
  sim.at(20, [] {});
  EXPECT_FALSE(sim.passed(0, before));

  ASSERT_TRUE(sim.step());  // fires the event at 10
  EXPECT_TRUE(inside_before);
  EXPECT_FALSE(inside_after);
  EXPECT_TRUE(sim.passed(10, before));
  EXPECT_FALSE(sim.passed(10, after));
  EXPECT_TRUE(sim.passed(9, after));

  // run_until passes every key up to its deadline whose seq is taken,
  // fired or not; a seq taken afterwards still lies ahead.
  sim.run_until(15);
  EXPECT_TRUE(sim.passed(15, after));
  EXPECT_FALSE(sim.passed(15, sim.reserve_seq()));
  EXPECT_FALSE(sim.passed(16, 0));
  const std::uint64_t at_deadline = sim.reserve_seq();
  sim.at_reserved(15, at_deadline, [] {});  // still ahead of the cursor
  sim.run_until(12);  // behind the clock: the cursor stays
  EXPECT_FALSE(sim.passed(15, at_deadline));
  ASSERT_TRUE(sim.step());
  EXPECT_EQ(sim.now(), 15);
  EXPECT_TRUE(sim.passed(15, at_deadline));

  // The next event to fire moves the cursor to its own key.
  const std::uint64_t later = sim.reserve_seq();
  ASSERT_TRUE(sim.step());  // the event at 20, scheduled before `later`
  EXPECT_EQ(sim.now(), 20);
  EXPECT_TRUE(sim.passed(20, after));
  EXPECT_FALSE(sim.passed(20, later));
}

TEST(Simulator, AtReservedSchedulesFromInsideACallback) {
  // A component reserves a seq now and schedules the event later, from the
  // callback of an earlier event: it fires where a push at reservation time
  // would have fired.
  Simulator sim;
  std::vector<char> order;
  const std::uint64_t reserved = sim.reserve_seq();
  sim.at(10, [&] {
    order.push_back('a');
    sim.at_reserved(20, reserved, [&] { order.push_back('r'); });
  });
  sim.at(20, [&] { order.push_back('b'); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<char>{'a', 'r', 'b'}));
}

TEST(EventQueue, EmptyCallableGivesEmptyCallback) {
  std::function<void()> none;
  void (*no_fn)() = nullptr;
  EXPECT_FALSE(Callback(none));
  EXPECT_FALSE(Callback(no_fn));
  EXPECT_FALSE(Callback(nullptr));
  EXPECT_TRUE(Callback([] {}));
  Callback empty;
  EXPECT_THROW(empty(), std::bad_function_call);
}

}  // namespace
}  // namespace lvrm::sim
