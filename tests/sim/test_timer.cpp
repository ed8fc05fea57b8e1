#include "sim/timer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <ostream>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace lvrm::sim {
namespace {

TEST(Timer, FiresAtTheLatestArming) {
  Simulator sim;
  std::vector<Nanos> fired;
  Timer timer(sim, [&] { fired.push_back(sim.now()); });
  timer.arm(100);
  timer.arm(300);  // later: the pending event moves itself
  timer.arm(200);  // earlier than 300, later than the pending 100
  EXPECT_TRUE(timer.armed());
  sim.run_all();
  EXPECT_EQ(fired, (std::vector<Nanos>{200}));
  EXPECT_FALSE(timer.armed());
}

TEST(Timer, EarlierArmingReplacesThePendingEvent) {
  Simulator sim;
  std::vector<Nanos> fired;
  Timer timer(sim, [&] { fired.push_back(sim.now()); });
  timer.arm(500);
  timer.arm(50);
  sim.run_all();
  EXPECT_EQ(fired, (std::vector<Nanos>{50}));
  EXPECT_EQ(sim.events_processed(), 1u);
}

TEST(Timer, DisarmCancels) {
  Simulator sim;
  int fired = 0;
  Timer timer(sim, [&] { ++fired; });
  timer.arm(100);
  timer.arm(200);
  timer.disarm();
  timer.disarm();  // no-op
  EXPECT_FALSE(timer.armed());
  sim.run_all();
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(sim.idle());
}

TEST(Timer, MayReArmFromItsOwnCallback) {
  Simulator sim;
  std::vector<Nanos> fired;
  Timer* self = nullptr;
  Timer timer(sim, [&] {
    fired.push_back(sim.now());
    if (fired.size() < 3) self->arm(sim.now() + 10);
  });
  self = &timer;
  timer.arm(10);
  sim.run_all();
  EXPECT_EQ(fired, (std::vector<Nanos>{10, 20, 30}));
}

TEST(Timer, DestructionCancelsThePendingEvent) {
  Simulator sim;
  int fired = 0;
  {
    Timer timer(sim, [&] { ++fired; });
    timer.arm(100);
    timer.arm(200);
  }
  EXPECT_TRUE(sim.idle());
  sim.run_all();
  EXPECT_EQ(fired, 0);
}

TEST(Timer, LazyReArmTakesNoCancel) {
  // Each re-arm to a later instant reserves a seq and leaves the one
  // pending event alone: one stale event fires and moves to the final key.
  Simulator sim;
  int fired = 0;
  Timer timer(sim, [&] { ++fired; });
  for (Nanos t = 1000; t <= 2000; t += 10) timer.arm(t);
  sim.run_all();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 2000);
  EXPECT_EQ(sim.events_processed(), 2u);
}

// --- model check against cancel-and-push ------------------------------------

// The reference model: re-arming cancels the pending event and pushes a new
// one. sim::Timer must fire exactly where this does.
class CancelAndPushTimer {
 public:
  CancelAndPushTimer(Simulator& sim, std::function<void()> on_fire)
      : sim_(sim), on_fire_(std::move(on_fire)) {}
  ~CancelAndPushTimer() { disarm(); }

  void arm(Nanos when) {
    disarm();
    event_ = sim_.at(when, [this] {
      event_ = kInvalidEvent;
      on_fire_();
    });
  }
  void disarm() {
    if (event_ == kInvalidEvent) return;
    sim_.cancel(event_);
    event_ = kInvalidEvent;
  }
  bool armed() const { return event_ != kInvalidEvent; }

 private:
  Simulator& sim_;
  std::function<void()> on_fire_;
  EventId event_ = kInvalidEvent;
};

struct Record {
  char what;  // 'F' timer fired, 'P' probe fired, 'U' after run_until
  Nanos at;
  int id;
  bool armed0;
  bool armed1;
  bool operator==(const Record&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Record& r) {
  return os << r.what << "@" << r.at << " id=" << r.id
            << " armed=" << r.armed0 << r.armed1;
}

/// Two timers and a stream of probes on a 100 ns grid. Probes and the
/// timers' own callbacks arm, re-arm and disarm the timers at random, with
/// delays on the same grid, so arms, expiries and probes tie at exact
/// instants; calls from outside any callback run between run_until()s.
template <typename T>
std::vector<Record> drive(std::uint64_t seed) {
  Simulator sim;
  Rng rng(seed);
  std::vector<Record> log;
  std::array<T*, 2> timers{};
  const auto note = [&](char what, int id) {
    log.push_back({what, sim.now(), id, timers[0]->armed(),
                   timers[1]->armed()});
  };
  const auto poke = [&] {
    T& t = *timers[rng.uniform(2)];
    if (rng.uniform(4) == 0)
      t.disarm();
    else
      t.arm(sim.now() + static_cast<Nanos>(rng.uniform(6)) * 100);
  };
  T a(sim, [&] {
    note('F', 0);
    if (rng.uniform(2) == 0) poke();
  });
  T b(sim, [&] {
    note('F', 1);
    if (rng.uniform(2) == 0) poke();
  });
  timers = {&a, &b};
  std::function<void(int)> probe = [&](int id) {
    sim.after(static_cast<Nanos>(rng.uniform(8)) * 100, [&, id] {
      note('P', id);
      for (int k = static_cast<int>(rng.uniform(4)); k > 0; --k) poke();
      if (rng.uniform(4) != 0) probe(id);
    });
  };
  for (int round = 0; round < 300; ++round) {
    if (rng.uniform(3) == 0) probe(round);
    for (int k = static_cast<int>(rng.uniform(3)); k > 0; --k) poke();
    sim.run_until(sim.now() + static_cast<Nanos>(rng.uniform(5)) * 100);
    note('U', round);
  }
  a.disarm();
  b.disarm();
  sim.run_all();
  return log;
}

class TimerModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TimerModel, MatchesCancelAndPush) {
  const std::vector<Record> want = drive<CancelAndPushTimer>(GetParam());
  const std::vector<Record> got = drive<Timer>(GetParam());
  const auto [w, g] = std::mismatch(want.begin(), want.end(), got.begin(),
                                    got.end());
  ASSERT_TRUE(w == want.end() && g == got.end())
      << "first difference at record " << (w - want.begin()) << ": want "
      << (w == want.end() ? Record{} : *w) << ", got "
      << (g == got.end() ? Record{} : *g);
  EXPECT_GT(std::count_if(want.begin(), want.end(),
                          [](const Record& r) { return r.what == 'F'; }),
            30);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimerModel,
                         ::testing::Range<std::uint64_t>(0, 8));

}  // namespace
}  // namespace lvrm::sim
