// Unit tests of the HealthMonitor classifier in isolation: verdict rules for
// dead / hung / fail-slow VRIs, the grace window, and incarnation forgetting.
#include <gtest/gtest.h>

#include <vector>

#include "lvrm/health_monitor.hpp"

namespace lvrm {
namespace {

VriProbe probe(int vri, std::uint64_t progress, std::size_t backlog,
               double rate = 0.0, bool reachable = true) {
  return VriProbe{vri, reachable, progress, backlog, rate};
}

TEST(HealthMonitor, FirstSampleIsBaselineOnly) {
  HealthMonitor mon;
  // Even an unreachable or frozen VRI produces no verdict on its very first
  // probe: there is no baseline to compare against yet.
  std::vector<VriProbe> ps = {probe(0, 0, 50)};
  EXPECT_TRUE(mon.probe(0, ps, msec(100)).empty());
}

TEST(HealthMonitor, DeadDetectedImmediatelyAfterBaseline) {
  HealthMonitor mon;
  std::vector<VriProbe> ps = {probe(0, 10, 0)};
  ASSERT_TRUE(mon.probe(0, ps, msec(100)).empty());
  ps = {probe(0, 10, 0, 0.0, /*reachable=*/false)};
  const auto verdicts = mon.probe(0, ps, msec(200));
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].vri, 0);
  EXPECT_EQ(verdicts[0].state, VriHealth::kDead);
  EXPECT_EQ(mon.dead_detected(), 1u);
}

TEST(HealthMonitor, HangNeedsBacklogAndTimeout) {
  HealthMonitor mon;
  std::vector<VriProbe> ps = {probe(0, 42, 10)};
  ASSERT_TRUE(mon.probe(0, ps, msec(0)).empty());
  // Frozen, but the stall is younger than kHeartbeatTimeout (250 ms): no
  // verdict at 100/200 ms...
  EXPECT_TRUE(mon.probe(0, ps, msec(100)).empty());
  EXPECT_TRUE(mon.probe(0, ps, msec(200)).empty());
  // ...and fires at 300 ms with the true stall age.
  const auto verdicts = mon.probe(0, ps, msec(300));
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].state, VriHealth::kHung);
  EXPECT_EQ(verdicts[0].stalled_for, msec(300));
  EXPECT_EQ(mon.hung_detected(), 1u);
}

TEST(HealthMonitor, IdleFrozenVriIsNotHung) {
  HealthMonitor mon;
  // No backlog: a VRI with nothing to do legitimately makes no progress.
  std::vector<VriProbe> ps = {probe(0, 42, 0)};
  ASSERT_TRUE(mon.probe(0, ps, msec(0)).empty());
  EXPECT_TRUE(mon.probe(0, ps, sec(10)).empty());
  EXPECT_EQ(mon.hung_detected(), 0u);
}

TEST(HealthMonitor, ProgressResetsTheStallTimer) {
  HealthMonitor mon;
  std::vector<VriProbe> ps = {probe(0, 1, 5)};
  ASSERT_TRUE(mon.probe(0, ps, msec(0)).empty());
  ps = {probe(0, 2, 5)};  // advanced at 200 ms
  EXPECT_TRUE(mon.probe(0, ps, msec(200)).empty());
  // Frozen since 200 ms; at 400 ms the stall is only 200 ms old.
  EXPECT_TRUE(mon.probe(0, ps, msec(400)).empty());
  const auto verdicts = mon.probe(0, ps, msec(500));
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].stalled_for, msec(300));
}

TEST(HealthMonitor, FailSlowNeedsConsecutiveStrikes) {
  HealthMonitor mon;
  // VRI 0 runs at 10 Kfps while its three siblings run at 60 Kfps: below
  // half the sibling median, so each probe is a strike; the verdict fires on
  // the third consecutive one.
  auto pass = [&](Nanos now, double rate0) {
    std::vector<VriProbe> ps = {
        probe(0, static_cast<std::uint64_t>(now), 5, rate0),
        probe(1, static_cast<std::uint64_t>(now), 5, 60'000.0),
        probe(2, static_cast<std::uint64_t>(now), 5, 60'000.0),
        probe(3, static_cast<std::uint64_t>(now), 5, 60'000.0)};
    return mon.probe(0, ps, now);
  };
  ASSERT_TRUE(pass(msec(0), 10'000.0).empty());   // baseline
  EXPECT_TRUE(pass(msec(100), 10'000.0).empty()); // strike 1
  EXPECT_TRUE(mon.is_suspect(0, 0));
  EXPECT_FALSE(mon.is_suspect(0, 1));
  EXPECT_TRUE(pass(msec(200), 10'000.0).empty()); // strike 2
  const auto verdicts = pass(msec(300), 10'000.0);
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].vri, 0);
  EXPECT_EQ(verdicts[0].state, VriHealth::kFailSlow);
  EXPECT_EQ(mon.fail_slow_detected(), 1u);
}

TEST(HealthMonitor, RecoveryDuringGraceClearsStrikes) {
  HealthMonitor mon;
  auto pass = [&](Nanos now, double rate0) {
    std::vector<VriProbe> ps = {
        probe(0, static_cast<std::uint64_t>(now), 5, rate0),
        probe(1, static_cast<std::uint64_t>(now), 5, 60'000.0),
        probe(2, static_cast<std::uint64_t>(now), 5, 60'000.0)};
    return mon.probe(0, ps, now);
  };
  ASSERT_TRUE(pass(msec(0), 10'000.0).empty());
  EXPECT_TRUE(pass(msec(100), 10'000.0).empty());  // strike 1
  EXPECT_TRUE(pass(msec(200), 10'000.0).empty());  // strike 2
  // Back to full speed: strikes reset, suspect mark clears.
  EXPECT_TRUE(pass(msec(300), 59'000.0).empty());
  EXPECT_FALSE(mon.is_suspect(0, 0));
  // Two more slow probes are strikes 1-2 again, not a verdict.
  EXPECT_TRUE(pass(msec(400), 10'000.0).empty());
  EXPECT_TRUE(pass(msec(500), 10'000.0).empty());
  EXPECT_EQ(mon.fail_slow_detected(), 0u);
}

TEST(HealthMonitor, SingleVriIsNeverFailSlow) {
  HealthMonitor mon;
  // No siblings -> no median -> the watchdog cannot condemn the only VRI.
  for (int i = 0; i < 10; ++i) {
    std::vector<VriProbe> ps = {
        probe(0, static_cast<std::uint64_t>(i), 5, 1'000.0)};
    EXPECT_TRUE(mon.probe(0, ps, msec(100) * i).empty());
  }
  EXPECT_EQ(mon.fail_slow_detected(), 0u);
}

TEST(HealthMonitor, ForgetStartsAFreshIncarnation) {
  HealthMonitor mon;
  std::vector<VriProbe> ps = {probe(0, 7, 5)};
  ASSERT_TRUE(mon.probe(0, ps, msec(0)).empty());
  mon.forget(0, 0);
  // Same frozen counter, way past the timeout — but this is a fresh
  // incarnation's first sample, so it only sets the new baseline.
  EXPECT_TRUE(mon.probe(0, ps, sec(5)).empty());
  // The timeout now counts from the re-baseline.
  EXPECT_TRUE(mon.probe(0, ps, sec(5) + msec(200)).empty());
  EXPECT_EQ(mon.probe(0, ps, sec(5) + msec(300)).size(), 1u);
}

TEST(HealthMonitor, VrsAreTrackedIndependently) {
  HealthMonitor mon;
  std::vector<VriProbe> ps = {probe(0, 3, 5)};
  ASSERT_TRUE(mon.probe(0, ps, msec(0)).empty());
  // VR 1's VRI 0 is a different key: its first probe is baseline-only even
  // though VR 0's VRI 0 is already long overdue.
  EXPECT_TRUE(mon.probe(1, ps, sec(1)).empty());
  EXPECT_EQ(mon.probe(0, ps, sec(1)).size(), 1u);
}

}  // namespace
}  // namespace lvrm
