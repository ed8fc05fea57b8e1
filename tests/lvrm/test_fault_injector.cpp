// FaultInjector: the scriptable fault harness (hang / slowdown / control
// loss / crash) against a stock system — i.e. with the health monitor OFF —
// establishing the failure modes the recovery tests then close.
#include <gtest/gtest.h>

#include "exp/rig.hpp"

namespace lvrm {
namespace {

using namespace exp;

LvrmConfig fixed_cfg() {
  LvrmConfig cfg;
  cfg.allocator = AllocatorKind::kFixed;
  return cfg;
}

TEST(FaultInjector, HangIsInvisibleToStockSupervision) {
  // A hung process has nothing for waitpid() to reap: the stock 1 s pass
  // never notices, the slot stays "active" forever, and only JSQ steering
  // around the growing queue keeps part of the traffic alive.
  LvrmRig rig(fixed_cfg(), 3);
  rig.offer(150'000.0, sec(6));
  rig.faults->schedule({.kind = FaultKind::kHang, .vri = 1, .at = sec(2)});
  rig.sim.run_all();
  EXPECT_EQ(rig.sys->crashed_vris_reaped(), 0u);
  EXPECT_EQ(rig.sys->active_vris(0), 3);  // corpse-walking, still counted
  EXPECT_TRUE(rig.sys->recovery_log().empty());
  // The hung VRI's queue backed up to capacity and stayed there.
  EXPECT_GT(rig.sys->data_queue_drops(), 0u);
  EXPECT_LT(rig.delivered(), rig.sent());
}

TEST(FaultInjector, TransientHangResumesByItself) {
  LvrmRig rig(fixed_cfg(), 1);
  rig.offer(30'000.0, sec(4));
  rig.faults->schedule({.kind = FaultKind::kHang,
                        .vri = 0,
                        .at = sec(1),
                        .duration = msec(300)});
  std::uint64_t at_hang = 0;
  std::uint64_t stall_end = 0;
  rig.sim.at(sec(1) + msec(50), [&] { at_hang = rig.delivered(); });
  rig.sim.at(sec(1) + msec(295), [&] { stall_end = rig.delivered(); });
  rig.sim.run_all();
  // Frozen through the stall window (at most the in-flight frame completes),
  // then serving again — including the backlog — once the stall clears.
  EXPECT_LE(stall_end - at_hang, 2u);
  EXPECT_GT(rig.delivered(), stall_end + 10'000u);
}

TEST(FaultInjector, SlowdownCutsDeliveryRate) {
  // One VRI at ~50 Kfps offered, 60 Kfps capacity. A 4x slowdown drops its
  // capacity to 15 Kfps: deliveries in equal windows collapse accordingly.
  LvrmRig rig(fixed_cfg(), 1);
  rig.offer(50'000.0, sec(4));
  rig.faults->schedule(
      {.kind = FaultKind::kSlowdown, .vri = 0, .at = sec(2), .magnitude = 4.0});
  std::uint64_t at_1s = 0;
  std::uint64_t at_2s = 0;
  std::uint64_t at_3s = 0;
  rig.sim.at(sec(1), [&] { at_1s = rig.delivered(); });
  rig.sim.at(sec(2), [&] { at_2s = rig.delivered(); });
  rig.sim.at(sec(3), [&] { at_3s = rig.delivered(); });
  rig.sim.run_all();
  const auto before = static_cast<double>(at_2s - at_1s);
  const auto after = static_cast<double>(at_3s - at_2s);
  EXPECT_GT(before, 45'000.0);
  EXPECT_LT(after, 25'000.0);
}

TEST(FaultInjector, TransientSlowdownRecoversFullRate) {
  LvrmRig rig(fixed_cfg(), 1);
  rig.offer(50'000.0, sec(5));
  rig.faults->schedule({.kind = FaultKind::kSlowdown,
                        .vri = 0,
                        .at = sec(1),
                        .duration = sec(1),
                        .magnitude = 4.0});
  std::uint64_t at_3s = 0;
  std::uint64_t at_4s = 0;
  rig.sim.at(sec(3), [&] { at_3s = rig.delivered(); });
  rig.sim.at(sec(4), [&] { at_4s = rig.delivered(); });
  rig.sim.run_all();
  // Well after the fault cleared (and the backlog drained): full rate again.
  EXPECT_GT(static_cast<double>(at_4s - at_3s), 45'000.0);
}

TEST(FaultInjector, ControlLossDropsRelayedEvents) {
  LvrmRig rig(fixed_cfg(), 2);
  rig.faults->inject({.kind = FaultKind::kControlLoss,
                      .vri = 1,
                      .magnitude = 1.0});  // every event to VRI 1 is lost
  bool delivered = false;
  rig.sys->send_control(0, 0, 1, 64, [&](Nanos) { delivered = true; });
  // Control relay happens on the poll loop; drive it with a little traffic.
  rig.offer(10'000.0, msec(100));
  rig.sim.run_all();
  EXPECT_FALSE(delivered);

  // Restore reliability: the next event arrives.
  rig.faults->inject(
      {.kind = FaultKind::kControlLoss, .vri = 1, .magnitude = 0.0});
  rig.sys->send_control(0, 0, 1, 64, [&](Nanos) { delivered = true; });
  rig.offer(10'000.0, msec(100));
  rig.sim.run_all();
  EXPECT_TRUE(delivered);
}

TEST(FaultInjector, ScheduleFiresAtTheGivenTime) {
  LvrmRig rig(fixed_cfg(), 3);
  rig.offer(150'000.0, sec(4));
  rig.faults->schedule({.kind = FaultKind::kCrash, .vri = 0, .at = sec(2)});
  rig.sim.run_until(sec(2) - msec(1));
  EXPECT_EQ(rig.sys->crashed_vris_reaped(), 0u);  // not yet injected
  rig.sim.run_all();
  EXPECT_EQ(rig.sys->crashed_vris_reaped(), 1u);  // injected, then reaped
  ASSERT_EQ(rig.faults->log().size(), 1u);
  EXPECT_EQ(rig.faults->log()[0].kind, FaultKind::kCrash);
}

TEST(FaultInjector, LogRecordsInjectionOrder) {
  LvrmRig rig(fixed_cfg(), 3);
  rig.faults->inject({.kind = FaultKind::kSlowdown, .vri = 0});
  rig.faults->inject({.kind = FaultKind::kHang, .vri = 1});
  ASSERT_EQ(rig.faults->log().size(), 2u);
  EXPECT_EQ(rig.faults->log()[0].kind, FaultKind::kSlowdown);
  EXPECT_EQ(rig.faults->log()[1].kind, FaultKind::kHang);
}

}  // namespace
}  // namespace lvrm
