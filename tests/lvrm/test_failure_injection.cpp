// Failure injection: a VRI process dies; LVRM's once-per-period monitor pass
// reaps it and restores capacity.
#include <gtest/gtest.h>

#include "exp/rig.hpp"

namespace lvrm {
namespace {

using namespace exp;

LvrmConfig with_allocator(AllocatorKind allocator) {
  LvrmConfig cfg;
  cfg.allocator = allocator;
  return cfg;
}

TEST(FailureInjection, FixedAllocatorRespawnsCrashedVri) {
  LvrmRig rig(with_allocator(AllocatorKind::kFixed), 3);
  rig.offer(150'000.0, sec(6));
  rig.sim.at(sec(2), [&rig] { rig.sys->inject_vri_crash(0, 1); });
  rig.sim.run_until(sec(2) + msec(10));
  EXPECT_EQ(rig.sys->active_vris(0), 3);  // corpse not yet noticed
  rig.sim.run_all();
  EXPECT_EQ(rig.sys->crashed_vris_reaped(), 1u);
  EXPECT_EQ(rig.sys->active_vris(0), 3);  // reaped and respawned
}

TEST(FailureInjection, DynamicAllocatorRegrowsCapacity) {
  LvrmRig rig(with_allocator(AllocatorKind::kDynamicFixedThreshold), 1);
  rig.offer(150'000.0, sec(10));
  rig.sim.run_until(sec(4));
  ASSERT_EQ(rig.sys->active_vris(0), 3);  // 150 Kfps -> 3 cores
  rig.sys->inject_vri_crash(0, rig.sys->vri_cores(0).empty() ? 0 : 1);
  rig.sim.run_all();
  EXPECT_EQ(rig.sys->crashed_vris_reaped(), 1u);
  // The dynamic allocator regrew to the load's requirement.
  EXPECT_EQ(rig.sys->active_vris(0), 3);
}

TEST(FailureInjection, ThroughputRecoversAfterCrash) {
  LvrmRig rig(with_allocator(AllocatorKind::kDynamicFixedThreshold), 1);
  rig.offer(150'000.0, sec(12));
  rig.sim.run_until(sec(4));
  const std::uint64_t before_crash = rig.delivered();
  rig.sys->inject_vri_crash(0, 0);
  rig.sim.run_until(sec(11));
  // Measure the final second: capacity restored to ~150 Kfps.
  const std::uint64_t at_11s = rig.delivered();
  rig.sim.run_until(sec(12));
  const auto last_second = static_cast<double>(rig.delivered() - at_11s);
  EXPECT_GT(last_second, 140'000.0);
  EXPECT_GT(rig.delivered(), before_crash);
}

TEST(FailureInjection, JsqRoutesAroundDeadVriBeforeReaping) {
  // Between the crash and the next monitor pass, the dead VRI's queue fills;
  // JSQ's queue-length estimate steers new frames to the live VRIs, so most
  // traffic survives even the detection window.
  LvrmRig rig(with_allocator(AllocatorKind::kFixed), 3);
  rig.offer(150'000.0, sec(4));
  rig.sim.run_until(sec(2));
  rig.sys->inject_vri_crash(0, 0);
  const std::uint64_t at_crash = rig.delivered();
  rig.sim.run_until(sec(3));  // detection window (~1 s pass period)
  const auto during = static_cast<double>(rig.delivered() - at_crash);
  // Two healthy 60 Kfps VRIs remain -> at least ~their capacity flows.
  EXPECT_GT(during, 100'000.0);
}

TEST(FailureInjection, CrashingInactiveSlotIsNoop) {
  LvrmRig rig(with_allocator(AllocatorKind::kFixed), 2);
  rig.sys->inject_vri_crash(0, 5);  // slot exists but is inactive
  rig.offer(50'000.0, msec(100));
  rig.sim.run_all();
  EXPECT_EQ(rig.sys->crashed_vris_reaped(), 0u);
  EXPECT_EQ(rig.sys->active_vris(0), 2);
}

TEST(FailureInjection, SlowingInactiveSlotIsNoop) {
  // A slowdown aimed at a slot with no running VRI has no process to slow:
  // the VRI the 1 s pass later creates there runs at full speed.
  LvrmRig rig(with_allocator(AllocatorKind::kDynamicFixedThreshold), 1);
  rig.offer(100'000.0, sec(4));
  rig.sim.at(msec(500), [&rig] { rig.sys->inject_vri_slowdown(0, 1, 6.0); });
  std::uint64_t first = 0, created = 0;
  rig.sim.at(msec(2500), [&] {
    first = rig.sys->vri_forwarded(0, 0);
    created = rig.sys->vri_forwarded(0, 1);
  });
  rig.sim.at(msec(3500), [&] {
    first = rig.sys->vri_forwarded(0, 0) - first;
    created = rig.sys->vri_forwarded(0, 1) - created;
  });
  rig.sim.run_all();
  // Each of two VRIs serves half the offered 100 Kfps; a 6x slow one
  // manages about 10 Kfps.
  EXPECT_GT(created, 45'000u);
  EXPECT_NEAR(static_cast<double>(created), static_cast<double>(first),
              2'000.0);
}

TEST(FailureInjection, ControlLossOnInactiveSlotIsNoop) {
  // Control loss aimed at a slot with no running VRI must not follow the
  // VRI the 1 s pass later creates there.
  LvrmRig rig(with_allocator(AllocatorKind::kDynamicFixedThreshold), 1);
  rig.offer(100'000.0, sec(3));
  rig.sim.at(msec(500), [&rig] { rig.sys->inject_control_loss(0, 1, 1.0); });
  int arrived = 0;
  for (int i = 0; i < 10; ++i) {
    rig.sim.at(sec(2) + usec(100) * i, [&rig, &arrived] {
      rig.sys->send_control(0, 0, 1, 64, [&arrived](Nanos) { ++arrived; });
    });
  }
  rig.sim.run_all();
  EXPECT_EQ(arrived, 10);
}

TEST(FailureInjection, FlowPinsEvictedOnCrash) {
  // Flow-based mode: flows pinned to the dead VRI must re-pin after reaping.
  LvrmConfig cfg = with_allocator(AllocatorKind::kFixed);
  cfg.granularity = BalancerGranularity::kFlow;
  LvrmRig rig(cfg, 2, 0);
  rig.keep_egress = true;
  for (int i = 0; i < 50; ++i) {
    rig.sim.at(msec(40) * i, [&rig] {
      net::FrameMeta f = host_flow()(rig.next_id++);
      f.src_port = 4242;  // one flow
      rig.ingress(f);
    });
  }
  rig.sim.run_until(msec(200));
  ASSERT_FALSE(rig.out.empty());
  const int pinned = rig.out.front().dispatch_vri;
  rig.sim.at(msec(210),
             [&rig, pinned] { rig.sys->inject_vri_crash(0, pinned); });
  rig.sim.run_all();
  // After reap + respawn, the flow flows again on a live VRI.
  ASSERT_GT(rig.out.size(), 30u);
  EXPECT_GT(rig.out.back().id, 40u);
}

}  // namespace
}  // namespace lvrm
