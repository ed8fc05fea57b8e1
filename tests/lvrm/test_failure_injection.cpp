// Failure injection: a VRI process dies; LVRM's once-per-period monitor pass
// reaps it and restores capacity.
#include <gtest/gtest.h>

#include <vector>

#include "rig.hpp"

namespace lvrm {
namespace {

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

TEST(FailureInjection, FlowPinsEvictedOnCrash) {
  // Flow-based mode: flows pinned to the dead VRI must re-pin after reaping.
  sim::Simulator sim;
  sim::CpuTopology topo;
  LvrmConfig cfg;
  cfg.allocator = AllocatorKind::kFixed;
  cfg.granularity = BalancerGranularity::kFlow;
  LvrmSystem sys(sim, topo, cfg);
  VrConfig vr;
  vr.initial_vris = 2;
  sys.add_vr(vr);
  sys.start();
  std::vector<net::FrameMeta> out;
  sys.set_egress([&](net::FrameMeta&& f) { out.push_back(f); });

  auto frame = [&](std::uint64_t id) {
    net::FrameMeta f;
    f.id = id;
    f.src_ip = net::ipv4(10, 1, 0, 1);
    f.dst_ip = net::ipv4(10, 2, 0, 1);
    f.src_port = 4242;  // one flow
    f.protocol = 17;
    return f;
  };
  std::uint64_t id = 0;
  for (int i = 0; i < 50; ++i)
    sim.at(msec(40) * i, [&sys, &frame, &id] { sys.ingress(frame(id++)); });
  sim.run_until(msec(200));
  ASSERT_FALSE(out.empty());
  const int pinned = out.front().dispatch_vri;
  sim.at(msec(210), [&sys, pinned] { sys.inject_vri_crash(0, pinned); });
  sim.run_all();
  // After reap + respawn, the flow flows again on a live VRI.
  ASSERT_GT(out.size(), 30u);
  EXPECT_GT(out.back().id, 40u);
}

}  // namespace
}  // namespace lvrm
