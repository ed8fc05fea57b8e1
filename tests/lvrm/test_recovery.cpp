// End-to-end recovery: the health monitor's verdicts driving quarantine,
// state-consistent respawn, stranded-frame re-dispatch and the overload
// tail drop through LvrmSystem. Counterpart of test_fault_injector.cpp,
// which shows the same faults UNdetected on the stock system.
#include <gtest/gtest.h>

#include <functional>

#include "common/log.hpp"
#include "rig.hpp"

namespace lvrm {
namespace {

HealthConfig enabled_health() {
  HealthConfig h;
  h.enabled = true;
  return h;
}

route::RouteUpdate add_route(const char* prefix, int out) {
  route::RouteUpdate u;
  u.add = true;
  u.entry.prefix = *net::parse_prefix(prefix);
  u.entry.output_if = out;
  return u;
}

LvrmConfig fixed_with_health() {
  LvrmConfig cfg;
  cfg.allocator = AllocatorKind::kFixed;
  cfg.health = enabled_health();
  return cfg;
}

TEST(Recovery, HeartbeatDetectsCrashInsideTheAllocationPeriod) {
  LvrmRig rig(fixed_with_health(), 3);
  rig.offer(150'000.0, sec(5));
  const Nanos inject_at = sec(2) + msec(350);  // mid allocation period
  rig.faults->schedule({.kind = FaultKind::kCrash, .vri = 1, .at = inject_at});
  rig.sim.run_all();

  ASSERT_EQ(rig.sys->recovery_log().size(), 1u);
  const RecoveryEvent& ev = rig.sys->recovery_log()[0];
  EXPECT_EQ(ev.reason, VriHealth::kDead);
  EXPECT_TRUE(ev.respawned);
  // Detected by the next heartbeat (100 ms period), far inside the ~650 ms
  // the stock once-per-second pass would have left the corpse unnoticed.
  EXPECT_LE(ev.time - inject_at, msec(150));
  // The heartbeat got there first, so the allocation pass found no corpse.
  EXPECT_EQ(rig.sys->crashed_vris_reaped(), 0u);
  EXPECT_EQ(rig.sys->active_vris(0), 3);
}

TEST(Recovery, HungVriIsQuarantinedRespawnedAndConserved) {
  // Captured via the log sink (no stderr scraping): the quarantine decision
  // must be announced on the [health] channel, not just visible in counters.
  CapturingLogSink sink;
  LvrmRig rig(fixed_with_health(), 3);
  rig.offer(150'000.0, sec(6));
  rig.faults->schedule({.kind = FaultKind::kHang, .vri = 1, .at = sec(2)});
  std::uint64_t at_5s = 0;
  rig.sim.at(sec(5), [&] { at_5s = rig.delivered(); });
  rig.sim.run_all();

  EXPECT_TRUE(sink.contains("vri=1 quarantined (hung)"));
  bool health_tagged = false;
  for (const auto& entry : sink.entries())
    if (entry.component == LogComponent::kHealth &&
        entry.level == LogLevel::kWarn)
      health_tagged = true;
  EXPECT_TRUE(health_tagged);

  ASSERT_EQ(rig.sys->recovery_log().size(), 1u);
  const RecoveryEvent& ev = rig.sys->recovery_log()[0];
  EXPECT_EQ(ev.reason, VriHealth::kHung);
  EXPECT_GE(ev.stalled_for, kHeartbeatTimeout);
  EXPECT_TRUE(ev.respawned);
  EXPECT_EQ(rig.sys->active_vris(0), 3);

  // The frames stuck in the hung VRI's queue were rescued, not dropped.
  EXPECT_GT(ev.stranded, 0u);
  EXPECT_EQ(rig.sys->redispatched_frames(), ev.redispatched);

  // Full capacity again in the final second (hang no longer blackholes).
  EXPECT_GT(static_cast<double>(rig.delivered() - at_5s), 140'000.0);

  // Frame conservation: every sent frame is delivered or in a drop counter.
  EXPECT_TRUE(rig.conserved());
}

TEST(Recovery, FailSlowVriIsDetectedByTheWatchdog) {
  LvrmRig rig(fixed_with_health(), 3);
  rig.offer(150'000.0, sec(6));
  // An 8x slowdown: the VRI still makes progress (never "hung") but serves
  // ~7.5 Kfps against its siblings' 60 Kfps — only the rate watchdog sees it.
  rig.faults->schedule(
      {.kind = FaultKind::kSlowdown, .vri = 2, .at = sec(2), .magnitude = 8.0});
  std::uint64_t at_5s = 0;
  rig.sim.at(sec(5), [&] { at_5s = rig.delivered(); });
  rig.sim.run_all();

  ASSERT_GE(rig.sys->recovery_log().size(), 1u);
  const RecoveryEvent& ev = rig.sys->recovery_log()[0];
  EXPECT_EQ(ev.reason, VriHealth::kFailSlow);
  EXPECT_EQ(ev.vri, 2);
  EXPECT_TRUE(ev.respawned);
  ASSERT_NE(rig.sys->health(), nullptr);
  EXPECT_GE(rig.sys->health()->fail_slow_detected(), 1u);
  // The respawn shed the slowdown (a sick process dies with its sickness).
  EXPECT_GT(static_cast<double>(rig.delivered() - at_5s), 140'000.0);
  EXPECT_TRUE(rig.conserved());
}

TEST(Recovery, CrashStrandedFramesAreRedispatched) {
  LvrmRig rig(fixed_with_health(), 3);
  rig.offer(150'000.0, sec(4));
  // Mid-period, so the heartbeat (not the 1 s reap pass) finds the corpse.
  rig.faults->schedule(
      {.kind = FaultKind::kCrash, .vri = 0, .at = sec(2) + msec(350)});
  rig.sim.run_all();

  ASSERT_EQ(rig.sys->recovery_log().size(), 1u);
  const RecoveryEvent& ev = rig.sys->recovery_log()[0];
  EXPECT_GT(ev.stranded, 0u);
  EXPECT_EQ(ev.redispatched, ev.stranded);  // survivors had queue headroom
  EXPECT_EQ(rig.sys->redispatched_frames(), ev.redispatched);
  EXPECT_TRUE(rig.conserved());
}

TEST(Recovery, LastVriReapedBeforeTheHeartbeatDropsThroughTheHook) {
  // The allocation pass reaps the only VRI of a dynamic-allocator VR before
  // the heartbeat sees the corpse. With no survivor to rescue onto, the
  // stranded frames are dropped, and each must reach the drop hook.
  LvrmConfig cfg;
  cfg.allocator = AllocatorKind::kDynamicFixedThreshold;
  cfg.health = enabled_health();
  LvrmRig rig(cfg, 1);
  rig.offer(30'000.0, sec(2));
  // After the 900 ms heartbeat probe, before the 1 s allocation pass.
  rig.faults->schedule({.kind = FaultKind::kCrash, .vri = 0, .at = msec(970)});
  rig.sim.run_all();

  EXPECT_EQ(rig.sys->crashed_vris_reaped(), 1u);
  EXPECT_GT(rig.check.drops(DropCause::kVriDestroyed), 0u);
  EXPECT_TRUE(rig.conserved());
}

TEST(Recovery, ReapedVriRespawnsWithoutItsInjectedSlowdown) {
  // The stock 1 s reap (health off) respawns the fixed set as a fresh fork,
  // so a slowdown injected into the dead process must not slow its
  // replacement.
  LvrmConfig cfg;
  cfg.allocator = AllocatorKind::kFixed;
  LvrmRig rig(cfg, 2);
  rig.offer(100'000.0, sec(3));
  rig.sim.at(msec(500), [&] {
    rig.sys->inject_vri_slowdown(0, 1, 6.0);
    rig.sys->inject_vri_crash(0, 1);
  });
  std::uint64_t sibling = 0, respawned = 0;
  rig.sim.at(msec(1500), [&] {
    sibling = rig.sys->vri_forwarded(0, 0);
    respawned = rig.sys->vri_forwarded(0, 1);
  });
  rig.sim.at(msec(2500), [&] {
    sibling = rig.sys->vri_forwarded(0, 0) - sibling;
    respawned = rig.sys->vri_forwarded(0, 1) - respawned;
  });
  rig.sim.run_all();

  EXPECT_EQ(rig.sys->crashed_vris_reaped(), 1u);
  // Each serves half the offered 100 Kfps; a 6x slow fork manages ~10 Kfps.
  EXPECT_GT(respawned, 45'000u);
  EXPECT_NEAR(static_cast<double>(respawned), static_cast<double>(sibling),
              2'000.0);
  EXPECT_TRUE(rig.conserved());
}

TEST(Recovery, DestroyedVriIsRecreatedWithoutItsInjectedSlowdown) {
  // Fig 3.2's destroy kills the VRI process, so a VRI the allocator destroys
  // and later creates again is a fresh fork: a slowdown injected into the
  // killed process must not slow its successor. VRI 2 is slowed 6x at 2.5 s,
  // the dip makes the 4 s pass destroy it and the 5 s pass create it again.
  LvrmConfig cfg;
  cfg.allocator = AllocatorKind::kDynamicFixedThreshold;
  LvrmRig rig(cfg, 1);
  rig.offer(150'000.0, msec(3870));
  rig.offer(40'000.0, msec(4500), port_flows(), msec(3870));
  rig.offer(150'000.0, msec(6500), port_flows(), msec(4500));
  rig.sim.at(msec(2500), [&] { rig.sys->inject_vri_slowdown(0, 2, 6.0); });
  std::uint64_t sibling = 0, recreated = 0;
  rig.sim.at(msec(5500), [&] {
    sibling = rig.sys->vri_forwarded(0, 0);
    recreated = rig.sys->vri_forwarded(0, 2);
  });
  rig.sim.at(msec(6500), [&] {
    sibling = rig.sys->vri_forwarded(0, 0) - sibling;
    recreated = rig.sys->vri_forwarded(0, 2) - recreated;
  });
  rig.sim.run_all();

  const auto& log = rig.sys->allocation_log();
  ASSERT_EQ(log.size(), 4u);
  EXPECT_FALSE(log[2].create);  // 4 s: VRI 2 destroyed
  EXPECT_TRUE(log[3].create);   // 5 s: VRI 2 created again
  // Each of three VRIs serves a third of 150 Kfps; the killed 6x process
  // managed about 10 Kfps.
  EXPECT_GT(recreated, 45'000u);
  EXPECT_NEAR(static_cast<double>(recreated), static_cast<double>(sibling),
              2'000.0);
  EXPECT_TRUE(rig.conserved());
}

TEST(Recovery, DestroyedVriLeavesNoStaleSuspicion) {
  // The allocator destroys a VRI inside its fail-slow grace window: a 3x
  // slowdown on VRI 2 strikes at the 3.8 s and 3.9 s probes, and the load
  // cut makes the 4 s pass destroy VRI 2 before a third strike. Its health
  // record must go with it, or the slot's next process would inherit the
  // dead one's strikes.
  LvrmConfig cfg;
  cfg.allocator = AllocatorKind::kDynamicFixedThreshold;
  cfg.health = enabled_health();
  LvrmRig rig(cfg, 1);
  rig.offer(150'000.0, msec(3870));
  rig.offer(40'000.0, sec(5), port_flows(), msec(3870));
  rig.sim.at(msec(3750), [&] { rig.sys->inject_vri_slowdown(0, 2, 3.0); });
  bool suspect_before = false;
  rig.sim.at(msec(3990), [&] {
    suspect_before = rig.sys->health()->is_suspect(0, 2);
  });
  rig.sim.run_all();

  ASSERT_TRUE(suspect_before);
  ASSERT_FALSE(rig.sys->allocation_log().empty());
  const AllocationEvent& destroy = rig.sys->allocation_log().back();
  EXPECT_FALSE(destroy.create);
  EXPECT_EQ(rig.sys->active_vris(0), 2);
  EXPECT_TRUE(rig.sys->recovery_log().empty());
  EXPECT_FALSE(rig.sys->health()->is_suspect(0, 2));
  EXPECT_TRUE(rig.conserved());
}

TEST(Recovery, RespawnedVriReplaysRouteUpdatesHealthPath) {
  // Satellite regression: a dynamic route broadcast BEFORE the crash must be
  // present in the respawned (fresh-process) incarnation. Round-robin makes
  // every VRI — including the respawn — carry traffic.
  LvrmConfig cfg = fixed_with_health();
  cfg.balancer = BalancerKind::kRoundRobin;
  LvrmRig rig(cfg, 2);
  rig.sys->broadcast_route_update(0, 0, add_route("10.9.0.0/16", 1));
  rig.sim.run_all();

  // Steady traffic to the NEW prefix; VRI 1 dies mid-stream and respawns.
  std::function<void()> emit;
  emit = [&rig, &emit] {
    if (rig.sim.now() >= sec(3)) return;
    net::FrameMeta f;
    f.id = rig.next_id++;
    f.src_ip = net::ipv4(10, 1, 0, 1);
    f.dst_ip = net::ipv4(10, 9, 0, 7);  // only routable via the update
    rig.ingress(f);
    rig.sim.after(interval_for_rate(50'000.0), emit);
  };
  rig.sim.at(0, emit);
  rig.faults->schedule(
      {.kind = FaultKind::kCrash, .vri = 1, .at = sec(1) + msec(350)});
  rig.sim.run_all();

  ASSERT_EQ(rig.sys->recovery_log().size(), 1u);
  EXPECT_TRUE(rig.sys->recovery_log()[0].respawned);
  // A fresh fork without the replay would no-route half the stream.
  EXPECT_EQ(rig.sys->drops(DropCause::kNoRoute), 0u);
  EXPECT_TRUE(rig.conserved());
}

TEST(Recovery, RespawnedVriReplaysRouteUpdatesStockReapPath) {
  // Same regression through the stock 1 s reap (health disabled): the
  // fixed allocator's respawn must also rebuild from the route log.
  LvrmConfig cfg;
  cfg.allocator = AllocatorKind::kFixed;
  cfg.balancer = BalancerKind::kRoundRobin;
  LvrmRig rig(cfg, 2);
  rig.sys->broadcast_route_update(0, 0, add_route("10.9.0.0/16", 1));
  rig.sim.run_all();

  std::function<void()> emit;
  emit = [&rig, &emit] {
    if (rig.sim.now() >= sec(4)) return;
    net::FrameMeta f;
    f.id = rig.next_id++;
    f.src_ip = net::ipv4(10, 1, 0, 1);
    f.dst_ip = net::ipv4(10, 9, 0, 7);
    rig.ingress(f);
    rig.sim.after(interval_for_rate(50'000.0), emit);
  };
  rig.sim.at(0, emit);
  rig.faults->schedule({.kind = FaultKind::kCrash, .vri = 1, .at = sec(1)});
  rig.sim.run_all();

  EXPECT_EQ(rig.sys->crashed_vris_reaped(), 1u);
  EXPECT_EQ(rig.sys->active_vris(0), 2);
  EXPECT_EQ(rig.sys->drops(DropCause::kNoRoute), 0u);
}

TEST(Recovery, OverloadWithoutTheLadderTailDropsAndConserves) {
  // One VRI that cannot grow and no §13 ladder: the only overload response
  // left is the data queue's tail drop, and every frame stays accounted for.
  LvrmConfig cfg;
  cfg.allocator = AllocatorKind::kFixed;
  cfg.max_vris_per_vr = 1;
  LvrmRig rig(cfg, 1);
  rig.offer(120'000.0, sec(2));  // 2x the 60 Kfps capacity
  rig.sim.run_all();
  EXPECT_GT(rig.sys->data_queue_drops(), 0u);
  EXPECT_TRUE(rig.conserved());
}

TEST(Recovery, CapacityEstimateTracksActiveVris) {
  LvrmRig rig(fixed_with_health(), 3);
  rig.offer(150'000.0, sec(3));
  rig.sim.run_all();
  // Three VRIs under the 1/60 ms dummy load: ~180 Kfps aggregate.
  EXPECT_NEAR(rig.sys->capacity_estimate(0), 180'000.0, 20'000.0);
}

}  // namespace
}  // namespace lvrm
