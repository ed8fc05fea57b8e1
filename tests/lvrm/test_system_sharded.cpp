// Sharded dispatch plane (DESIGN.md §11): RSS flow steering keeps every flow
// on one shard, per-flow ordering and frame conservation survive a VRI crash
// + respawn on one shard, the two-level NUMA picker reports honest tiers,
// and per-shard telemetry/audit labels appear exactly when shards do.
#include <gtest/gtest.h>

#include <vector>

#include "exp/rig.hpp"
#include "lvrm/core_allocator.hpp"
#include "sim/topology.hpp"

namespace lvrm {
namespace {

using namespace exp;

LvrmConfig sharded_cfg(int shards) {
  LvrmConfig cfg;
  cfg.allocator = AllocatorKind::kFixed;
  cfg.granularity = BalancerGranularity::kFlow;
  cfg.dispatch_shards = shards;
  return cfg;
}

TEST(ShardedDispatch, SingleShardIsTheUnshardedSystem) {
  LvrmRig rig(sharded_cfg(1), 2);
  rig.keep_egress = true;
  rig.offer(100'000.0, msec(200), spread_flows());
  rig.sim.run_all();
  EXPECT_EQ(rig.sys->shard_count(), 1);
  EXPECT_GT(rig.delivered(), 0u);
  // Every frame was steered to shard 0 — the old single-dispatcher path.
  for (const auto& f : rig.out) ASSERT_EQ(f.dispatch_shard, 0);
  EXPECT_EQ(rig.check.affinity_violations(), 0u);
  EXPECT_EQ(rig.check.fifo_violations(), 0u);
}

TEST(ShardedDispatch, RssSteeringUsesEveryShardAndPreservesAffinity) {
  LvrmRig rig(sharded_cfg(2), 4);
  rig.offer(400'000.0, msec(300), spread_flows());
  rig.sim.run_all();
  ASSERT_EQ(rig.sys->shard_count(), 2);

  // Both shard rings admitted traffic: the 64 distinct 5-tuples hash across
  // the rings rather than piling onto shard 0.
  EXPECT_GT(rig.sys->shard_rx_admitted(0), 0u);
  EXPECT_GT(rig.sys->shard_rx_admitted(1), 0u);

  // And the flow map is consistent at egress: one shard per flow, ever, in
  // order, with every frame accounted for.
  EXPECT_EQ(rig.verdict(), "");
}

TEST(ShardedDispatch, ShardCoresSpreadAcrossSockets) {
  LvrmRig rig(sharded_cfg(2), 2);
  const sim::CoreId c0 = rig.sys->shard_core(0);
  const sim::CoreId c1 = rig.sys->shard_core(1);
  EXPECT_EQ(c0, rig.sys->config().lvrm_core);
  // Shard 1 lands on the other socket, mirroring one RSS queue per NUMA
  // node; its core is withheld from the VRI pool.
  EXPECT_NE(rig.topo.socket_of(c0), rig.topo.socket_of(c1));
}

TEST(ShardedDispatch, OrderingAndConservationSurviveCrashRespawn) {
  LvrmConfig cfg = sharded_cfg(2);
  cfg.health.enabled = true;
  LvrmRig rig(cfg, 4);
  rig.offer(300'000.0, sec(3), spread_flows());
  // Crash one VRI mid allocation period (so the heartbeat, not the 1 s
  // allocation pass, finds the corpse); the health monitor respawns it and
  // re-dispatches stranded frames through the slot's per-shard dispatchers.
  rig.faults->schedule(
      {.kind = FaultKind::kCrash, .vri = 1, .at = sec(1) + msec(350)});
  rig.sim.run_all();

  ASSERT_EQ(rig.sys->recovery_log().size(), 1u);
  EXPECT_TRUE(rig.sys->recovery_log()[0].respawned);
  EXPECT_EQ(rig.sys->active_vris(0), 4);
  EXPECT_GT(rig.sys->redispatched_frames(), 0u);  // stranded frames rescued

  // The §11 invariants hold through the fault: no flow changed shard, no
  // flow's frames reordered, and every sent frame is delivered or counted
  // in a drop bucket.
  EXPECT_EQ(rig.verdict(), "");
}

TEST(ShardedDispatch, PerShardMetricsAppearOnlyWhenSharded) {
  auto count_shard_labels = [](const LvrmSystem& sys, const char* name) {
    int n = 0;
    for (const auto& c : sys.telemetry()->metrics().snapshot().counters)
      if (c.name == name && c.labels.rfind("shard=", 0) == 0) ++n;
    return n;
  };

  LvrmRig one(sharded_cfg(1), 2);
  one.offer(100'000.0, msec(100), spread_flows());
  one.sim.run_all();
  ASSERT_NE(one.sys->telemetry(), nullptr);
  // At one shard the registry is bit-identical to the unsharded system: no
  // per-shard families at all.
  EXPECT_EQ(count_shard_labels(*one.sys, "lvrm_rx_frames_total"), 0);

  LvrmRig two(sharded_cfg(2), 2);
  two.offer(100'000.0, msec(100), spread_flows());
  two.sim.run_all();
  EXPECT_EQ(count_shard_labels(*two.sys, "lvrm_rx_frames_total"), 2);
  EXPECT_EQ(count_shard_labels(*two.sys, "lvrm_tx_frames_total"), 2);
}

TEST(ShardedDispatch, AuditEventsCarryShardAndNumaTier) {
  LvrmRig rig(sharded_cfg(2), 3);
  rig.offer(100'000.0, msec(100), spread_flows());
  rig.sim.run_all();
  ASSERT_NE(rig.sys->telemetry(), nullptr);
  int creates = 0;
  for (const auto& e : rig.sys->telemetry()->audit().events()) {
    if (e.kind != obs::AuditKind::kVriCreate) continue;
    ++creates;
    EXPECT_GE(e.shard, 0);
    EXPECT_LT(e.shard, 2);
    // Fixed allocation on a 2x4 box with 2 shard cores reserved: every VRI
    // got a real core, so the tier is never "none".
    EXPECT_GE(e.numa_tier, 0);
    EXPECT_LE(e.numa_tier, 2);
  }
  EXPECT_EQ(creates, 3);
}

TEST(NumaPicker, WalksTiersInOrderAndReportsThem) {
  // 4 sockets x 2 cores, 2 sockets per machine -> cores 0..3 on machine 0.
  const sim::CpuTopology topo(4, 2, /*sockets_per_machine=*/2);
  std::vector<bool> used(static_cast<std::size_t>(topo.total_cores()), false);
  const sim::CoreId anchor = 0;

  auto pick = pick_numa_core(topo, used, anchor);
  EXPECT_EQ(pick.core, 1);  // same socket first
  EXPECT_EQ(pick.tier, NumaTier::kSameSocket);

  used[1] = true;
  pick = pick_numa_core(topo, used, anchor);
  EXPECT_EQ(pick.core, 2);  // other socket, same machine
  EXPECT_EQ(pick.tier, NumaTier::kSameMachine);

  used[2] = used[3] = true;
  pick = pick_numa_core(topo, used, anchor);
  EXPECT_EQ(pick.core, 4);  // off-machine
  EXPECT_EQ(pick.tier, NumaTier::kRemote);

  for (std::size_t c = 4; c < used.size(); ++c) used[c] = true;
  pick = pick_numa_core(topo, used, anchor);
  EXPECT_EQ(pick.core, sim::kNoCore);  // exhausted (anchor itself is skipped)
  EXPECT_EQ(pick.tier, NumaTier::kNone);
}

TEST(NumaPicker, TierOfMatchesTopologyRelations) {
  const sim::CpuTopology topo(4, 2, /*sockets_per_machine=*/2);
  EXPECT_EQ(numa_tier_of(topo, 0, 1), NumaTier::kSameSocket);
  EXPECT_EQ(numa_tier_of(topo, 0, 3), NumaTier::kSameMachine);
  EXPECT_EQ(numa_tier_of(topo, 0, 6), NumaTier::kRemote);
  EXPECT_EQ(numa_tier_of(topo, 0, sim::kNoCore), NumaTier::kNone);
}

}  // namespace
}  // namespace lvrm
