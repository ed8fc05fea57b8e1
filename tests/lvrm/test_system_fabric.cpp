// §17 MPMC fabric + work stealing: the arena audit shows the collapsed ring
// count and reclaimed headroom, idle-VRI stealing moves real work without
// breaking per-flow ordering or losing a frame — including through a
// crash + respawn — and the steal counters / audit events / gauges appear
// exactly when stealing is on.
#include <gtest/gtest.h>

#include <string>

#include "exp/rig.hpp"
#include "obs/audit.hpp"

namespace lvrm {
namespace {

using namespace exp;

LvrmConfig fabric_cfg(int shards, bool stealing) {
  LvrmConfig c;
  c.allocator = AllocatorKind::kFixed;
  c.dispatch_shards = shards;
  c.work_stealing = stealing;
  return c;
}

// --- arena audit: ring counts and reclaimed bytes -------------------------

TEST(MpmcFabric, FabricCollapsesRingCountAtLeastFourFold) {
  // 8 shards x 16 VRIs is the acceptance topology: the SPSC mesh needs
  // V*(2S+2)+S rings, the fabric V*3+2S links — >= 4x fewer.
  LvrmConfig c = fabric_cfg(8, false);
  c.max_vris_per_vr = 16;
  LvrmRig rig(c, 16);
  const std::size_t mesh = rig.sys->mesh_ring_count();
  const std::size_t fabric = rig.sys->fabric_ring_count();
  EXPECT_EQ(mesh, 16u * (2 * 8 + 2) + 8);   // 296
  EXPECT_EQ(fabric, 16u * 3 + 2 * 8);        // 64
  EXPECT_GE(mesh, 4 * fabric);
  EXPECT_GT(rig.sys->mesh_ring_bytes(), rig.sys->fabric_ring_bytes());
}

TEST(MpmcFabric, FabricArenaReservesFewerBytesThanMesh) {
  // The ShmArena audit (§17 satellite): the arena reserves exactly the
  // fabric's closed form, strictly less than the SPSC mesh would for the
  // same topology, and the reclaimed headroom is published as a gauge.
  LvrmRig fab(fabric_cfg(2, false), 4);
  EXPECT_EQ(fab.sys->shm().total_bytes(), fab.sys->fabric_ring_bytes());
  EXPECT_LT(fab.sys->fabric_ring_bytes(), fab.sys->mesh_ring_bytes());

  fab.offer(100'000.0, msec(100), spread_flows());
  fab.sim.run_all();
  ASSERT_NE(fab.sys->telemetry(), nullptr);
  bool saw_reclaimed = false, saw_rings = false;
  for (const auto& g : fab.sys->telemetry()->metrics().snapshot().gauges) {
    if (g.name == "lvrm_fabric_reclaimed_bytes") {
      saw_reclaimed = true;
      EXPECT_GT(g.value, 0.0);
    }
    if (g.name == "lvrm_fabric_rings") {
      saw_rings = true;
      EXPECT_EQ(g.value, static_cast<double>(fab.sys->fabric_ring_count()));
    }
  }
  EXPECT_TRUE(saw_reclaimed);
  EXPECT_TRUE(saw_rings);
}

// --- work stealing --------------------------------------------------------

TEST(MpmcFabric, IdleVriStealsFromSlowedSibling) {
  // Frame granularity (no pins): slow one VRI 8x so its data queue backlogs
  // while its sibling idles — the sibling's idle hook must steal. Every
  // frame still arrives exactly once.
  LvrmConfig c = fabric_cfg(1, true);
  LvrmRig rig(c, 2);
  rig.faults->schedule({.kind = FaultKind::kSlowdown,
                        .vri = 0,
                        .at = msec(10),
                        .duration = msec(400),
                        .magnitude = 8.0});
  rig.offer(250'000.0, msec(300), spread_flows());
  rig.sim.run_all();

  EXPECT_GT(rig.sys->vri_steals(), 0u);
  EXPECT_GT(rig.sys->vri_steal_frames(), 0u);
  EXPECT_EQ(rig.conservation(), "");

  // The steal trail carries the §17 audit kind.
  bool saw_audit = false;
  for (const auto& e : rig.sys->telemetry()->audit().events())
    if (e.kind == obs::AuditKind::kVriSteal) saw_audit = true;
  EXPECT_TRUE(saw_audit);
}

TEST(MpmcFabric, PinnedFlowsAreNeverStolen) {
  // Flow granularity with no replication: every queued head carries a
  // pinned flow, so the steal-only-unpinned filter must refuse ALL ingress
  // steals even with a backlogged sibling right next to an idle one.
  LvrmConfig c = fabric_cfg(1, true);
  c.granularity = BalancerGranularity::kFlow;
  LvrmRig rig(c, 2);
  rig.faults->schedule({.kind = FaultKind::kSlowdown,
                        .vri = 0,
                        .at = msec(10),
                        .duration = msec(400),
                        .magnitude = 8.0});
  rig.offer(250'000.0, msec(300), spread_flows());
  rig.sim.run_all();

  EXPECT_EQ(rig.sys->vri_steals(), 0u);
  EXPECT_EQ(rig.check.fifo_violations(), 0u);
  EXPECT_EQ(rig.conservation(), "");
}

TEST(MpmcFabric, StealVsPinOrderingSurvivesCrashRespawn) {
  // The §17 x §8 composition property: pinned flows + stealing on + a VRI
  // crash and respawn mid-run. The pin filter and the recovery
  // re-dispatch must together keep every flow's egress in order and every
  // frame accounted.
  LvrmConfig c = fabric_cfg(2, true);
  c.granularity = BalancerGranularity::kFlow;
  c.health.enabled = true;
  LvrmRig rig(c, 4);
  rig.offer(300'000.0, sec(3), spread_flows());
  rig.faults->schedule(
      {.kind = FaultKind::kCrash, .vri = 1, .at = sec(1) + msec(350)});
  rig.sim.run_all();

  ASSERT_EQ(rig.sys->recovery_log().size(), 1u);
  EXPECT_TRUE(rig.sys->recovery_log()[0].respawned);
  EXPECT_EQ(rig.sys->vri_steals(), 0u);  // all heads pinned: no steals
  EXPECT_EQ(rig.check.fifo_violations(), 0u);
  EXPECT_EQ(rig.conservation(), "");
}

TEST(MpmcFabric, StealingConservesFramesAcrossConfigMatrix) {
  // Frame conservation with stealing across §11 shard counts, through a
  // slowdown and a crash: every sent frame is delivered or counted in a
  // drop bucket, no matter which server ran it.
  for (const int shards : {1, 2}) {
    LvrmConfig c = fabric_cfg(shards, true);
    c.health.enabled = true;
    LvrmRig rig(c, 4);
    rig.offer(300'000.0, sec(2), spread_flows());
    rig.faults->schedule({.kind = FaultKind::kSlowdown,
                          .vri = 2,
                          .at = msec(100),
                          .duration = msec(800),
                          .magnitude = 6.0});
    rig.faults->schedule(
        {.kind = FaultKind::kCrash, .vri = 1, .at = sec(1) + msec(350)});
    rig.sim.run_all();

    EXPECT_GT(rig.delivered(), 0u) << "shards=" << shards;
    EXPECT_EQ(rig.conservation(), "") << "shards=" << shards;
  }
}

TEST(MpmcFabric, StealCountersAndGaugesOnlyWhenStealingOn) {
  // Counter/gauge hygiene: the steal families appear iff work_stealing is
  // on, so defaults-off exports stay byte-identical to earlier builds.
  LvrmRig off(fabric_cfg(1, false), 2);
  off.offer(100'000.0, msec(100), spread_flows());
  off.sim.run_all();
  for (const auto& ctr : off.sys->telemetry()->metrics().snapshot().counters)
    EXPECT_TRUE(ctr.name.find("steal") == std::string::npos) << ctr.name;
  for (const auto& g : off.sys->telemetry()->metrics().snapshot().gauges)
    EXPECT_TRUE(g.name.find("steal") == std::string::npos) << g.name;

  LvrmConfig c = fabric_cfg(1, true);
  LvrmRig on(c, 2);
  on.faults->schedule({.kind = FaultKind::kSlowdown,
                       .vri = 0,
                       .at = msec(10),
                       .duration = msec(400),
                       .magnitude = 8.0});
  on.offer(250'000.0, msec(300), spread_flows());
  on.sim.run_all();
  bool saw_counter = false, saw_gauge = false;
  for (const auto& ctr : on.sys->telemetry()->metrics().snapshot().counters)
    if (ctr.name == "lvrm_vri_steal_frames_total" && ctr.value > 0)
      saw_counter = true;
  for (const auto& g : on.sys->telemetry()->metrics().snapshot().gauges)
    if (g.name == "lvrm_vri_steal_frames" && g.value > 0) saw_gauge = true;
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_gauge);
}

}  // namespace
}  // namespace lvrm
