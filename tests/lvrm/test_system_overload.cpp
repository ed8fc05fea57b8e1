// Graceful degradation under overload (DESIGN.md §13): the per-VR
// backpressure ladder (normal -> per-flow sampling shed -> RX-side admission
// control), conservation-exact offered accounting while shedding, and the
// reset-free drain path that migrates a decommissioned VRI's live flows to
// its siblings without a respawn. The ladder is config-gated behind
// LvrmConfig::overload_control and must be invisible — byte-identical egress,
// no extra metric families — until it both is enabled and sees pressure.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "exp/rig.hpp"
#include "obs/telemetry.hpp"
#include "traffic/workload.hpp"

namespace lvrm {
namespace {

using namespace exp;

LvrmConfig overload_cfg(bool ladder) {
  LvrmConfig c;
  c.allocator = AllocatorKind::kFixed;
  c.granularity = BalancerGranularity::kFlow;
  c.overload_control.enabled = ladder;
  return c;
}

TEST(SystemOverload, EnabledLadderIsInvisibleBelowTheWatermark) {
  // Config-gating contract: with the ladder on but load comfortably below
  // capacity the egress trace must be identical to the ladder-off system —
  // adaptation windows tick but never escalate, so nothing observable moves.
  auto run = [](bool ladder) {
    LvrmRig rig(overload_cfg(ladder), 3);
    rig.keep_egress = true;
    rig.offer(60'000.0, msec(40));  // 1/3 of the 3-VRI capacity
    rig.sim.run_all();
    // (id, dispatch_vri) in egress order: the full observable output.
    std::vector<std::pair<std::uint64_t, int>> trace;
    for (const auto& f : rig.out) trace.emplace_back(f.id, f.dispatch_vri);
    return trace;
  };
  const auto off = run(false);
  const auto on = run(true);
  ASSERT_FALSE(off.empty());
  EXPECT_EQ(off, on);

  LvrmRig rig(overload_cfg(true), 3);
  rig.offer(60'000.0, msec(40));
  rig.sim.run_all();
  EXPECT_EQ(rig.sys->overload_level(0), OverloadLevel::kNormal);
  EXPECT_EQ(rig.sys->sample_rate(0), 1.0);
  EXPECT_EQ(rig.sys->drops(DropCause::kSampledShed), 0u);
  EXPECT_EQ(rig.sys->drops(DropCause::kAdmissionReject), 0u);
}

TEST(SystemOverload, DisabledLadderRegistersNoMetricFamilies) {
  // Byte-identity for telemetry consumers: the overload families exist in
  // the export if and only if the feature is enabled.
  auto prom_text = [](bool ladder) {
    LvrmConfig c = overload_cfg(ladder);
    c.telemetry.enabled = true;
    LvrmRig rig(c, 3);
    rig.offer(30'000.0, msec(10));
    rig.sim.run_all();
    const std::string prefix =
        std::string("/tmp/lvrm_overload_prom_") + (ladder ? "on" : "off");
    EXPECT_TRUE(rig.sys->export_telemetry(prefix));
    std::ifstream in(prefix + ".prom");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    std::remove((prefix + ".prom").c_str());
    std::remove((prefix + ".csv").c_str());
    std::remove((prefix + ".trace.json").c_str());
    return text;
  };
  const std::string off = prom_text(false);
  EXPECT_EQ(off.find("lvrm_sampled_shed_total"), std::string::npos);
  EXPECT_EQ(off.find("lvrm_admission_rejected_total"), std::string::npos);
  EXPECT_EQ(off.find("lvrm_overload_level"), std::string::npos);
  const std::string on = prom_text(true);
  EXPECT_NE(on.find("lvrm_sampled_shed_total"), std::string::npos);
  EXPECT_NE(on.find("lvrm_admission_rejected_total"), std::string::npos);
  EXPECT_NE(on.find("lvrm_overload_level"), std::string::npos);
}

TEST(SystemOverload, SustainedOverloadEscalatesThroughSamplingToAdmission) {
  LvrmRig rig(overload_cfg(true), /*vris=*/1);
  rig.offer(200'000.0, msec(40));  // >3x one VRI's 60 Kfps
  // Record the level trajectory on a fine grid: escalation must pass
  // through kSampling before admission control engages.
  std::vector<OverloadLevel> seen;
  rig.source(0, [&]() -> Nanos {
    const OverloadLevel l = rig.sys->overload_level(0);
    if (seen.empty() || seen.back() != l) seen.push_back(l);
    return rig.sim.now() < msec(40) ? usec(200) : -1;
  });
  rig.sim.run_all();

  ASSERT_GE(seen.size(), 3u);
  EXPECT_EQ(seen[0], OverloadLevel::kNormal);
  EXPECT_EQ(seen[1], OverloadLevel::kSampling);
  EXPECT_EQ(seen[2], OverloadLevel::kAdmission);
  EXPECT_LT(rig.sys->sample_rate(0), 1.0);
  EXPECT_GE(rig.sys->sample_rate(0), LvrmSystem::kMinSampleRate);
  EXPECT_GT(rig.sys->vr_drops(0, DropCause::kSampledShed), 0u);
  EXPECT_GT(rig.sys->vr_drops(0, DropCause::kAdmissionReject), 0u);
  // Survivors keep their per-flow order through the shedding.
  EXPECT_EQ(rig.check.fifo_violations(), 0u);
}

TEST(SystemOverload, LadderRelaxesBackToNormalWhenPressureSubsides) {
  LvrmRig rig(overload_cfg(true), /*vris=*/1);
  rig.offer(200'000.0, msec(30));           // drive it into admission
  rig.offer(20'000.0, msec(120));           // then light load only
  rig.sim.run_all();
  // It did escalate.
  EXPECT_GT(rig.sys->drops(DropCause::kAdmissionReject), 0u);
  EXPECT_EQ(rig.sys->overload_level(0), OverloadLevel::kNormal);
  EXPECT_EQ(rig.sys->sample_rate(0), 1.0);
}

TEST(SystemOverload, OfferedEstimateStaysConservationExactWhileShedding) {
  // Every ladder drop happens after the cheap ingress classification, so
  // the per-VR offered tally reconstructs ground truth (frames classified
  // in + admission rejects) to well under Exp 6's 5% bar even while the
  // gate is rejecting most of the load.
  LvrmRig rig(overload_cfg(true), /*vris=*/1);
  rig.offer(250'000.0, msec(50));
  rig.sim.run_all();
  ASSERT_GT(rig.sys->drops(DropCause::kAdmissionReject), 0u);
  const double truth =
      static_cast<double>(rig.sys->vr_frames_in(0)) +
      static_cast<double>(rig.sys->vr_drops(0, DropCause::kAdmissionReject));
  ASSERT_GT(truth, 0.0);
  const double err =
      std::abs(rig.sys->vr_offered_estimate(0) - truth) / truth;
  EXPECT_LT(err, 0.05);
}

TEST(SystemOverload, DeliveredFramesRecordTheirSamplingRate) {
  // Survivors carry min(admission-gate rate, shed-test rate) — their exact
  // end-to-end survival probability — so egress consumers can bias-correct
  // per-flow delivered counts back to offered counts.
  LvrmRig rig(overload_cfg(true), /*vris=*/1);
  rig.keep_egress = true;
  rig.offer(200'000.0, msec(40));
  rig.sim.run_all();
  ASSERT_GT(rig.sys->vr_drops(0, DropCause::kSampledShed), 0u);
  bool saw_sampled = false;
  for (const auto& f : rig.out) {
    ASSERT_GT(f.admit_rate, 0.0);
    ASSERT_LE(f.admit_rate, 1.0);
    if (f.admit_rate < 1.0) saw_sampled = true;
  }
  EXPECT_TRUE(saw_sampled);
}

TEST(SystemOverload, ConservationHoldsPerFlowClassAcrossConfigs) {
  // Shed/admission composed with the sharded dispatch plane. For every flow
  // class: offered == delivered + every attributed drop, exactly.
  for (const int shards : {1, 2}) {
    LvrmConfig c = overload_cfg(true);
    c.dispatch_shards = shards;
    LvrmRig rig(c, 3);

    traffic::WorkloadGenerator::Config wl;
    wl.base_rate = 3.0 * 60'000.0 * 3;  // 3x aggregate capacity
    wl.flash_at = msec(10);
    wl.attack_fraction = 0.2;
    wl.stop_at = msec(40);
    wl.min_gap = 1;
    traffic::WorkloadGenerator gen(
        rig.sim, wl, [&rig](net::FrameMeta&& f) { rig.ingress(f); });
    rig.check.split_by([&gen](const net::FrameMeta& f) {
      return static_cast<std::size_t>(gen.class_of(f));
    });
    gen.start();
    rig.sim.run_all();

    for (int cls = 0; cls < traffic::kFlowClassCount; ++cls) {
      const auto i = static_cast<std::size_t>(cls);
      EXPECT_EQ(gen.sent(static_cast<traffic::FlowClass>(cls)),
                rig.check.delivered(i) + rig.check.dropped(i))
          << "class=" << cls << " shards=" << shards;
    }
    EXPECT_EQ(rig.conservation(), "") << "shards=" << shards;
    EXPECT_GT(rig.sys->drops(DropCause::kSampledShed) +
                  rig.sys->drops(DropCause::kAdmissionReject),
              0u);
  }
}

TEST(SystemOverload, DecommissionMigratesBacklogAndFlowsWithoutReordering) {
  LvrmRig rig(overload_cfg(true), 3);
  rig.offer(150'000.0, msec(30));  // busy but under the 180 Kfps capacity
  rig.sim.at(msec(15), [&] { EXPECT_TRUE(rig.sys->decommission_vri(0, 2)); });
  rig.sim.run_all();

  EXPECT_EQ(rig.sys->active_vris(0), 2);
  ASSERT_EQ(rig.sys->drain_log().size(), 1u);
  const DrainEvent& ev = rig.sys->drain_log()[0];
  EXPECT_EQ(ev.vr, 0);
  EXPECT_EQ(ev.vri, 2);
  EXPECT_EQ(ev.cause, DrainCause::kDecommission);
  EXPECT_EQ(ev.dropped, 0u);          // siblings had headroom: zero loss
  EXPECT_GT(ev.flows_evicted, 0u);    // pinned flows were re-homed
  EXPECT_GT(ev.handoff_latency, 0);   // control-ring handoff was measured
  // Reset-free: no crash bookkeeping, no respawn, no recovery event.
  EXPECT_EQ(rig.sys->crashed_vris_reaped(), 0u);
  EXPECT_TRUE(rig.sys->recovery_log().empty());
  EXPECT_EQ(rig.check.fifo_violations(), 0u);
  // An inactive slot cannot be decommissioned twice.
  EXPECT_FALSE(rig.sys->decommission_vri(0, 2));
}

TEST(SystemOverload, DecommissionedSiblingsKeepServing) {
  LvrmRig rig(overload_cfg(true), 3);
  rig.offer(100'000.0, msec(40));
  std::uint64_t at_drain = 0;
  rig.sim.at(msec(20), [&] {
    ASSERT_TRUE(rig.sys->decommission_vri(0, 1));
    at_drain = rig.delivered();
  });
  rig.sim.run_all();
  // The remaining two VRIs (120 Kfps capacity) keep absorbing the load.
  EXPECT_GT(rig.delivered(), at_drain + 1000);
  EXPECT_EQ(rig.check.fifo_violations(), 0u);
}

TEST(SystemOverload, FailSlowDrainsResetFreeInsteadOfRespawning) {
  // With the ladder enabled, a fail-slow verdict no longer needs the
  // crash-style respawn + route-log replay: the sick VRI is drained live
  // into its siblings exactly like a decommission.
  LvrmConfig c = overload_cfg(true);
  HealthConfig h;
  h.enabled = true;
  c.health = h;
  LvrmRig rig(c, 3);
  rig.offer(150'000.0, sec(6));
  rig.faults->schedule(
      {.kind = FaultKind::kSlowdown, .vri = 2, .at = sec(2), .magnitude = 8.0});
  rig.sim.run_all();

  ASSERT_GE(rig.sys->recovery_log().size(), 1u);
  const RecoveryEvent& ev = rig.sys->recovery_log()[0];
  EXPECT_EQ(ev.reason, VriHealth::kFailSlow);
  EXPECT_FALSE(ev.respawned);  // reset-free: drained, not torn down
  ASSERT_GE(rig.sys->drain_log().size(), 1u);
  EXPECT_EQ(rig.sys->drain_log()[0].cause, DrainCause::kFailSlow);
  EXPECT_EQ(rig.sys->drain_log()[0].vri, 2);
  EXPECT_EQ(rig.check.fifo_violations(), 0u);
}

TEST(SystemOverload, OverloadBurstFaultEscalatesAndSelfClears) {
  LvrmRig rig(overload_cfg(true), /*vris=*/1);
  rig.offer(20'000.0, msec(80));  // light background so windows keep ticking
  rig.faults->schedule({.kind = FaultKind::kOverloadBurst,
                        .at = msec(10),
                        .duration = msec(20),
                        .magnitude = 300'000.0});
  OverloadLevel peak = OverloadLevel::kNormal;
  rig.source(0, [&]() -> Nanos {
    peak = std::max(peak, rig.sys->overload_level(0));
    return rig.sim.now() < msec(80) ? usec(500) : -1;
  });
  rig.sim.run_all();

  EXPECT_GE(peak, OverloadLevel::kSampling);
  // The burst is self-limiting; once it passes the ladder relaxes fully.
  EXPECT_EQ(rig.sys->overload_level(0), OverloadLevel::kNormal);
  EXPECT_EQ(rig.sys->sample_rate(0), 1.0);
  ASSERT_EQ(rig.faults->log().size(), 1u);
  EXPECT_EQ(rig.faults->log()[0].kind, FaultKind::kOverloadBurst);
}

TEST(SystemOverload, CrashPlusShedPlusRespawnConservesFrames) {
  // Every exit path in one scenario: an overload burst forcing the ladder's
  // shed paths (sampling, admission), a crash stranding in-flight frames,
  // and a health-monitor respawn. After quiesce, every frame the rig
  // offered was delivered or reported through the drop hook, exactly once.
  LvrmConfig c = overload_cfg(true);
  HealthConfig h;
  h.enabled = true;
  c.health = h;
  LvrmRig rig(c, 3);
  rig.offer(150'000.0, sec(1));
  rig.faults->schedule({.kind = FaultKind::kOverloadBurst,
                        .at = msec(100),
                        .duration = msec(200),
                        .magnitude = 400'000.0});
  rig.faults->schedule(
      {.kind = FaultKind::kCrash, .vri = 1, .at = msec(200)});
  rig.sim.run_all();
  // The burst fault's synthetic frames are offered too.
  rig.check.offer(rig.sys->burst_frames());

  EXPECT_GT(rig.delivered(), 0u);      // traffic survived
  EXPECT_GT(rig.check.dropped(), 0u);  // and the burst forced drops
  EXPECT_EQ(rig.sys->recovery_log().size(), 1u);
  EXPECT_EQ(rig.conservation(), "");
}

}  // namespace
}  // namespace lvrm
