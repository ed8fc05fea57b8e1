// Tests of LVRM's dynamic core allocation behaviour (the load-aware core of
// the thesis) driven with synthetic arrival processes.
#include <gtest/gtest.h>

#include "exp/rig.hpp"

namespace lvrm {
namespace {

using namespace exp;

namespace costs = sim::costs;

LvrmConfig dynamic_cfg() {
  LvrmConfig cfg;
  cfg.allocator = AllocatorKind::kDynamicFixedThreshold;
  return cfg;
}

TEST(DynamicAllocation, GrowsUnderLoad) {
  LvrmRig rig(dynamic_cfg());
  EXPECT_EQ(rig.sys->active_vris(0), 1);
  // 150 Kfps needs 3 VRIs at 60 Kfps per core; growth is one VRI per
  // 1-second pass.
  rig.offer(150'000.0, sec(5), host_flow());
  rig.sim.run_all();
  EXPECT_EQ(rig.sys->active_vris(0), 3);
}

TEST(DynamicAllocation, ShrinksWhenLoadFalls) {
  LvrmRig rig(dynamic_cfg());
  rig.offer(150'000.0, sec(5), host_flow());
  rig.offer(30'000.0, sec(12), host_flow(), sec(5));
  rig.sim.run_all();
  EXPECT_EQ(rig.sys->active_vris(0), 1);
}

TEST(DynamicAllocation, LogRecordsCreatesAndDestroys) {
  LvrmRig rig(dynamic_cfg());
  rig.offer(150'000.0, sec(5), host_flow());
  rig.offer(30'000.0, sec(12), host_flow(), sec(5));
  rig.sim.run_all();
  const auto& log = rig.sys->allocation_log();
  ASSERT_GE(log.size(), 4u);  // 2 creates + 2 destroys
  int creates = 0;
  int destroys = 0;
  for (const auto& e : log) (e.create ? creates : destroys) += 1;
  EXPECT_EQ(creates, 2);
  EXPECT_EQ(destroys, 2);
}

TEST(DynamicAllocation, ReactionTimesMatchFig411) {
  LvrmRig rig(dynamic_cfg());
  rig.offer(360'000.0, sec(10), host_flow());
  rig.offer(30'000.0, sec(18), host_flow(), sec(10));
  rig.sim.run_all();
  bool saw_create = false;
  bool saw_destroy = false;
  for (const auto& e : rig.sys->allocation_log()) {
    if (e.create) {
      saw_create = true;
      EXPECT_LE(e.reaction, usec(900));
      EXPECT_GE(e.reaction, usec(400));
    } else {
      saw_destroy = true;
      EXPECT_LE(e.reaction, usec(700));
      EXPECT_GE(e.reaction, usec(300));
    }
  }
  EXPECT_TRUE(saw_create);
  EXPECT_TRUE(saw_destroy);
}

TEST(DynamicAllocation, AllocationsCostMoreThanDeallocations) {
  // Fig 4.11: creations (vfork) are heavier than teardowns.
  LvrmRig rig(dynamic_cfg());
  rig.offer(200'000.0, sec(6), host_flow());
  rig.offer(20'000.0, sec(14), host_flow(), sec(6));
  rig.sim.run_all();
  double create_avg = 0.0;
  double destroy_avg = 0.0;
  int creates = 0;
  int destroys = 0;
  for (const auto& e : rig.sys->allocation_log()) {
    if (e.create) {
      create_avg += static_cast<double>(e.reaction);
      ++creates;
    } else {
      destroy_avg += static_cast<double>(e.reaction);
      ++destroys;
    }
  }
  ASSERT_GT(creates, 0);
  ASSERT_GT(destroys, 0);
  EXPECT_GT(create_avg / creates, destroy_avg / destroys);
}

TEST(DynamicAllocation, RespectsMaxVris) {
  LvrmConfig cfg = dynamic_cfg();
  cfg.max_vris_per_vr = 4;
  VrConfig vr;
  vr.dummy_load = costs::kDummyLoad;
  LvrmRig rig(cfg, {vr});
  rig.offer(400'000.0, sec(10), host_flow());
  rig.sim.run_all();
  EXPECT_EQ(rig.sys->active_vris(0), 4);
}

TEST(DynamicAllocation, AtMostOneActionPerPeriod) {
  LvrmRig rig(dynamic_cfg());
  rig.offer(360'000.0, sec(4), host_flow());
  rig.sim.run_all();
  const auto& log = rig.sys->allocation_log();
  for (std::size_t i = 1; i < log.size(); ++i)
    EXPECT_GE(log[i].time - log[i - 1].time, sec(1) - msec(1));
}

TEST(DynamicAllocation, TwoVrsAllocatedIndependently) {
  // Exp 2d: two VRs with staggered loads each get their expected cores.
  LvrmConfig cfg = dynamic_cfg();
  VrConfig vr_a;
  vr_a.name = "vr1";
  vr_a.subnets = {net::Prefix{net::ipv4(10, 1, 0, 0), 16}};
  vr_a.dummy_load = costs::kDummyLoad;
  VrConfig vr_b;
  vr_b.name = "vr2";
  vr_b.subnets = {net::Prefix{net::ipv4(10, 3, 0, 0), 16}};
  vr_b.dummy_load = costs::kDummyLoad;
  LvrmRig rig(cfg, {vr_a, vr_b});

  rig.offer(100'000.0, sec(8), host_flow(net::ipv4(10, 1, 0, 1)));
  rig.offer(150'000.0, sec(8), host_flow(net::ipv4(10, 3, 0, 1)), sec(2));
  rig.sim.run_all();
  EXPECT_EQ(rig.sys->active_vris(0), 2);  // 100K -> 2 cores
  EXPECT_EQ(rig.sys->active_vris(1), 3);  // 150K -> 3 cores
}

TEST(DynamicAllocation, DynamicThresholdsUseServiceRates) {
  // Exp 2e: service-rate ratio 1:2 -> the slow VR gets about twice the
  // cores of the fast one at equal offered load.
  LvrmConfig cfg;
  cfg.allocator = AllocatorKind::kDynamicDynamicThreshold;
  VrConfig slow;
  slow.name = "slow";
  slow.subnets = {net::Prefix{net::ipv4(10, 1, 0, 0), 16}};
  slow.dummy_load = costs::kDummyLoad;
  slow.service_multiplier = 2.0;  // 30 Kfps per core
  VrConfig fast;
  fast.name = "fast";
  fast.subnets = {net::Prefix{net::ipv4(10, 3, 0, 0), 16}};
  fast.dummy_load = costs::kDummyLoad;  // 60 Kfps per core
  LvrmRig rig(cfg, {slow, fast});

  rig.offer(100'000.0, sec(10), host_flow(net::ipv4(10, 1, 0, 1)));
  rig.offer(100'000.0, sec(10), host_flow(net::ipv4(10, 3, 0, 1)));
  rig.sim.run_all();
  const int slow_vris = rig.sys->active_vris(0);
  const int fast_vris = rig.sys->active_vris(1);
  EXPECT_GE(slow_vris, 2 * fast_vris - 1);
  EXPECT_GT(slow_vris, fast_vris);
}

TEST(DynamicAllocation, ArrivalEstimateTracksOfferedRate) {
  LvrmRig rig(dynamic_cfg());
  rig.offer(120'000.0, sec(3), host_flow());
  rig.sim.run_all();
  EXPECT_NEAR(rig.sys->arrival_rate_estimate(0), 120'000.0, 10'000.0);
}

TEST(DynamicAllocation, ServiceRateEstimateNearDummyCapacity) {
  LvrmRig rig(dynamic_cfg());
  rig.offer(100'000.0, sec(3), host_flow());
  rig.sim.run_all();
  // 1/60 ms dummy load -> ~60 Kfps per VRI (minus small queue-op overhead).
  EXPECT_NEAR(rig.sys->service_rate_estimate(0), 58'000.0, 4'000.0);
}

TEST(DynamicAllocation, ThroughputScalesWithAllocatedCores) {
  // Sanity on the Exp 2c mechanism: with dynamic allocation the system
  // eventually sustains 150 Kfps that a single 60 Kfps VRI could not.
  LvrmRig rig(dynamic_cfg());
  rig.offer(150'000.0, sec(8), host_flow());
  rig.sim.run_all();
  // Measure deliveries over the last 3 simulated seconds.
  const double delivered_fps =
      static_cast<double>(rig.delivered()) / to_seconds(rig.sim.now());
  EXPECT_GT(delivered_fps, 100'000.0);
}

TEST(DynamicAllocation, DestroyedVriQueueFramesAreDropped) {
  LvrmRig rig(dynamic_cfg());
  rig.offer(200'000.0, sec(4), host_flow());
  rig.offer(10'000.0, sec(10), host_flow(), sec(4));
  rig.sim.run_all();
  // Shrinking under backlog discards queued frames (Fig 3.2 "destroy all
  // queues"), surfacing as data-queue drops.
  EXPECT_EQ(rig.sys->active_vris(0), 1);
  EXPECT_GT(rig.sys->data_queue_drops() + rig.sys->rx_ring_drops(), 0u);
}

}  // namespace
}  // namespace lvrm
