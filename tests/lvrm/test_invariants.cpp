// InvariantChecker: each planted fault fails its verdict, and a clean run
// with drops of several causes passes it.
#include "lvrm/invariants.hpp"

#include <gtest/gtest.h>

#include "exp/rig.hpp"

namespace lvrm {
namespace {

using namespace exp;

LvrmConfig flow_cfg() {
  LvrmConfig cfg;
  cfg.allocator = AllocatorKind::kFixed;
  cfg.granularity = BalancerGranularity::kFlow;
  return cfg;
}

net::FrameMeta on_shard(net::FrameMeta f, std::int16_t shard) {
  f.dispatch_shard = shard;
  return f;
}

TEST(InvariantChecker, PlantedReorderFailsTheVerdict) {
  LvrmRig rig(flow_cfg(), 2);
  rig.check.offer(3);
  rig.check.on_egress(on_shard(port_frame(1000, 1), 0));
  rig.check.on_egress(on_shard(port_frame(1001, 0), 0));  // another flow
  rig.check.on_egress(on_shard(port_frame(1000, 0), 0));  // behind id 1
  EXPECT_EQ(rig.check.fifo_violations(), 1u);
  EXPECT_EQ(rig.conservation(), "");
  EXPECT_NE(rig.verdict(), "");
}

TEST(InvariantChecker, PlantedShardChangeFailsTheVerdict) {
  LvrmRig rig(flow_cfg(), 2);
  rig.check.offer(2);
  rig.check.on_egress(on_shard(port_frame(1000, 0), 0));
  rig.check.on_egress(on_shard(port_frame(1000, 1), 1));
  EXPECT_EQ(rig.check.affinity_violations(), 1u);
  EXPECT_EQ(rig.check.fifo_violations(), 0u);
  EXPECT_EQ(rig.conservation(), "");
  EXPECT_NE(rig.verdict(), "");
}

TEST(InvariantChecker, DuplicateDeliveryFailsThroughConservation) {
  LvrmRig rig(flow_cfg(), 2);
  rig.keep_egress = true;
  rig.offer(50'000.0, msec(20));
  rig.sim.run_all();
  ASSERT_EQ(rig.verdict(), "");
  // An equal id is no regression, so only conservation sees the copy.
  rig.check.on_egress(rig.out.back());
  EXPECT_EQ(rig.check.fifo_violations(), 0u);
  EXPECT_NE(rig.conservation(), "");
}

TEST(InvariantChecker, DropThatBypassesTheHookFailsConservation) {
  // A firewall VR over the C++ engine: a UDP frame passes the firewall and
  // misses the route, a TCP ACK of no tracked connection is denied.
  VrConfig fw = LvrmRig::one_vr(2, sim::costs::kDummyLoad);
  fw.kind = VrKind::kFirewall;
  LvrmRig rig(flow_cfg(), {fw});
  rig.sys->set_drop_hook({});  // the system counts drops the checker misses
  net::FrameMeta f = port_frame(1000, 0);
  f.dst_ip = net::ipv4(99, 9, 9, 9);  // no route
  rig.ingress(f);
  net::FrameMeta ack = port_frame(1001, 1);
  ack.kind = net::FrameKind::kTcpData;
  ack.protocol = 6;
  ack.tcp_flags = net::kTcpFlagAck;
  rig.ingress(ack);
  rig.sim.run_all();
  ASSERT_EQ(rig.sys->drops(DropCause::kNoRoute), 1u);
  ASSERT_EQ(rig.sys->drops(DropCause::kVrPolicy), 1u);
  EXPECT_EQ(rig.check.dropped(), 0u);
  const std::string failures = rig.check.conservation(*rig.sys);
  EXPECT_NE(failures.find("drops(no-route) 1 != hooked 0"), std::string::npos)
      << failures;
  EXPECT_NE(failures.find("drops(vr-policy) 1 != hooked 0"), std::string::npos)
      << failures;
}

TEST(InvariantChecker, CleanRunWithDropsOfSeveralCausesHolds) {
  LvrmConfig cfg = flow_cfg();
  cfg.adapter = AdapterKind::kRawSocket;  // 256-slot RX ring
  LvrmRig rig(cfg, 2);
  rig.check.split_by([](const net::FrameMeta& f) {
    return static_cast<std::size_t>(f.src_port % 2);
  });
  // 1,000 back-to-back frames overflow the RX ring; then 250 Kfps overflows
  // the two 60 Kfps VRIs' data queues.
  const FrameMaker make = port_flows();
  for (int i = 0; i < 1000; ++i) rig.ingress(make(rig.next_id++));
  rig.offer(250'000.0, msec(100));
  rig.sim.run_all();

  EXPECT_GT(rig.check.drops(DropCause::kRxRingFull), 0u);
  EXPECT_GT(rig.check.drops(DropCause::kQueueFull), 0u);
  EXPECT_GT(rig.delivered(), 0u);
  EXPECT_EQ(rig.verdict(), "");
  EXPECT_EQ(rig.check.delivered(0) + rig.check.delivered(1),
            rig.delivered());
  EXPECT_EQ(rig.check.dropped(0) + rig.check.dropped(1), rig.check.dropped());
}

}  // namespace
}  // namespace lvrm
