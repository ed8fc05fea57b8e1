// End-to-end flow-based balancing through the assembled LvrmSystem.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.hpp"
#include "exp/rig.hpp"

namespace lvrm {
namespace {

using namespace exp;

LvrmConfig round_robin_cfg(BalancerGranularity gran) {
  LvrmConfig cfg;
  cfg.allocator = AllocatorKind::kFixed;
  cfg.granularity = gran;
  cfg.balancer = BalancerKind::kRoundRobin;
  return cfg;
}

TEST(SystemFlowBased, FramesOfOneFlowStayOnOneVri) {
  LvrmRig rig(round_robin_cfg(BalancerGranularity::kFlow), 4, 0);
  rig.keep_egress = true;
  Rng rng(5);
  std::uint64_t id = 0;
  for (int i = 0; i < 2000; ++i) {
    const auto port = static_cast<std::uint16_t>(1000 + rng.uniform(16));
    rig.sim.at(usec(4) * i,
               [&rig, port, id] { rig.ingress(port_frame(port, id)); });
    ++id;
  }
  rig.sim.run_all();
  ASSERT_EQ(rig.out.size(), 2000u);
  std::map<std::uint16_t, int> assignment;
  for (const auto& f : rig.out) {
    const auto it = assignment.find(f.src_port);
    if (it == assignment.end()) {
      assignment[f.src_port] = f.dispatch_vri;
    } else {
      EXPECT_EQ(it->second, f.dispatch_vri)
          << "flow on port " << f.src_port << " switched VRIs";
    }
  }
  // 16 flows over 4 VRIs: more than one VRI actually used.
  std::map<int, int> vris_used;
  for (const auto& [port, vri] : assignment) ++vris_used[vri];
  EXPECT_GT(vris_used.size(), 1u);
}

TEST(SystemFlowBased, FrameModeSpreadsAFlow) {
  LvrmRig rig(round_robin_cfg(BalancerGranularity::kFrame), 4, 0);
  rig.keep_egress = true;
  for (int i = 0; i < 400; ++i) {
    rig.sim.at(usec(4) * i, [&rig, i] {
      rig.ingress(port_frame(7777, static_cast<std::uint64_t>(i)));
    });
  }
  rig.sim.run_all();
  std::map<int, int> per_vri;
  for (const auto& f : rig.out) ++per_vri[f.dispatch_vri];
  EXPECT_EQ(per_vri.size(), 4u);  // round-robin touches every VRI
}

TEST(SystemFlowBased, NoSameFlowReorderingThroughGateway) {
  // The motivation for flow-based balancing (Sec 3.3): frames of one flow
  // must leave the gateway in arrival order.
  LvrmRig rig(round_robin_cfg(BalancerGranularity::kFlow), 4, 0);
  Rng rng(9);
  std::uint64_t id = 0;
  for (int i = 0; i < 3000; ++i) {
    const auto port = static_cast<std::uint16_t>(1000 + rng.uniform(8));
    rig.sim.at(usec(3) * i,
               [&rig, port, id] { rig.ingress(port_frame(port, id)); });
    ++id;
  }
  rig.sim.run_all();
  // No flow regressed, and no frame left twice.
  EXPECT_EQ(rig.check.fifo_violations(), 0u);
  EXPECT_EQ(rig.conservation(), "");
}

// A pin of the dispatcher's egress on a trace that churns its flow table:
// ~4000 flows revisited every ~80 s on average against the 30 s idle
// timeout, so most pins expire and are re-learned while some survive, and
// the default 4096-slot table passes its load factor and rehashes. The
// digest covers every frame's (id, dispatch_vri) in egress order; change it
// only with a change that means to alter flow-mode dispatch.
TEST(SystemFlowBased, EgressUnderExpiryChurnMatchesPinnedDigest) {
  LvrmRig rig(round_robin_cfg(BalancerGranularity::kFlow), 4, 0);
  ASSERT_EQ(rig.sys->dispatcher(0).flow_table().bucket_count(), 4096u);
  rig.keep_egress = true;
  constexpr int kFrames = 6000;
  Rng rng(7);
  std::set<std::uint16_t> ports;
  for (int i = 0; i < kFrames; ++i) {
    const auto port = static_cast<std::uint16_t>(1000 + rng.uniform(4000));
    ports.insert(port);
    const net::FrameMeta f = port_frame(port, static_cast<std::uint64_t>(i));
    rig.sim.at(msec(20) * i, [&rig, f] { rig.ingress(f); });
  }
  rig.sim.run_all();

  ASSERT_EQ(rig.out.size(), static_cast<std::size_t>(kFrames));
  std::uint64_t digest = 0xcbf29ce484222325ull;  // FNV-1a, byte at a time
  auto mix = [&digest](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      digest ^= (v >> (8 * b)) & 0xFF;
      digest *= 0x100000001b3ull;
    }
  };
  for (const net::FrameMeta& f : rig.out) {
    mix(f.id);
    mix(static_cast<std::uint16_t>(f.dispatch_vri));
  }
  const Dispatcher& d = rig.sys->dispatcher(0);
  // Misses beyond each flow's first frame are expired pins re-learned.
  EXPECT_GT(d.flow_probes() - d.flow_hits(), ports.size());
  EXPECT_GT(d.flow_table().bucket_count(), 4096u);
  EXPECT_EQ(digest, 11149433944539327544ull);
}

TEST(SystemFlowBased, FlowsRebalanceAfterVriDestroyed) {
  // Dynamic shrink: flows pinned to a destroyed VRI must be re-pinned to a
  // live one instead of blackholing.
  LvrmConfig cfg;
  cfg.granularity = BalancerGranularity::kFlow;
  cfg.allocator = AllocatorKind::kDynamicFixedThreshold;
  LvrmRig rig(cfg);

  // Phase 1: high load grows the VR to 3 VRIs; phase 2: low load shrinks it.
  const FrameMaker flows = port_flows(12);
  rig.source(0, [&rig, &flows]() -> Nanos {
    if (rig.sim.now() >= sec(10)) return -1;
    rig.ingress(flows(rig.next_id++));
    return interval_for_rate(rig.sim.now() < sec(4) ? 150'000.0 : 20'000.0);
  });
  rig.sim.run_all();

  EXPECT_EQ(rig.sys->active_vris(0), 1);
  // After the shrink, low-rate traffic still flows (pins were re-balanced).
  const std::uint64_t before = rig.delivered();
  for (int i = 0; i < 24; ++i) {
    rig.sim.at(rig.sim.now() + usec(50) * (i + 1), [&rig, i] {
      net::FrameMeta f = host_flow()(rig.next_id++);
      f.src_port = static_cast<std::uint16_t>(1000 + i % 12);
      rig.ingress(f);
    });
  }
  rig.sim.run_all();
  EXPECT_EQ(rig.delivered() - before, 24u);
}

}  // namespace
}  // namespace lvrm
