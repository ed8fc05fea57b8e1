// End-to-end tests of LVRM under bursty arrivals: frames land back to back
// in the RX ring and the poll loop drains them poll_batch at a time, each
// frame served, dispatched and charged on its own. The system must conserve
// frames in flow and frame mode, keep flow affinity and per-flow order, and
// stay deterministic.
#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

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

// Sends `n` frames over `ports` flows, `burst` back-to-back per arrival event
// (back-to-back arrivals are what fill the RX ring past one poll_batch).
void send(LvrmRig& rig, int n, std::uint16_t ports, Nanos gap, int burst,
          std::uint64_t seed) {
  Rng rng(seed);
  std::uint64_t id = 0;
  for (int i = 0; i < n; i += burst) {
    const Nanos t = gap * (i / burst);
    for (int b = 0; b < burst && i + b < n; ++b) {
      const auto port = static_cast<std::uint16_t>(1000 + rng.uniform(ports));
      rig.sim.at(t, [&rig, port, id] { rig.ingress(port_frame(port, id)); });
      ++id;
    }
  }
}

TEST(SystemBursts, ConservesFramesUnderBurstyLoad) {
  LvrmRig rig(round_robin_cfg(BalancerGranularity::kFlow), 4, 0);
  send(rig, 3000, 16, usec(30), /*burst=*/16, /*seed=*/7);
  rig.sim.run_all();
  // Every sent frame is forwarded or sits in a documented drop counter.
  EXPECT_EQ(rig.sent(), 3000u);
  EXPECT_EQ(rig.conservation(), "");
  EXPECT_EQ(rig.delivered(), rig.sys->forwarded());
}

TEST(SystemBursts, FlowAffinityHoldsThroughBurstDispatch) {
  LvrmRig rig(round_robin_cfg(BalancerGranularity::kFlow), 4, 0);
  rig.keep_egress = true;
  send(rig, 2000, 16, usec(40), /*burst=*/16, /*seed=*/5);
  rig.sim.run_all();
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
  std::map<int, int> vris_used;
  for (const auto& [port, vri] : assignment) ++vris_used[vri];
  EXPECT_GT(vris_used.size(), 1u);
}

TEST(SystemBursts, SameFlowKeepsArrivalOrder) {
  LvrmRig rig(round_robin_cfg(BalancerGranularity::kFlow), 4, 0);
  send(rig, 2000, 8, usec(30), /*burst=*/16, /*seed=*/3);
  rig.sim.run_all();
  // No flow regressed, and no frame left twice.
  EXPECT_EQ(rig.check.fifo_violations(), 0u);
  EXPECT_EQ(rig.conservation(), "");
}

TEST(SystemBursts, DeterministicAcrossRuns) {
  auto run = [] {
    LvrmRig rig(round_robin_cfg(BalancerGranularity::kFlow), 4, 0);
    rig.keep_egress = true;
    send(rig, 1500, 12, usec(35), /*burst=*/16, /*seed=*/11);
    rig.sim.run_all();
    std::vector<std::pair<std::uint64_t, int>> trace;
    for (const auto& f : rig.out) trace.emplace_back(f.id, f.dispatch_vri);
    return trace;
  };
  EXPECT_EQ(run(), run());
}

TEST(SystemBursts, FrameModeConservesFrames) {
  LvrmRig rig(round_robin_cfg(BalancerGranularity::kFrame), 4, 0);
  rig.keep_egress = true;
  send(rig, 2000, 16, usec(30), /*burst=*/16, /*seed=*/17);
  rig.sim.run_all();
  EXPECT_EQ(rig.sent(), 2000u);
  EXPECT_EQ(rig.conservation(), "");
  std::map<int, int> per_vri;
  for (const auto& f : rig.out) ++per_vri[f.dispatch_vri];
  EXPECT_EQ(per_vri.size(), 4u);  // round-robin still touches every VRI
}

}  // namespace
}  // namespace lvrm
