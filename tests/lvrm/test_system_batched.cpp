// End-to-end tests of LVRM under bursty arrivals: frames land back to back
// in the RX ring and the poll loop drains them poll_batch at a time, each
// frame served, dispatched and charged on its own. The system must conserve
// frames in flow and frame mode, keep flow affinity and per-flow order, and
// stay deterministic.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "lvrm/system.hpp"

namespace lvrm {
namespace {

struct BatchRig {
  sim::Simulator sim;
  sim::CpuTopology topo;
  std::unique_ptr<LvrmSystem> sys;
  std::vector<net::FrameMeta> out;

  explicit BatchRig(BalancerGranularity gran, int vris = 4) {
    LvrmConfig cfg;
    cfg.allocator = AllocatorKind::kFixed;
    cfg.granularity = gran;
    cfg.balancer = BalancerKind::kRoundRobin;
    sys = std::make_unique<LvrmSystem>(sim, topo, cfg);
    VrConfig vr;
    vr.initial_vris = vris;
    sys->add_vr(vr);
    sys->start();
    sys->set_egress([this](net::FrameMeta&& f) { out.push_back(f); });
  }

  net::FrameMeta frame(std::uint16_t src_port, std::uint64_t id) {
    net::FrameMeta f;
    f.id = id;
    f.src_ip = net::ipv4(10, 1, 0, 1);
    f.dst_ip = net::ipv4(10, 2, 0, 1);
    f.src_port = src_port;
    f.dst_port = 9;
    f.protocol = 17;
    return f;
  }

  // Sends `n` frames, `burst` back-to-back per arrival event (back-to-back
  // arrivals are what fill the RX ring past one poll_batch).
  void send(int n, std::uint16_t ports, Nanos gap, int burst,
            std::uint64_t seed) {
    Rng rng(seed);
    std::uint64_t id = 0;
    for (int i = 0; i < n; i += burst) {
      const Nanos t = gap * (i / burst);
      for (int b = 0; b < burst && i + b < n; ++b) {
        const auto port =
            static_cast<std::uint16_t>(1000 + rng.uniform(ports));
        sim.at(t, [this, port, id] { sys->ingress(frame(port, id)); });
        ++id;
      }
    }
  }

  std::uint64_t accounted() const {
    return sys->forwarded() + sys->rx_ring_drops() + sys->data_queue_drops() +
           sys->no_route_drops();
  }
};

TEST(SystemBatched, ConservesFramesUnderBurstyLoad) {
  BatchRig rig(BalancerGranularity::kFlow);
  rig.send(3000, 16, usec(30), /*burst=*/16, /*seed=*/7);
  rig.sim.run_all();
  // Every sent frame is forwarded or sits in a documented drop counter.
  EXPECT_EQ(rig.accounted(), 3000u);
  EXPECT_EQ(rig.out.size(), rig.sys->forwarded());
}

TEST(SystemBatched, FlowAffinityHoldsThroughBurstDispatch) {
  BatchRig rig(BalancerGranularity::kFlow);
  rig.send(2000, 16, usec(40), /*burst=*/16, /*seed=*/5);
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

TEST(SystemBatched, SameFlowKeepsArrivalOrder) {
  BatchRig rig(BalancerGranularity::kFlow);
  rig.send(2000, 8, usec(30), /*burst=*/16, /*seed=*/3);
  rig.sim.run_all();
  std::map<std::uint16_t, std::uint64_t> last_id;
  for (const auto& f : rig.out) {
    const auto it = last_id.find(f.src_port);
    if (it != last_id.end())
      EXPECT_LT(it->second, f.id) << "flow " << f.src_port << " reordered";
    last_id[f.src_port] = f.id;
  }
}

TEST(SystemBatched, DeterministicAcrossRuns) {
  auto run = [] {
    BatchRig rig(BalancerGranularity::kFlow);
    rig.send(1500, 12, usec(35), /*burst=*/16, /*seed=*/11);
    rig.sim.run_all();
    std::vector<std::pair<std::uint64_t, int>> trace;
    for (const auto& f : rig.out) trace.emplace_back(f.id, f.dispatch_vri);
    return trace;
  };
  EXPECT_EQ(run(), run());
}

TEST(SystemBatched, FrameModeConservesFrames) {
  BatchRig rig(BalancerGranularity::kFrame);
  rig.send(2000, 16, usec(30), /*burst=*/16, /*seed=*/17);
  rig.sim.run_all();
  EXPECT_EQ(rig.accounted(), 2000u);
  std::map<int, int> per_vri;
  for (const auto& f : rig.out) ++per_vri[f.dispatch_vri];
  EXPECT_EQ(per_vri.size(), 4u);  // round-robin still touches every VRI
}

}  // namespace
}  // namespace lvrm
