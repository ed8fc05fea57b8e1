// Determinism guarantees: identical configurations reproduce figures
// bit-for-bit, pinned trials reproduce their recorded results exactly, and
// seeds meaningfully perturb stochastic components.
#include <gtest/gtest.h>

#include <vector>

#include "exp/experiments.hpp"
#include "sim/costs.hpp"

namespace lvrm::exp {
namespace {

TEST(Determinism, UdpTrialsReproduceExactly) {
  WorldOptions opts;
  opts.warmup = msec(20);
  opts.measure = msec(50);
  const auto a = run_udp_trial(opts, 150'000.0);
  const auto b = run_udp_trial(opts, 150'000.0);
  EXPECT_EQ(a.sent, b.sent);
  EXPECT_EQ(a.received, b.received);
  EXPECT_EQ(a.gateway_rx_drops, b.gateway_rx_drops);
  EXPECT_EQ(a.queue_drops, b.queue_drops);
}

TEST(Determinism, TcpTrialsReproduceExactly) {
  TcpWorldOptions opts;
  opts.flow_pairs = 6;
  opts.warmup = msec(500);
  opts.measure = sec(1);
  const auto a = run_tcp_trial(opts);
  const auto b = run_tcp_trial(opts);
  ASSERT_EQ(a.per_flow_mbps.size(), b.per_flow_mbps.size());
  for (std::size_t i = 0; i < a.per_flow_mbps.size(); ++i)
    EXPECT_DOUBLE_EQ(a.per_flow_mbps[i], b.per_flow_mbps[i]) << i;
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.timeouts, b.timeouts);
}

// Golden pins: the exact results of fixed trials, recorded once. A change to
// the event kernel, the links or the TCP timers that reorders events at one
// instant passes the run-twice checks above, since both runs reorder alike;
// these catch it. Update a pin only for a change that means to alter
// simulated results, and say why in the change.

TEST(Determinism, TcpTrialMatchesPinnedResults) {
  TcpWorldOptions opts;
  opts.flow_pairs = 6;
  opts.warmup = msec(500);
  opts.measure = sec(1);
  const auto r = run_tcp_trial(opts);
  EXPECT_EQ(r.retransmits, 0u);
  EXPECT_EQ(r.timeouts, 0u);
  const std::vector<double> pinned = {166.522336, 166.559248,
                                      166.44851199999999, 166.583856,
                                      166.645376, 166.571552};
  ASSERT_EQ(r.per_flow_mbps.size(), pinned.size());
  for (std::size_t i = 0; i < pinned.size(); ++i)
    EXPECT_EQ(r.per_flow_mbps[i], pinned[i]) << "flow " << i;
}

TEST(Determinism, LossyTcpTrialMatchesPinnedResults) {
  // A 32-frame bottleneck under 20 flows: tail drops on the trunks, fast
  // retransmits and RTO timeouts all shape the result.
  TcpWorldOptions opts;
  opts.flow_pairs = 20;
  opts.bottleneck_queue = 32;
  opts.warmup = msec(500);
  opts.measure = sec(1);
  const auto r = run_tcp_trial(opts);
  EXPECT_EQ(r.retransmits, 2214u);
  EXPECT_EQ(r.timeouts, 103u);
  const std::vector<double> pinned = {
      24.152752,           1.8455999999999999,  122.36328,
      0.24607999999999999, 99.047200000000004,  0.061519999999999998,
      191.64710400000001,  0.061519999999999998, 8.0222079999999991,
      0.55367999999999995, 0.061519999999999998, 0.098432000000000006,
      113.713568,          0.061519999999999998, 238.43921599999999,
      0.13534399999999999, 0.41833599999999999, 0.93510400000000005,
      196.864,             0.061519999999999998};
  ASSERT_EQ(r.per_flow_mbps.size(), pinned.size());
  for (std::size_t i = 0; i < pinned.size(); ++i)
    EXPECT_EQ(r.per_flow_mbps[i], pinned[i]) << "flow " << i;
}

TEST(Determinism, OverloadedUdpTrialMatchesPinnedResults) {
  // Raw sockets and one fixed VRI with the dummy load, offered 600 Kfps
  // (the senders cap it at ~448 Kfps): the gateway drops at its RX ring and
  // at the VRI's data queue.
  WorldOptions opts;
  opts.mech = Mechanism::kLvrmRawCpp;
  opts.warmup = msec(20);
  opts.measure = msec(50);
  opts.gw.lvrm.allocator = AllocatorKind::kFixed;
  VrConfig vr;
  vr.initial_vris = 1;
  vr.dummy_load = sim::costs::kDummyLoad;
  opts.gw.vrs = {vr};
  const auto r = run_udp_trial(opts, 600'000.0);
  EXPECT_EQ(r.sent, 22402u);
  EXPECT_EQ(r.received, 2957u);
  EXPECT_EQ(r.gateway_rx_drops, 4594u);
  EXPECT_EQ(r.queue_drops, 23638u);
  EXPECT_EQ(r.delivered_fps, 59140.0);
}

TEST(Determinism, FabricSkewStealTrialMatchesPinnedResults) {
  // Exp 9's skewed-frame trial at --scale=0.3: 2 shards x 4 VRIs, frame
  // granularity, round-robin dispatch, per-frame serving, one VRI slowed
  // 6x, work stealing on. Round-robin keeps feeding the slowed VRI, so idle
  // siblings steal its backlog, which moves both throughput and latency.
  FabricTrialOptions opt;
  opt.shards = 2;
  opt.vris = 4;
  opt.stealing = true;
  opt.workload = FabricTrialOptions::Workload::kSkewFrame;
  opt.warmup = msec(3);
  opt.measure = msec(15);
  const auto r = run_fabric_trial(opt);
  EXPECT_EQ(r.delivered_fps, 5390600.0);
  EXPECT_EQ(r.avg_latency_us, 15013.082230508777);
  EXPECT_EQ(r.vri_steals, 1955u);
  EXPECT_EQ(r.vri_steal_frames, 11730u);
  EXPECT_EQ(r.ordering_violations, 0u);
}

TEST(Determinism, SeedChangesRandomBalancerOutcome) {
  WorldOptions opts;
  opts.warmup = msec(20);
  opts.measure = msec(50);
  opts.gw.lvrm.balancer = BalancerKind::kRandom;
  opts.gw.lvrm.allocator = AllocatorKind::kFixed;
  VrConfig vr;
  vr.initial_vris = 4;
  opts.gw.vrs = {vr};

  auto trial = [&](std::uint64_t seed) {
    WorldOptions o = opts;
    o.gw.lvrm.seed = seed;
    return run_udp_trial(o, 120'000.0);
  };
  const auto a = trial(1);
  const auto b = trial(1);
  EXPECT_EQ(a.received, b.received);  // same seed -> identical
}

TEST(Determinism, MemoryWorldsReproduce) {
  const auto a = run_memory_throughput(VrKind::kCpp, 84);
  const auto b = run_memory_throughput(VrKind::kCpp, 84);
  EXPECT_DOUBLE_EQ(a.delivered_fps, b.delivered_fps);
}

TEST(Determinism, RttMeasurementReproduces) {
  WorldOptions opts;
  const auto a = measure_rtt(opts, 40);
  const auto b = measure_rtt(opts, 40);
  EXPECT_DOUBLE_EQ(a.avg_us, b.avg_us);
  EXPECT_EQ(a.replies, b.replies);
}

TEST(Determinism, AllocationTracesReproduce) {
  WorldOptions opts;
  opts.gw.lvrm.allocator = AllocatorKind::kDynamicFixedThreshold;
  VrConfig vr;
  vr.dummy_load = sim::costs::kDummyLoad;
  opts.gw.vrs = {vr};
  SenderSpec spec;
  spec.src_ip = net::ipv4(10, 1, 1, 1);
  spec.dst_ip = net::ipv4(10, 2, 1, 1);
  spec.profile = {{0, 100'000.0}};
  opts.senders = {spec};
  const auto a = run_allocation_trace(opts, sec(3), msec(500));
  const auto b = run_allocation_trace(opts, sec(3), msec(500));
  ASSERT_EQ(a.log.size(), b.log.size());
  for (std::size_t i = 0; i < a.log.size(); ++i) {
    EXPECT_EQ(a.log[i].time, b.log[i].time);
    EXPECT_EQ(a.log[i].reaction, b.log[i].reaction);
  }
}

}  // namespace
}  // namespace lvrm::exp
