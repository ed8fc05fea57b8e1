// Experiment 3b / Fig 4.15 — load balancing among VRs.
//
// Two identical VRs each receive 180 Kfps; the fairness measure is
// T = 2 * min(T1, T2) against the 360 Kfps ideal.
#include "bench/exp_common.hpp"
#include "exp/experiments.hpp"
#include "sim/costs.hpp"

using namespace lvrm;
using namespace lvrm::exp;

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header(
      "Experiment 3b: load balancing among two VRs (180 Kfps each)",
      "Fig 4.15",
      "T = 2*min(T1, T2) close to the 360 Kfps ideal for the C++ VR under "
      "every scheme, JSQ best; Click VR lower due to internal processing");

  TablePrinter table(
      {"VR", "scheme", "T1 Kfps", "T2 Kfps", "T=2*min Kfps", "of ideal %"},
      args.csv);
  for (const Mechanism mech :
       {Mechanism::kLvrmPfCpp, Mechanism::kLvrmPfClick}) {
    for (const BalancerKind scheme :
         {BalancerKind::kJoinShortestQueue, BalancerKind::kRoundRobin,
          BalancerKind::kRandom}) {
      WorldOptions opts;
      opts.mech = mech;
      opts.frame_bytes = 84;
      opts.warmup = args.scaled(msec(500));
      opts.measure = args.scaled(sec(1));
      opts.gw.lvrm.balancer = scheme;
      opts.gw.lvrm.seed = args.seed;
      opts.gw.lvrm.allocator = AllocatorKind::kDynamicFixedThreshold;
      // Three cores per VR carry 180 Kfps of 60-Kfps work; 6 total.
      opts.gw.lvrm.max_vris_per_vr = 3;

      VrConfig vr1;
      vr1.name = "vr1";
      vr1.subnets = {net::Prefix{net::ipv4(10, 1, 0, 0), 16}};
      vr1.dummy_load = sim::costs::kDummyLoad;
      vr1.initial_vris = 3;
      VrConfig vr2 = vr1;
      vr2.name = "vr2";
      vr2.subnets = {net::Prefix{net::ipv4(10, 3, 0, 0), 16}};
      opts.gw.vrs = {vr1, vr2};

      SenderSpec s1;
      s1.src_ip = net::ipv4(10, 1, 1, 1);
      s1.dst_ip = net::ipv4(10, 2, 1, 1);
      s1.rate_share = 0.5;
      SenderSpec s2 = s1;
      s2.src_ip = net::ipv4(10, 3, 1, 1);
      s2.dst_ip = net::ipv4(10, 2, 2, 1);
      opts.senders = {s1, s2};

      const auto r = run_udp_trial_per_vr(opts, 360'000.0);
      const double t1 = r.vr_delivered_fps.at(0);
      const double t2 = r.vr_delivered_fps.at(1);
      const double t = 2.0 * std::min(t1, t2);
      table.add_row({mech == Mechanism::kLvrmPfCpp ? "c++" : "click",
                     to_string(scheme), TablePrinter::num(t1 / 1e3, 1),
                     TablePrinter::num(t2 / 1e3, 1),
                     TablePrinter::num(t / 1e3, 1),
                     TablePrinter::num(100.0 * t / 360'000.0, 1)});
    }
  }
  table.print(std::cout);
  return 0;
}
