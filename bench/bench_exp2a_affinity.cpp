// Experiment 2a / Fig 4.8 — throughput analysis on core affinity.
//
// One VR, one VRI, minimum-size frames; the VRI's core is chosen by the four
// affinity policies of Sec 3.2 / Exp 2a.
#include "bench/exp_common.hpp"
#include "exp/experiments.hpp"

using namespace lvrm;
using namespace lvrm::exp;

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header(
      "Experiment 2a: throughput vs core affinity (84 B frames)", "Fig 4.8",
      "\"same\" poorest (two processes share one core); sibling best for the "
      "C++ VR; default below non-sibling (kernel migrations cause context "
      "switches and cold caches); Click VR flatter across sibling/non-sibling "
      "because its own processing dominates");

  TablePrinter table({"VR", "affinity", "Kfps", "Mbps"}, args.csv);
  for (const Mechanism mech :
       {Mechanism::kLvrmPfCpp, Mechanism::kLvrmPfClick}) {
    for (const AffinityPolicy affinity :
         {AffinityPolicy::kSibling, AffinityPolicy::kNonSibling,
          AffinityPolicy::kDefault, AffinityPolicy::kSame}) {
      WorldOptions opts;
      opts.mech = mech;
      opts.frame_bytes = 84;
      opts.warmup = args.scaled(msec(50));
      opts.measure = args.scaled(msec(160));
      opts.gw.lvrm.allocator = AllocatorKind::kFixed;
      opts.gw.lvrm.affinity = affinity;
      opts.gw.lvrm.seed = args.seed;
      VrConfig vr;
      vr.initial_vris = 1;
      opts.gw.vrs = {vr};
      const auto best = achievable_throughput(opts, offered_rate_bound(84));
      table.add_row({mech == Mechanism::kLvrmPfCpp ? "c++" : "click",
                     to_string(affinity),
                     TablePrinter::num(best.delivered_fps / 1e3, 1),
                     TablePrinter::num(best.delivered_bps / 1e6, 1)});
    }
  }
  table.print(std::cout);
  return 0;
}
