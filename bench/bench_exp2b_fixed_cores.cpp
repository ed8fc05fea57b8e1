// Experiment 2b / Fig 4.9 — throughput vs number of fixed-allocated cores.
//
// The VR carries the 1/60 ms dummy load, so each VRI serves ~60 Kfps; with c
// cores the ideal is 60c Kfps up to the 360 Kfps offered load. Allocating
// more VRIs than free cores forces a VRI onto LVRM's own core.
#include "bench/exp_common.hpp"
#include "exp/experiments.hpp"
#include "sim/costs.hpp"

using namespace lvrm;
using namespace lvrm::exp;

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header(
      "Experiment 2b: throughput vs fixed core allocation (dummy load "
      "1/60 ms, offered 360 Kfps)",
      "Fig 4.9",
      "achievable throughput scales ~60c Kfps with allocated cores c, "
      "slightly below the ideal line; beyond the 7 available cores the extra "
      "VRI contends with LVRM itself and throughput collapses");

  TablePrinter table(
      {"VR", "cores", "delivered Kfps", "ideal Kfps"}, args.csv);
  for (const Mechanism mech :
       {Mechanism::kLvrmPfCpp, Mechanism::kLvrmPfClick}) {
    for (int cores = 1; cores <= 9; ++cores) {
      WorldOptions opts;
      opts.mech = mech;
      opts.frame_bytes = 84;
      opts.warmup = args.scaled(msec(400));
      opts.measure = args.scaled(msec(800));
      opts.gw.lvrm.allocator = AllocatorKind::kFixed;
      opts.gw.lvrm.max_vris_per_vr = 9;
      VrConfig vr;
      vr.initial_vris = cores;
      vr.dummy_load = sim::costs::kDummyLoad;
      opts.gw.vrs = {vr};
      const auto r = run_udp_trial(opts, 360'000.0);
      const double ideal = std::min(360.0, 60.0 * cores);
      table.add_row({mech == Mechanism::kLvrmPfCpp ? "c++" : "click",
                     TablePrinter::num(static_cast<std::int64_t>(cores)),
                     TablePrinter::num(r.delivered_fps / 1e3, 1),
                     TablePrinter::num(ideal, 0)});
    }
  }
  table.print(std::cout);
  return 0;
}
