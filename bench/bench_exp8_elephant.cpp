// Experiment 8 — elephant-flow spraying via state-compute replication
// (DESIGN.md §16).
//
// The flow-affinity invariant pins every flow to one VRI, so a single
// elephant flow can never exceed one core's throughput no matter how many
// cores the VR holds. §16 replicates per-flow VR state across the sibling
// VRIs and lets the balancer spray a detected elephant over all of them,
// with a TX-side sequencer keeping external output order intact. The
// acceptance bar: at 4 VRIs with replication on, one elephant offered at 4x
// a single VRI's capacity delivers >=1.5x one VRI's throughput, with 0
// external ordering violations; the replication-off row shows the pinned
// baseline capped at ~1x.
#include "bench/exp_common.hpp"
#include "exp/experiments.hpp"

using namespace lvrm;
using namespace lvrm::exp;

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header(
      "Experiment 8: elephant-flow spraying (state replication)",
      "DESIGN.md S16",
      "replication off: the elephant is pinned and caps at ~1x one VRI's "
      "capacity; replication on at 4 VRIs: >=1.5x with 0 ordering "
      "violations, deltas flowing and the sequencer never overflowing");

  TablePrinter table({"replication", "vris", "eleph Kfps", "x 1-vri",
                      "order viol", "sprayed", "deltas", "seq ovfl"},
                     args.csv);
  const double one_vri_kfps = kPerVriCapacityFps / 1e3;
  bench::Conservation conservation;
  for (const bool replication : {false, true}) {
    for (const int vris : {2, 4}) {
      ElephantTrialOptions opt;
      opt.replication = replication;
      opt.vris = vris;
      opt.seed = args.seed;
      opt.warmup = args.scaled(opt.warmup);
      opt.measure = args.scaled(opt.measure);
      const auto r = run_elephant_trial(opt);
      conservation.check(r.conservation,
                         std::string("replication ") +
                             (replication ? "on, " : "off, ") +
                             std::to_string(vris) + " VRIs");
      table.add_row(
          {replication ? "on" : "off",
           TablePrinter::num(static_cast<std::int64_t>(vris)),
           TablePrinter::num(r.elephant_fps / 1e3, 1),
           TablePrinter::num(r.elephant_fps / 1e3 / one_vri_kfps, 2),
           TablePrinter::num(
               static_cast<std::int64_t>(r.ordering_violations)),
           TablePrinter::num(static_cast<std::int64_t>(r.sprayed_frames)),
           TablePrinter::num(static_cast<std::int64_t>(r.deltas_sent)),
           TablePrinter::num(
               static_cast<std::int64_t>(r.seq_window_overflows))});
    }
  }
  table.print(std::cout);
  return conservation.exit_code();
}
