// Experiment 1d / Fig 4.6 — round-trip latency with LVRM only.
//
// Per-frame latency from the RAM input interface to the discard output, at
// low rate so no queueing distorts the pipeline's inherent latency.
#include "bench/exp_common.hpp"
#include "exp/experiments.hpp"

using namespace lvrm;
using namespace lvrm::exp;

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header(
      "Experiment 1d: latency with LVRM only (RAM trace)", "Fig 4.6",
      "C++ VR within 15 us at all sizes; Click VR in the 25-35 us range due "
      "to its internal Queue element — both far below the ~70-120 us network "
      "RTT of Experiment 1b");

  TablePrinter table({"frame B", "VR", "avg latency us"}, args.csv);
  bench::Conservation conservation;
  for (const int size : frame_size_sweep()) {
    for (const VrKind vr : {VrKind::kCpp, VrKind::kClick}) {
      const auto r = run_memory_latency(vr, size);
      conservation.check(r.conservation,
                         std::to_string(size) + " B " + to_string(vr));
      table.add_row({TablePrinter::num(static_cast<std::int64_t>(size)),
                     to_string(vr), TablePrinter::num(r.avg_latency_us, 2)});
    }
  }
  table.print(std::cout);
  return conservation.exit_code();
}
