// Experiment 1c / Fig 4.5 — achievable throughput with LVRM only.
//
// The memory socket adapter replays a RAM trace and discards output frames,
// isolating LVRM's internal overhead from the network.
#include "bench/exp_common.hpp"
#include "exp/experiments.hpp"

using namespace lvrm;
using namespace lvrm::exp;

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header(
      "Experiment 1c: achievable throughput with LVRM only (RAM trace)",
      "Fig 4.5",
      "C++ VR: ~3.7 Mfps at 84 B falling to ~922 Kfps (~11 Gbps) at 1538 B; "
      "Click VR significantly lower at every size due to its internal "
      "element-graph processing");

  TablePrinter table({"frame B", "VR", "Kfps", "Gbps"}, args.csv);
  bench::Conservation conservation;
  for (const int size : frame_size_sweep()) {
    for (const VrKind vr : {VrKind::kCpp, VrKind::kClick}) {
      const auto r = run_memory_throughput(vr, size);
      conservation.check(r.conservation,
                         std::to_string(size) + " B " + to_string(vr));
      table.add_row({TablePrinter::num(static_cast<std::int64_t>(size)),
                     to_string(vr),
                     TablePrinter::num(r.delivered_fps / 1e3, 1),
                     TablePrinter::num(r.delivered_bps / 1e9, 2)});
    }
  }
  table.print(std::cout);
  return conservation.exit_code();
}
