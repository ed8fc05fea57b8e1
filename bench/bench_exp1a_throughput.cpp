// Experiment 1a / Fig 4.2 — achievable throughput in data forwarding.
//
// Sweeps frame sizes for all six mechanisms and reports the achievable
// throughput under the +/-2% send/receive rule.
//
// Extra flags:
//   --smoke               one frame size (84 B), LVRM mechanisms only, a
//                         single fixed-rate trial each — the CI telemetry
//                         smoke path, seconds instead of minutes.
//   --telemetry-dir=DIR   export each LVRM trial's telemetry to
//                         DIR/exp1a_<mech>.{prom,csv,trace.json}.
//   --tracing             enable §15 frame-level path tracing on the LVRM
//                         mechanisms, so the exported trace.json carries
//                         path spans (the CI export-smoke path); results
//                         must be bit-identical to the default off.
#include <cctype>

#include "bench/exp_common.hpp"
#include "exp/experiments.hpp"

using namespace lvrm;
using namespace lvrm::exp;

namespace {
/// "LVRM C++ PF_RING" -> "lvrm_c___pf_ring": filesystem-safe export names.
std::string slug(const std::string& s) {
  std::string out;
  for (const char c : s)
    out += std::isalnum(static_cast<unsigned char>(c))
               ? static_cast<char>(std::tolower(static_cast<unsigned char>(c)))
               : '_';
  return out;
}
}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  const Cli cli(argc, argv);
  const bool smoke = cli.get_bool("smoke", false);
  const std::string telemetry_dir = cli.get_string("telemetry-dir", "");
  const bool tracing = cli.get_bool("tracing", false);
  bench::print_header(
      "Experiment 1a: achievable throughput in data forwarding", "Fig 4.2",
      "native ~ LVRM/PF_RING > LVRM/raw (PF_RING +~50% at 84 B) > Click VR; "
      "hypervisors far lower, QEMU-KVM worst; all converge toward wire rate "
      "at large frames");

  const std::vector<int> sizes =
      smoke ? std::vector<int>{84} : frame_size_sweep();
  const std::vector<Mechanism> mechs =
      smoke ? std::vector<Mechanism>{Mechanism::kLvrmPfCpp,
                                     Mechanism::kLvrmRawCpp}
            : all_mechanisms();

  TablePrinter table({"frame B", "mechanism", "Kfps", "Mbps", "of offered %"},
                     args.csv);
  for (const int size : sizes) {
    const FramesPerSec bound = offered_rate_bound(size);
    for (const Mechanism mech : mechs) {
      WorldOptions opts;
      opts.mech = mech;
      opts.frame_bytes = size;
      opts.warmup = args.scaled(msec(50));
      opts.measure = args.scaled(msec(140));
      opts.gw.lvrm.tracing.enabled = tracing;
      if (!telemetry_dir.empty() && is_lvrm(mech))
        opts.telemetry_export_prefix =
            telemetry_dir + "/exp1a_" + slug(to_string(mech));
      // Smoke mode trades the feasibility search for one mid-rate trial:
      // still exercises the full RX->dispatch->VRI->TX pipeline (and the
      // telemetry exports), just without the bisection.
      const auto best = smoke ? run_udp_trial(opts, 0.5 * bound)
                              : achievable_throughput(opts, bound);
      table.add_row({TablePrinter::num(static_cast<std::int64_t>(size)),
                     to_string(mech),
                     TablePrinter::num(best.delivered_fps / 1e3, 1),
                     TablePrinter::num(best.delivered_bps / 1e6, 1),
                     TablePrinter::num(100.0 * best.delivered_fps / bound, 1)});
    }
  }
  table.print(std::cout);
  return 0;
}
