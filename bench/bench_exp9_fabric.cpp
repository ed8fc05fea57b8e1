// Experiment 9 — MPMC virtual-link IPC fabric with work stealing
// (DESIGN.md §17).
//
// The SPSC mesh allocates one ring per (endpoint, peer) pair, so the ring
// inventory grows as V*(2S+2)+S and each VRI's ingress buffering is
// statically split S ways. §17 collapses a VRI's ingress to ONE MpmcLink
// fed by every shard and TX to one per-home-shard MPMC drain, shrinking
// the inventory to V*3+2S and pooling the buffer budget; on top, idle VRIs
// may steal unpinned backlog from overloaded same-VR siblings. Acceptance
// bar: >=4x ring reduction at 8 shards x 16 VRIs, with 0 ordering
// violations under stealing. Every table here is simulated output; the
// real-thread fan-in of mesh vs fabric (bench/fanin.hpp) is timed by
// bench_hotpath's fabric_scaling_* keys (DESIGN.md §17).
#include "bench/exp_common.hpp"
#include "exp/experiments.hpp"

using namespace lvrm;
using namespace lvrm::exp;

namespace {

const char* workload_name(FabricTrialOptions::Workload w) {
  switch (w) {
    case FabricTrialOptions::Workload::kPinned: return "pinned";
    case FabricTrialOptions::Workload::kElephant: return "elephant";
    case FabricTrialOptions::Workload::kSkewFrame: return "skew-frame";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header(
      "Experiment 9: MPMC virtual-link fabric & work stealing",
      "DESIGN.md S17",
      "ring inventory collapses >=4x at 8x16 while arena bytes shrink; "
      "stealing moves frames off slowed VRIs with 0 ordering violations");

  // --- ring inventory: mesh vs fabric across topologies --------------------
  TablePrinter inv({"shards", "vris", "mesh rings", "fabric rings", "reduce",
                    "mesh KiB", "fabric KiB", "reclaimed KiB"},
                   args.csv);
  struct Topo { int shards, vris; };
  bench::Conservation conservation;
  for (const auto topo : {Topo{4, 8}, Topo{8, 16}, Topo{16, 32}}) {
    FabricTrialOptions opt;
    opt.shards = topo.shards;
    opt.vris = topo.vris;
    opt.seed = args.seed;
    opt.warmup = args.scaled(msec(2));
    opt.measure = args.scaled(msec(5));
    const auto r = run_fabric_trial(opt);
    conservation.check(r.conservation, std::to_string(topo.shards) + "x" +
                                           std::to_string(topo.vris) +
                                           " inventory");
    inv.add_row(
        {TablePrinter::num(static_cast<std::int64_t>(topo.shards)),
         TablePrinter::num(static_cast<std::int64_t>(topo.vris)),
         TablePrinter::num(static_cast<std::int64_t>(r.mesh_rings)),
         TablePrinter::num(static_cast<std::int64_t>(r.fabric_rings)),
         TablePrinter::num(static_cast<double>(r.mesh_rings) /
                               static_cast<double>(r.fabric_rings),
                           2),
         TablePrinter::num(static_cast<double>(r.mesh_ring_bytes) / 1024.0,
                           0),
         TablePrinter::num(static_cast<double>(r.fabric_ring_bytes) / 1024.0,
                           0),
         TablePrinter::num(
             static_cast<double>(r.mesh_ring_bytes - r.fabric_ring_bytes) /
                 1024.0,
             0)});
  }
  inv.print(std::cout);

  // --- work stealing under skew (sim): delivered, steals, invariants -------
  std::cout << "\n";
  TablePrinter steal({"workload", "stealing", "Kfps", "vri steals",
                      "stolen frames", "order viol"},
                     args.csv);
  for (const auto workload : {FabricTrialOptions::Workload::kPinned,
                              FabricTrialOptions::Workload::kSkewFrame,
                              FabricTrialOptions::Workload::kElephant}) {
    for (const bool stealing : {false, true}) {
      FabricTrialOptions opt;
      opt.shards = 2;
      opt.vris = 4;
      opt.stealing = stealing;
      opt.workload = workload;
      opt.seed = args.seed;
      opt.warmup = args.scaled(opt.warmup);
      opt.measure = args.scaled(opt.measure);
      const auto r = run_fabric_trial(opt);
      conservation.check(r.conservation,
                         std::string(workload_name(workload)) +
                             ", stealing " + (stealing ? "on" : "off"));
      steal.add_row(
          {workload_name(workload), stealing ? "on" : "off",
           TablePrinter::num(r.delivered_fps / 1e3, 1),
           TablePrinter::num(static_cast<std::int64_t>(r.vri_steals)),
           TablePrinter::num(static_cast<std::int64_t>(r.vri_steal_frames)),
           TablePrinter::num(
               static_cast<std::int64_t>(r.ordering_violations))});
    }
  }
  steal.print(std::cout);
  return conservation.exit_code();
}
