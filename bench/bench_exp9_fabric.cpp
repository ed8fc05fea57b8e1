// Experiment 9 — MPMC virtual-link IPC fabric with work stealing
// (DESIGN.md §17).
//
// The SPSC mesh allocates one ring per (endpoint, peer) pair, so the ring
// inventory grows as V*(2S+2)+S and each VRI's ingress buffering is
// statically split S ways. §17 collapses a VRI's ingress to ONE MpmcLink
// fed by every shard and TX to one per-home-shard MPMC drain, shrinking
// the inventory to V*3+2S and pooling the buffer budget; on top, idle VRIs
// may steal unpinned backlog from overloaded same-VR siblings. Acceptance
// bar: >=4x ring reduction and >=1.2x aggregate real-thread fan-in at 8
// shards x 16 VRIs, with 0 ordering violations under stealing. The fan-in
// (bench/fanin.hpp) runs nproc/2 producers and nproc/2 consumers; on a
// 4-vCPU VM (2 + 2 threads) it read 1.03-1.42x at 8x16 over three Release
// runs, so the fan-in bar is not met there (DESIGN.md §17).
#include <algorithm>

#include "bench/exp_common.hpp"
#include "bench/fanin.hpp"
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
      "real-thread fan-in >=1.2x the SPSC mesh at 8x16; stealing moves "
      "frames off slowed VRIs with 0 ordering violations");

  // --- ring inventory: mesh vs fabric across topologies --------------------
  TablePrinter inv({"shards", "vris", "mesh rings", "fabric rings", "reduce",
                    "mesh KiB", "fabric KiB", "reclaimed KiB"},
                   args.csv);
  struct Topo { int shards, vris; };
  for (const auto topo : {Topo{4, 8}, Topo{8, 16}, Topo{16, 32}}) {
    FabricTrialOptions opt;
    opt.shards = topo.shards;
    opt.vris = topo.vris;
    opt.seed = args.seed;
    opt.warmup = args.scaled(msec(2));
    opt.measure = args.scaled(msec(5));
    const auto r = run_fabric_trial(opt);
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

  // --- real-thread fan-in: aggregate Mops, mesh vs fabric ------------------
  std::cout << "\n";
  TablePrinter fanin({"shards", "vris", "mesh Mops", "fabric Mops", "speedup"},
                     args.csv);
  const std::uint64_t per_vri =
      static_cast<std::uint64_t>(48'000 * args.scale);
  for (const auto topo : {Topo{4, 8}, Topo{8, 16}, Topo{16, 32}}) {
    // Best-of-3: scheduler noise only ever subtracts throughput.
    double mesh_best = 0.0, fab_best = 0.0;
    for (int r = 0; r < 3; ++r) {
      mesh_best = std::max(
          mesh_best, bench::fabric_fanin_mops(
                         false, static_cast<std::size_t>(topo.shards),
                         static_cast<std::size_t>(topo.vris), per_vri));
      fab_best = std::max(
          fab_best, bench::fabric_fanin_mops(
                        true, static_cast<std::size_t>(topo.shards),
                        static_cast<std::size_t>(topo.vris), per_vri));
    }
    fanin.add_row({TablePrinter::num(static_cast<std::int64_t>(topo.shards)),
                   TablePrinter::num(static_cast<std::int64_t>(topo.vris)),
                   TablePrinter::num(mesh_best, 1),
                   TablePrinter::num(fab_best, 1),
                   TablePrinter::num(fab_best / mesh_best, 2)});
  }
  fanin.print(std::cout);

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
  return 0;
}
