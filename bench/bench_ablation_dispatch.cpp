// Ablation: LVRM's own design knobs, measured at figure level.
//
// Three sweeps over design choices DESIGN.md calls out:
//   1. poll batch size — throughput (memory world) vs control-event latency
//      under full load: the Exp 1c / Exp 1e trade-off.
//   2. load-estimator variant (Fig 3.4): queue-length vs arrival-time under
//      JSQ at the Exp 3a operating point.
//   3. EWMA weight — allocation stability on a bursty load: a twitchy
//      estimator flaps core allocations, a smooth one reacts late.
#include "bench/exp_common.hpp"
#include "exp/experiments.hpp"
#include "exp/rig.hpp"
#include "sim/costs.hpp"
#include "traffic/udp_sender.hpp"

using namespace lvrm;
using namespace lvrm::exp;

namespace {

/// Exp 1c's RAM world at poll batch `batch` with one portless flow: the
/// delivered rate over 10-40 ms, and the conservation verdict.
MemoryTrialResult memory_throughput(std::size_t batch) {
  LvrmConfig cfg = ram_config();
  cfg.poll_batch = batch;
  LvrmRig rig(cfg, 1, 0);
  rig.refill(512, host_flow());
  rig.sim.run_until(msec(10));
  const std::uint64_t mark = rig.delivered();
  rig.sim.run_until(msec(40));
  MemoryTrialResult out;
  out.delivered_fps = static_cast<double>(rig.delivered() - mark) / 0.03;
  out.conservation = rig.drain();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header(
      "Ablation: LVRM design knobs", "(design study, not a paper figure)",
      "poll batch trades control-event latency for loop efficiency; the two "
      "Fig 3.4 estimators deliver comparable throughput; small EWMA weights "
      "flap core allocations on bursty input, large ones react slowly");

  std::cout << "-- 1. poll batch: throughput vs control latency --\n";
  TablePrinter batch_table(
      {"batch", "memory Kfps", "ctrl latency full-load us"}, args.csv);
  bench::Conservation conservation;
  for (const std::size_t batch : {1UL, 2UL, 4UL, 6UL, 8UL, 16UL}) {
    const auto r = memory_throughput(batch);
    conservation.check(r.conservation, "poll batch " + std::to_string(batch));
    batch_table.add_row(
        {TablePrinter::num(static_cast<std::int64_t>(batch)),
         TablePrinter::num(r.delivered_fps / 1e3, 1),
         TablePrinter::num(
             measure_control_latency_us(256, /*full_load=*/true, 120, batch),
             2)});
  }
  batch_table.print(std::cout);
  std::cout << "(finding: batching leaves capacity untouched in LVRM's "
               "regime — per-frame costs dominate per-pass costs — but "
               "control events wait behind ever longer data bursts)\n";

  std::cout << "\n-- 2. load estimator under JSQ (360 Kfps, 6 VRIs) --\n";
  TablePrinter est_table({"estimator", "delivered Kfps"}, args.csv);
  for (const EstimatorKind estimator :
       {EstimatorKind::kQueueLength, EstimatorKind::kArrivalTime}) {
    WorldOptions opts;
    opts.warmup = args.scaled(msec(400));
    opts.measure = args.scaled(msec(800));
    opts.gw.lvrm.estimator = estimator;
    opts.gw.lvrm.allocator = AllocatorKind::kFixed;
    opts.gw.lvrm.max_vris_per_vr = 6;
    VrConfig vr;
    vr.initial_vris = 6;
    vr.dummy_load = sim::costs::kDummyLoad;
    opts.gw.vrs = {vr};
    const auto r = run_udp_trial(opts, 360'000.0);
    est_table.add_row({to_string(estimator),
                       TablePrinter::num(r.delivered_fps / 1e3, 1)});
  }
  est_table.print(std::cout);

  std::cout << "\n-- 3. EWMA weight vs allocation stability (bursty load) --\n";
  TablePrinter ewma_table({"weight", "allocations", "final VRIs"}, args.csv);
  for (const double weight : {1.0, 7.0, 500.0, 5000.0, 40000.0}) {
    WorldOptions opts;
    opts.gw.lvrm.allocator = AllocatorKind::kDynamicFixedThreshold;
    opts.gw.lvrm.ewma_weight = weight;
    VrConfig vr;
    vr.dummy_load = sim::costs::kDummyLoad;
    opts.gw.vrs = {vr};
    // A load that flickers around the 2-core threshold every 250 ms.
    SenderSpec spec;
    spec.src_ip = net::ipv4(10, 1, 1, 1);
    spec.dst_ip = net::ipv4(10, 2, 1, 1);
    // 300 ms steps: deliberately not a divisor of the 1 s allocation
    // period, so successive allocation passes see alternating rates.
    for (int i = 0; i < 27; ++i)
      spec.profile.push_back(traffic::RateStep{
          msec(300) * i, i % 2 == 0 ? 95'000.0 : 130'000.0});
    opts.senders = {spec};
    const auto trace = run_allocation_trace(opts, sec(8), msec(500));
    ewma_table.add_row(
        {TablePrinter::num(weight, 0),
         TablePrinter::num(static_cast<std::int64_t>(trace.log.size())),
         TablePrinter::num(static_cast<std::int64_t>(
             trace.samples.back().vris_per_vr.at(0)))});
  }
  ewma_table.print(std::cout);
  return conservation.exit_code();
}
