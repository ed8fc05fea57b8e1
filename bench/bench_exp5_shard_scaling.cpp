// Experiment 5 — sharded dispatch-plane scaling (DESIGN.md §11).
//
// The thesis measures one dispatcher loop; this extension asks how far the
// gateway scales when the dispatch plane itself is sharded RSS-style. The
// memory socket adapter isolates LVRM's internal overhead (as in Exp 1c), so
// the single-dispatcher core is the bottleneck and each added shard should
// buy close to a full core of dispatch capacity — the acceptance bar is
// >=1.5x aggregate throughput at 2 shards with zero flow-affinity or
// per-flow ordering violations.
#include "bench/exp_common.hpp"
#include "exp/experiments.hpp"

using namespace lvrm;
using namespace lvrm::exp;

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header(
      "Experiment 5: sharded dispatch-plane scaling (RAM trace)",
      "DESIGN.md S11",
      "aggregate Kfps grows near-linearly until VRI capacity or the core "
      "budget binds (>=1.5x at 2 shards); RSS keeps every flow on one shard "
      "so affinity/ordering violations stay 0 at every point");

  TablePrinter table({"shards", "Kfps", "speedup", "lat us", "rx split",
                      "affinity viol", "order viol"},
                     args.csv);
  double base_fps = 0.0;
  bench::Conservation conservation;
  for (const int shards : {1, 2, 3, 4}) {
    ShardScalingOptions opt;
    opt.shards = shards;
    opt.seed = args.seed;
    opt.warmup = args.scaled(opt.warmup);
    opt.measure = args.scaled(opt.measure);
    const auto r = run_shard_scaling_trial(opt);
    conservation.check(r.conservation, std::to_string(shards) + " shards");
    if (shards == 1) base_fps = r.delivered_fps;

    // The RSS split as each shard's share of admitted frames, e.g. "50/50".
    std::uint64_t total_rx = 0;
    for (const auto rx : r.per_shard_rx) total_rx += rx;
    std::string split;
    for (std::size_t s = 0; s < r.per_shard_rx.size(); ++s) {
      if (s) split += "/";
      const double pct =
          total_rx ? 100.0 * static_cast<double>(r.per_shard_rx[s]) /
                         static_cast<double>(total_rx)
                   : 0.0;
      split += TablePrinter::num(pct, 0);
    }

    table.add_row({TablePrinter::num(static_cast<std::int64_t>(r.shards)),
                   TablePrinter::num(r.delivered_fps / 1e3, 1),
                   TablePrinter::num(
                       base_fps > 0.0 ? r.delivered_fps / base_fps : 0.0, 2),
                   TablePrinter::num(r.avg_latency_us, 1), split,
                   TablePrinter::num(
                       static_cast<std::int64_t>(r.affinity_violations)),
                   TablePrinter::num(
                       static_cast<std::int64_t>(r.ordering_violations))});
  }
  table.print(std::cout);
  return conservation.exit_code();
}
