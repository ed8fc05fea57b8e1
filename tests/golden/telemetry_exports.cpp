// telemetry_exports.cpp — writes the telemetry exports of two short LVRM
// runs, which the Golden.telemetry_exports ctest compares byte for byte with
// tests/golden/telemetry_<run>.{prom,csv}.
//
// Usage: telemetry_exports <out-dir>
//
// Writes <out-dir>/telemetry_<run>.{prom,csv,trace.json} for two runs:
//   default       LvrmConfig{} and one VR: the export every trial gets.
//   all_families  every option that registers a metric family on at once —
//                 two dispatch shards, the overload ladder, state replication
//                 on a stateful VR, work stealing and tracing — driven by an
//                 elephant flow and a flash crowd past three periodic
//                 snapshots.
// scripts/regen_golden.py rewrites the golden files from this output.
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>

#include "lvrm/system.hpp"
#include "sim/costs.hpp"

namespace {

using namespace lvrm;

/// Runs one VR under `mice_fps` frames/s spread over 32 flows plus one
/// `elephant_fps` flow until `until`, optionally with a flash crowd, and
/// exports the telemetry to `prefix`.
bool export_run(const std::string& prefix, const LvrmConfig& cfg,
                const VrConfig& vr, double mice_fps, double elephant_fps,
                Nanos until, bool flash_crowd) {
  sim::Simulator sim;
  sim::CpuTopology topo;
  LvrmSystem sys(sim, topo, cfg);
  sys.add_vr(vr);
  sys.start();

  auto frame = [&sim](std::uint16_t src_port, std::uint64_t id) {
    net::FrameMeta f;
    f.id = id;
    f.protocol = 17;
    f.src_ip = net::ipv4(10, 1, 0, 1);
    f.dst_ip = net::ipv4(10, 2, 0, 1);
    f.src_port = src_port;
    f.dst_port = 9;
    f.created_at = sim.now();
    return f;
  };
  std::uint64_t next_id = 0;
  // Declare-then-assign emitters: each reschedules itself through a
  // reference to its own local, so no callback owns a cycle.
  const Nanos mice_gap = interval_for_rate(mice_fps);
  std::function<void()> mice;
  mice = [&] {
    if (sim.now() >= until) return;
    const auto port = static_cast<std::uint16_t>(2000 + next_id % 32);
    sys.ingress(frame(port, next_id++));
    sim.after(mice_gap, [&mice] { mice(); });
  };
  sim.at(0, [&mice] { mice(); });
  std::function<void()> elephant;
  if (elephant_fps > 0.0) {
    const Nanos gap = interval_for_rate(elephant_fps);
    elephant = [&, gap] {
      if (sim.now() >= until) return;
      sys.ingress(frame(7000, next_id++));
      sim.after(gap, [&elephant] { elephant(); });
    };
    sim.at(0, [&elephant] { elephant(); });
  }
  if (flash_crowd)
    sim.at(msec(400), [&sys] {
      sys.inject_overload_burst(0, 200'000.0, msec(150));
    });
  sim.run_all();
  return sys.export_telemetry(prefix);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <out-dir>\n", argv[0]);
    return 2;
  }
  const std::string dir = argv[1];

  VrConfig plain;
  plain.dummy_load = sim::costs::kDummyLoad;
  bool ok = export_run(dir + "/telemetry_default", LvrmConfig{}, plain,
                       100'000.0, 0.0, sec(1) + msec(100), false);

  LvrmConfig all;
  all.allocator = AllocatorKind::kFixed;
  all.granularity = BalancerGranularity::kFlow;
  all.dispatch_shards = 2;
  all.overload_control.enabled = true;
  all.state_replication.enabled = true;
  all.work_stealing = true;
  all.tracing.enabled = true;
  VrConfig stateful;
  // A per-flow token bucket far above the offered rate: every frame
  // changes flow state (so sprayed frames relay deltas) but none is refused.
  stateful.kind = VrKind::kRateLimit;
  stateful.rate_limit_fps = 1e9;
  stateful.rate_limit_burst = 1e6;
  stateful.initial_vris = 3;
  stateful.dummy_load = sim::costs::kDummyLoad;
  ok = export_run(dir + "/telemetry_all_families", all, stateful, 90'000.0,
                  45'000.0, sec(1), true) &&
       ok;

  if (!ok) {
    std::fprintf(stderr, "could not write the exports under %s\n",
                 dir.c_str());
    return 1;
  }
  return 0;
}
