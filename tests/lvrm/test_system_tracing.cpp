// End-to-end §15 tracing: bit-identical results with tracing on or off, the
// load-adaptive sampling controller reacting to idle and flash-crowd load,
// path spans landing in the Chrome-trace export, and the flight recorder
// dumping on injected VRI crashes and ladder-to-admission escalation.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <tuple>
#include <vector>

#include "exp/experiments.hpp"
#include "exp/rig.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace lvrm {
namespace {

using namespace exp;

namespace costs = sim::costs;

LvrmConfig tracing_cfg(bool tracing) {
  LvrmConfig c;
  c.allocator = AllocatorKind::kFixed;
  c.tracing.enabled = tracing;
  return c;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(SystemTracing, DisabledMeansNoTracerObject) {
  LvrmRig rig(tracing_cfg(false));
  rig.offer(50'000.0, msec(100));
  rig.sim.run_all();
  EXPECT_EQ(rig.sys->tracer(), nullptr);
}

TEST(SystemTracing, ResultsBitIdenticalTracingOnOff) {
  // The §15 zero-effect contract: tracing is host-side observation only, so
  // every result the simulation produces is identical with it on or off —
  // same frames delivered, same drops, same final sim time.
  auto run = [](bool tracing) {
    LvrmRig rig(tracing_cfg(tracing), /*initial_vris=*/2);
    rig.offer(150'000.0, msec(400));  // overloads 2 VRIs: drops happen too
    rig.sim.run_all();
    return std::tuple{rig.delivered(), rig.sys->forwarded(),
                      rig.sys->data_queue_drops(), rig.sim.now()};
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(SystemTracing, OffExportsCarryNoTraceFamiliesAndMatchDefaults) {
  // Byte-identity for telemetry consumers: a tracing-off export must be
  // byte-for-byte the export of an untouched default config, and contain
  // none of the trace gauge families or span/flight event names.
  auto export_text = [](bool touch_tracing, const char* tag) {
    LvrmConfig c;
    c.allocator = AllocatorKind::kFixed;
    if (touch_tracing) c.tracing.enabled = false;  // explicit off == default
    LvrmRig rig(c);
    rig.offer(50'000.0, msec(200));
    rig.sim.run_all();
    const std::string prefix = ::testing::TempDir() + "trace_off_" + tag;
    EXPECT_TRUE(rig.sys->export_telemetry(prefix));
    std::string all;
    for (const char* ext : {".prom", ".csv", ".trace.json"}) {
      all += slurp(prefix + ext);
      std::remove((prefix + ext).c_str());
    }
    return all;
  };
  const std::string off = export_text(true, "explicit");
  EXPECT_EQ(off, export_text(false, "default"));
  // Trace gauge families and span/flight event names must be absent (the
  // telemetry histogram lvrm_queue_wait_ns legitimately remains, hence the
  // exact "name": patterns for the trace-event vocabulary).
  for (const char* name :
       {"lvrm_trace_", "lvrm_flight_dumps", "\"name\":\"thread_name\"",
        "\"name\":\"queue_wait\"", "\"name\":\"frame_path\"",
        "\"name\":\"flight_dump\""})
    EXPECT_EQ(off.find(name), std::string::npos) << name;
}

TEST(SystemTracing, AdaptiveSamplerRaisesResolutionWhenIdle) {
  LvrmConfig c = tracing_cfg(true);
  LvrmRig rig(c, /*initial_vris=*/2);
  ASSERT_NE(rig.sys->tracer(), nullptr);
  EXPECT_EQ(rig.sys->tracer()->sample_every(), 64u);
  rig.offer(30'000.0, msec(300));  // 1/4 of capacity: queues stay shallow
  rig.sim.run_all();
  // Idle pressure relaxes the period to the 1-in-4 floor.
  EXPECT_EQ(rig.sys->tracer()->sample_every(), 4u);
  EXPECT_GE(rig.sys->tracer()->adaptations(), 4u);
}

TEST(SystemTracing, AdaptiveSamplerBacksOffUnderFlashCrowd) {
  // The Exp 6 flash-crowd shape: light load, then a burst well past the one
  // VRI's capacity. The controller must first raise resolution, then back
  // off once the dispatch queues sit above the pressure watermark — tracing
  // sheds its own resolution under overload instead of adding to it.
  LvrmConfig c = tracing_cfg(true);
  LvrmRig rig(c, /*initial_vris=*/1);
  rig.offer(20'000.0, msec(200));  // idle phase
  // Then a flash crowd at >4x capacity.
  rig.offer(250'000.0, msec(500), port_flows(), msec(200));
  std::uint32_t idle_period = 0;
  rig.sim.at(msec(199), [&] { idle_period = rig.sys->tracer()->sample_every(); });
  rig.sim.run_all();
  EXPECT_EQ(idle_period, 4u);  // resolution rose to the floor while idle
  // Under the crowd the period backed off (demonstrably lower sample rate).
  EXPECT_GT(rig.sys->tracer()->sample_every(), idle_period);
  EXPECT_GE(rig.sys->tracer()->sample_every(), 64u);
}

TEST(SystemTracing, ExportContainsNestedPathSpanTracks) {
  LvrmRig rig(tracing_cfg(true));
  rig.offer(50'000.0, msec(200));
  rig.sim.run_all();
  ASSERT_GT(rig.sys->tracer()->spans().size(), 0u);
  // Delivered sampled frames carry the full timeline.
  bool complete = false;
  for (const auto& s : rig.sys->tracer()->spans())
    if (s.terminal == 0 && s.gw_in <= s.rx_serve && s.rx_serve <= s.enq &&
        s.enq <= s.svc_start && s.svc_start <= s.svc_end &&
        s.svc_end <= s.gw_out && s.gw_out > 0)
      complete = true;
  EXPECT_TRUE(complete);

  const std::string prefix = ::testing::TempDir() + "trace_spans";
  ASSERT_TRUE(rig.sys->export_telemetry(prefix));
  const std::string text = slurp(prefix + ".trace.json");
  for (const char* ext : {".prom", ".csv", ".trace.json"})
    std::remove((prefix + ext).c_str());
  for (const char* name : {"thread_name", "shard 0 dispatch", "vr0 vri0 service",
                           "\"name\":\"dispatch\"", "\"name\":\"queue_wait\"",
                           "\"name\":\"service\"", "\"name\":\"tx_drain\"",
                           "\"name\":\"frame_path\""})
    EXPECT_NE(text.find(name), std::string::npos) << name;
}

TEST(SystemTracing, VriCrashDumpsTheFlightRecorder) {
  LvrmConfig c = tracing_cfg(true);
  c.tracing.dump_dir = ::testing::TempDir();
  // Size the black box to cover the crash-to-reap window at this load (the
  // reap rides the next 1 s allocation pass), so the dump still holds the
  // victim's in-flight frames when the verdict lands.
  c.tracing.recorder_capacity = 1u << 16;
  LvrmRig rig(c, /*initial_vris=*/3);
  rig.offer(150'000.0, sec(2) + msec(500));
  rig.sim.at(sec(1) + msec(900), [&rig] { rig.sys->inject_vri_crash(0, 1); });
  rig.sim.run_all();
  ASSERT_EQ(rig.sys->crashed_vris_reaped(), 1u);

  const obs::Tracer& tr = *rig.sys->tracer();
  ASSERT_GE(tr.dumps_taken(), 1u);
  const obs::FlightDump& d = tr.dumps().front();
  EXPECT_EQ(d.reason, "vri_crash");
  EXPECT_EQ(d.vr, 0);
  EXPECT_EQ(d.vri, 1);
  // The black box holds the milliseconds before the verdict, including the
  // in-flight frames of the affected shard/VRI: records for VRI 1 that were
  // written before the reap (dispatches and service hops headed its way).
  bool saw_affected = false;
  for (const auto& r : d.records) {
    EXPECT_LE(r.t, d.time);
    if (r.vri == 1) saw_affected = true;
  }
  EXPECT_TRUE(saw_affected);
  EXPECT_FALSE(d.records.empty());

  // The dump also landed on disk as JSON, and in the audit trail.
  const std::string path =
      c.tracing.dump_dir + "/flight_" + std::to_string(d.seq) + "_vri_crash.json";
  const std::string text = slurp(path);
  std::remove(path.c_str());
  EXPECT_NE(text.find("\"reason\":\"vri_crash\""), std::string::npos);
  EXPECT_NE(text.find("\"hop\":"), std::string::npos);
  bool audited = false;
  for (const auto& e : rig.sys->telemetry()->audit().events())
    if (e.kind == obs::AuditKind::kFlightDump) {
      audited = true;
      EXPECT_EQ(e.vri, 1);
      EXPECT_EQ(e.a, d.records.size());
    }
  EXPECT_TRUE(audited);
}

TEST(SystemTracing, AdmissionEscalationDumpsTheFlightRecorder) {
  LvrmConfig c = tracing_cfg(true);
  c.overload_control.enabled = true;
  LvrmRig rig(c, /*initial_vris=*/1);
  rig.offer(200'000.0, msec(40));  // >3x one VRI: ladder reaches admission
  rig.sim.run_all();
  ASSERT_GT(rig.sys->drops(DropCause::kAdmissionReject), 0u);

  const obs::Tracer& tr = *rig.sys->tracer();
  ASSERT_GE(tr.dumps_taken(), 1u);
  bool admission_dump = false;
  for (const auto& d : tr.dumps())
    if (d.reason == "admission") {
      admission_dump = true;
      EXPECT_EQ(d.vr, 0);
      EXPECT_FALSE(d.records.empty());  // the pre-escalation in-flight frames
    }
  EXPECT_TRUE(admission_dump);
}

TEST(SystemTracing, DropsTerminateSpansWithTheExitCause) {
  LvrmConfig c = tracing_cfg(true);
  c.tracing.initial_sample_every = 1;  // sample everything: drops included
  c.tracing.min_sample_every = 1;
  LvrmRig rig(c, /*initial_vris=*/1);
  rig.offer(250'000.0, msec(50));  // far past capacity: queue-full drops
  rig.sim.run_all();
  ASSERT_GT(rig.sys->data_queue_drops(), 0u);
  bool dropped_span = false;
  for (const auto& s : rig.sys->tracer()->spans())
    if (s.terminal ==
        static_cast<std::uint8_t>(static_cast<int>(DropCause::kQueueFull) + 1))
      dropped_span = true;
  EXPECT_TRUE(dropped_span);
}

TEST(SystemTracing, Exp1aAndExp3aTrialsAreByteIdenticalTracingOnOff) {
  // The figure-level contract: the exact trials the exp1a (fixed-rate UDP
  // forwarding) and exp3a (JSQ over six VRIs) CSV rows are built from must
  // produce identical counts with tracing on or off — what the bench CSVs
  // print is a pure function of these fields.
  auto udp = [](bool tracing) {
    exp::WorldOptions opts;
    opts.warmup = msec(20);
    opts.measure = msec(50);
    opts.gw.lvrm.tracing.enabled = tracing;
    return exp::run_udp_trial(opts, 150'000.0);
  };
  auto balance = [](bool tracing) {
    exp::WorldOptions opts;
    opts.warmup = msec(20);
    opts.measure = msec(50);
    opts.gw.lvrm.tracing.enabled = tracing;
    opts.gw.lvrm.balancer = BalancerKind::kJoinShortestQueue;
    opts.gw.lvrm.allocator = AllocatorKind::kDynamicFixedThreshold;
    opts.gw.lvrm.max_vris_per_vr = 6;
    VrConfig vr;
    vr.initial_vris = 6;
    vr.dummy_load = costs::kDummyLoad;
    opts.gw.vrs = {vr};
    return exp::run_udp_trial(opts, 360'000.0);
  };
  auto expect_equal = [](const exp::UdpTrialResult& off,
                         const exp::UdpTrialResult& on) {
    EXPECT_EQ(off.sent, on.sent);
    EXPECT_EQ(off.received, on.received);
    EXPECT_DOUBLE_EQ(off.offered_fps, on.offered_fps);
    EXPECT_DOUBLE_EQ(off.delivered_fps, on.delivered_fps);
    EXPECT_DOUBLE_EQ(off.delivered_bps, on.delivered_bps);
    EXPECT_EQ(off.gateway_rx_drops, on.gateway_rx_drops);
    EXPECT_EQ(off.queue_drops, on.queue_drops);
  };
  expect_equal(udp(false), udp(true));
  expect_equal(balance(false), balance(true));
}

}  // namespace
}  // namespace lvrm
