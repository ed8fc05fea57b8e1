// End-to-end telemetry (DESIGN.md §10): the audit trail replays to the
// allocator's final state, latency histograms fill from sampled frames in
// both hot-path modes, exports land on disk, and — the zero-overhead
// contract — experiment results are bit-identical with telemetry on or off.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "exp/rig.hpp"
#include "obs/telemetry.hpp"

namespace lvrm {
namespace {

using namespace exp;

LvrmConfig dynamic_cfg() {
  LvrmConfig cfg;
  cfg.allocator = AllocatorKind::kDynamicFixedThreshold;
  return cfg;
}

/// Replays the audit trail's create/destroy events; `a` is the VRI count
/// after each change, so the last event per VR IS the current count.
int replay_vri_count(const std::vector<obs::AuditEvent>& events, int vr) {
  int count = 0;
  for (const auto& e : events) {
    if (e.vr != vr) continue;
    if (e.kind == obs::AuditKind::kVriCreate ||
        e.kind == obs::AuditKind::kVriDestroy)
      count = static_cast<int>(e.a);
  }
  return count;
}

TEST(SystemTelemetry, AuditReplayMatchesAllocatorState) {
  LvrmRig rig(dynamic_cfg());
  rig.offer(150'000.0, sec(5), port_flows(16));  // grow to 3 VRIs
  rig.offer(30'000.0, sec(12), port_flows(16), sec(5));  // shrink back to 1
  rig.sim.run_all();

  ASSERT_NE(rig.sys->telemetry(), nullptr);
  const auto events = rig.sys->telemetry()->audit().events();
  int creates = 0;
  int destroys = 0;
  for (const auto& e : events) {
    if (e.kind == obs::AuditKind::kVriCreate) ++creates;
    if (e.kind == obs::AuditKind::kVriDestroy) ++destroys;
  }
  // Initial activation + 2 growth passes, then 2 shrink passes.
  EXPECT_EQ(creates, 3);
  EXPECT_EQ(destroys, 2);
  EXPECT_EQ(replay_vri_count(events, 0), rig.sys->active_vris(0));

  // Cause fields: every allocator create carries the arrival EWMA that
  // exceeded the capacity threshold at decision time.
  for (const auto& e : events) {
    if (e.kind != obs::AuditKind::kVriCreate || e.c != 0 || e.time == 0)
      continue;
    EXPECT_GT(e.rate, e.threshold);
  }
}

TEST(SystemTelemetry, BalanceSummariesAccountDispatchedFrames) {
  LvrmRig rig(dynamic_cfg());
  rig.offer(100'000.0, sec(4), port_flows(16));
  rig.sim.run_all();
  std::uint64_t summarized = 0;
  for (const auto& e : rig.sys->telemetry()->audit().events())
    if (e.kind == obs::AuditKind::kBalanceSummary) summarized += e.a;
  // Summaries fire at allocation passes; everything dispatched before the
  // last pass must be covered (the tail after it is not yet summarized).
  EXPECT_GT(summarized, 0u);
  EXPECT_LE(summarized, rig.sys->dispatcher(0).decisions());
}

TEST(SystemTelemetry, LatencyHistogramsFillFromSampledFrames) {
  LvrmRig rig(dynamic_cfg());
  rig.offer(100'000.0, sec(2), port_flows(16));
  rig.sim.run_all();
  const obs::Snapshot snap = rig.sys->telemetry()->metrics().snapshot();

  std::uint64_t rx = 0;
  std::uint64_t tx = 0;
  for (const auto& c : snap.counters) {
    if (c.name == "lvrm_rx_frames_total") rx = c.value;
    if (c.name == "lvrm_tx_frames_total") tx = c.value;
  }
  EXPECT_GT(rx, 0u);
  EXPECT_EQ(tx, rig.sys->forwarded());

  bool saw_wait = false;
  bool saw_e2e = false;
  for (const auto& h : snap.histograms) {
    if (h.name == "lvrm_queue_wait_ns" && h.count() > 0) saw_wait = true;
    if (h.name == "lvrm_e2e_latency_ns" && h.count() > 0) {
      saw_e2e = true;
      // Sampled 1-in-64: roughly forwarded/64 samples.
      EXPECT_NEAR(static_cast<double>(h.count()),
                  static_cast<double>(rig.sys->forwarded()) / 64.0,
                  static_cast<double>(rig.sys->forwarded()) / 128.0);
      EXPECT_GT(h.quantile(0.5), 0.0);
    }
  }
  EXPECT_TRUE(saw_wait);
  EXPECT_TRUE(saw_e2e);
}

TEST(SystemTelemetry, ResultsBitIdenticalTelemetryOnOff) {
  auto run = [](bool telemetry_on) {
    LvrmConfig cfg = dynamic_cfg();
    cfg.telemetry.enabled = telemetry_on;
    LvrmRig rig(cfg);
    rig.offer(150'000.0, sec(4), port_flows(16));
    rig.sim.run_all();
    return std::tuple{rig.delivered(), rig.sys->forwarded(),
                      rig.sys->active_vris(0), rig.sys->data_queue_drops(),
                      rig.sim.now()};
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(SystemTelemetry, DisabledMeansNoTelemetryObject) {
  LvrmConfig cfg = dynamic_cfg();
  cfg.telemetry.enabled = false;
  LvrmRig rig(cfg);
  rig.offer(50'000.0, msec(500), port_flows(16));
  rig.sim.run_all();
  EXPECT_EQ(rig.sys->telemetry(), nullptr);
  EXPECT_FALSE(rig.sys->export_telemetry("/tmp/should_not_exist"));
}

TEST(SystemTelemetry, HealthTransitionIsAudited) {
  LvrmConfig cfg;
  cfg.allocator = AllocatorKind::kFixed;
  cfg.health.enabled = true;
  // Two VRIs so a hang leaves a healthy sibling serving traffic.
  LvrmRig rig(cfg, /*initial_vris=*/2);
  rig.offer(50'000.0, sec(2), port_flows(16));
  rig.sim.at(msec(500), [&rig] { rig.sys->inject_vri_hang(0, 0); });
  rig.sim.run_all();
  ASSERT_FALSE(rig.sys->recovery_log().empty());
  bool audited = false;
  for (const auto& e : rig.sys->telemetry()->audit().events())
    if (e.kind == obs::AuditKind::kHealthHung) {
      audited = true;
      EXPECT_EQ(e.vr, 0);
      EXPECT_GT(e.threshold, 0.0);  // the configured heartbeat timeout
    }
  EXPECT_TRUE(audited);
}

TEST(SystemTelemetry, ExportWritesAllThreeFiles) {
  LvrmRig rig(dynamic_cfg());
  rig.offer(100'000.0, sec(2), port_flows(16));
  rig.sim.run_all();
  const std::string prefix = ::testing::TempDir() + "tel_export";
  ASSERT_TRUE(rig.sys->export_telemetry(prefix));

  std::ifstream prom(prefix + ".prom");
  ASSERT_TRUE(prom.good());
  std::string prom_text((std::istreambuf_iterator<char>(prom)),
                        std::istreambuf_iterator<char>());
  EXPECT_NE(prom_text.find("lvrm_rx_frames_total"), std::string::npos);
  EXPECT_NE(prom_text.find("lvrm_e2e_latency_ns_bucket"), std::string::npos);

  std::ifstream csv(prefix + ".csv");
  ASSERT_TRUE(csv.good());
  std::string header;
  std::getline(csv, header);
  EXPECT_EQ(header, "t_sec,metric,labels,value");

  std::ifstream trace(prefix + ".trace.json");
  ASSERT_TRUE(trace.good());
  std::string trace_text((std::istreambuf_iterator<char>(trace)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(trace_text.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(trace_text.find("vri_create"), std::string::npos);

  std::remove((prefix + ".prom").c_str());
  std::remove((prefix + ".csv").c_str());
  std::remove((prefix + ".trace.json").c_str());
}

TEST(SystemTelemetry, PeriodicSnapshotsAccumulate) {
  LvrmRig rig(dynamic_cfg());
  rig.offer(80'000.0, sec(1) + msec(300), port_flows(16));
  rig.sim.run_all();
  // 1.3 s of traffic at the 250 ms cadence: five periodic snapshots.
  static_assert(obs::Telemetry::kSnapshotPeriod == msec(250));
  EXPECT_GE(rig.sys->telemetry()->series().size(), 5u);
  // Snapshot times are monotone.
  const auto& series = rig.sys->telemetry()->series();
  for (std::size_t i = 1; i < series.size(); ++i)
    EXPECT_GT(series[i].at, series[i - 1].at);
}

}  // namespace
}  // namespace lvrm
