// telemetry.hpp — per-system telemetry bundle: registry + audit + exporters.
//
// One Telemetry object per LvrmSystem (or per bench harness) owns the
// metrics registry, the decision audit trail, the retained snapshot series,
// the deterministic 1-in-N latency sampling tick, the three sampled latency
// histograms and the snapshot cadence. Everything here is host-side
// observation only: no sim cost is ever charged and no RNG is consumed, so
// experiment outputs are bit-identical with telemetry on or off (tested in
// test_system_telemetry.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "obs/audit.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"

namespace lvrm::obs {

struct PathSpan;  // trace.hpp (§15)

struct TelemetryConfig {
  /// Master switch; when false LvrmSystem creates no Telemetry at all and
  /// the hot path carries zero extra work beyond one pointer null check.
  bool enabled = true;
};

class Telemetry {
 public:
  /// Latency sampling period: stamp every Nth RX frame.
  static constexpr std::uint32_t kSampleEvery = 64;
  /// Audit-trail ring capacity (overwrite-oldest beyond this).
  static constexpr std::size_t kAuditCapacity = 8192;
  /// Bound on the retained snapshot series (oldest dropped beyond this).
  static constexpr std::size_t kMaxSnapshots = 4096;
  /// Periodic snapshot cadence in sim time (maybe_snapshot); a final
  /// snapshot is also taken at export time.
  static constexpr Nanos kSnapshotPeriod = msec(250);

  /// Registers the three sampled latency histograms.
  Telemetry();

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  AuditTrail& audit() { return audit_; }
  const AuditTrail& audit() const { return audit_; }

  /// Deterministic 1-in-N tick for latency sampling (no RNG: determinism).
  /// The countdown itself lives in TelemetrySampler (sampler.hpp) so the
  /// §15 adaptive tracing controller shares the exact same tick; the
  /// `period = 0 -> disabled`, `1 -> everything` contract is documented and
  /// tested there.
  bool should_sample() { return sampler_.tick(); }

  /// Records one sampled frame's three latency stages: RX enqueue -> VRI
  /// service start, service start -> done, and gateway in -> out. A
  /// negative span (a stamp the frame never got) records as 0.
  void record_latency(Nanos queue_wait, Nanos vri_service, Nanos e2e) {
    queue_wait_ns_.record(clamp(queue_wait));
    vri_service_ns_.record(clamp(vri_service));
    e2e_ns_.record(clamp(e2e));
  }

  /// Takes a snapshot when kSnapshotPeriod has passed since the last one
  /// (the first one at kSnapshotPeriod). Called once per served frame.
  void maybe_snapshot(Nanos now) {
    if (now - last_snapshot_ < kSnapshotPeriod) return;
    last_snapshot_ = now;
    take_snapshot(now);
  }

  /// Append a snapshot to the retained series.
  void take_snapshot(Nanos at);

  const std::vector<Snapshot>& series() const { return series_; }

  /// Write `<prefix>.prom` (latest snapshot), `<prefix>.csv` (series) and
  /// `<prefix>.trace.json` (audit trail, plus the §15 path spans when
  /// `spans` is non-null and non-empty — null/empty output is byte-
  /// identical). Takes a final snapshot at `now` first. Returns false if
  /// any file could not be opened.
  bool export_files(const std::string& prefix, Nanos now,
                    const std::vector<PathSpan>* spans = nullptr);

 private:
  static std::uint64_t clamp(Nanos span) {
    return static_cast<std::uint64_t>(span > 0 ? span : 0);
  }

  MetricsRegistry metrics_;
  AuditTrail audit_;
  std::vector<Snapshot> series_;
  TelemetrySampler sampler_;  // deterministic 1-in-kSampleEvery countdown
  LogHistogram queue_wait_ns_;
  LogHistogram vri_service_ns_;
  LogHistogram e2e_ns_;
  Nanos last_snapshot_ = 0;
};

}  // namespace lvrm::obs
