// telemetry.hpp — per-system telemetry bundle: registry + audit + exporters.
//
// One Telemetry object per LvrmSystem (or per bench harness) owns the
// metrics registry, the decision audit trail, the retained snapshot series
// and the deterministic 1-in-N latency sampling tick. Everything here is
// host-side observation only: no sim cost is ever charged and no RNG is
// consumed, so experiment outputs are bit-identical with telemetry on or
// off (tested in test_system_telemetry.cpp).
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
  /// Periodic snapshot cadence in sim time; 0 disables periodic snapshots
  /// (a final snapshot is still taken at export time).
  Nanos snapshot_period = msec(250);
};

class Telemetry {
 public:
  /// Latency sampling period: stamp every Nth RX frame.
  static constexpr std::uint32_t kSampleEvery = 64;
  /// Audit-trail ring capacity (overwrite-oldest beyond this).
  static constexpr std::size_t kAuditCapacity = 8192;
  /// Bound on the retained snapshot series (oldest dropped beyond this).
  static constexpr std::size_t kMaxSnapshots = 4096;

  explicit Telemetry(const TelemetryConfig& cfg)
      : cfg_(cfg), audit_(kAuditCapacity), sampler_(kSampleEvery) {}

  const TelemetryConfig& config() const { return cfg_; }
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

  /// Append an aggregated snapshot to the retained series.
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
  TelemetryConfig cfg_;
  MetricsRegistry metrics_;
  AuditTrail audit_;
  std::vector<Snapshot> series_;
  TelemetrySampler sampler_;  // deterministic 1-in-kSampleEvery countdown
};

}  // namespace lvrm::obs
