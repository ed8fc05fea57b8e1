// export.hpp — snapshot and audit-trail exporters (DESIGN.md §10).
//
// Three formats, all plain text, all writable to any ostream:
//   * Prometheus exposition text: one scrape-shaped dump of the latest
//     snapshot (counters as `_total`, gauges, histograms as cumulative
//     `_bucket{le=...}` + `_sum`/`_count`).
//   * CSV in long format (`t_sec,metric,labels,value`), one row per sample
//     per snapshot, so the whole time series loads with a one-line
//     `read_csv` and pivots client-side.
//   * Chrome trace_event JSON of the audit trail, loadable directly in
//     chrome://tracing or Perfetto: per-VR VRI counts as counter tracks,
//     health transitions and ladder moves as instants.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "obs/audit.hpp"
#include "obs/metrics.hpp"

namespace lvrm::obs {

struct PathSpan;     // trace.hpp
struct FlightDump;   // flight_recorder.hpp

/// Prometheus text exposition of one snapshot.
void write_prometheus(const Snapshot& snap, std::ostream& os);

/// Long-format CSV (`t_sec,metric,labels,value`) of a snapshot series.
/// Histograms are flattened to `_count`, `_mean`, `_p50`, `_p95`, `_p99`.
void write_csv(const std::vector<Snapshot>& series, std::ostream& os);

/// Chrome trace_event JSON ({"traceEvents": [...]}) of an audit trail.
/// Timestamps are microseconds of sim time.
void write_chrome_trace(const std::vector<AuditEvent>& events,
                        std::ostream& os);

/// Same document, with the §15 per-frame path spans appended as nested
/// shard/VRI duration tracks (dispatch / queue_wait / service / tx_drain
/// slices, frame_path flow arrows, frame_drop instants, thread_name
/// metadata). An empty span set produces byte-identical output to the
/// two-argument overload, which is what keeps tracing-off exports
/// byte-identical.
void write_chrome_trace(const std::vector<AuditEvent>& events,
                        const std::vector<PathSpan>& spans, std::ostream& os);

/// One flight-recorder dump (§15) as a standalone JSON document: the
/// trigger header plus every retained compact record, oldest first.
void write_flight_dump(const FlightDump& dump, std::ostream& os);

/// Minimal JSON string escaping (quotes, backslashes, control chars).
std::string json_escape(const std::string& s);

}  // namespace lvrm::obs
