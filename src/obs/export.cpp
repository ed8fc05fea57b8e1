#include "obs/export.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

#include "common/units.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace.hpp"

namespace lvrm::obs {

namespace {

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// CSV-quote a field (labels contain commas and quotes).
std::string csv_field(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += '"';  // RFC 4180: embedded quotes are doubled
    out += c;
  }
  out += '"';
  return out;
}

/// JSON-escaped copy of a name/cause table string. Every `%s` the trace
/// writers interpolate goes through here: the tables are fixed today, but a
/// future cause string containing a quote, backslash or control character
/// must not be able to break the document (regression-tested in
/// test_export.cpp).
std::string esc(const char* s) { return json_escape(s ? s : ""); }

void prom_line(std::ostream& os, const std::string& name,
               const std::string& labels, const std::string& extra_label,
               double value) {
  os << name;
  if (!labels.empty() || !extra_label.empty()) {
    os << '{' << labels;
    if (!labels.empty() && !extra_label.empty()) os << ',';
    os << extra_label << '}';
  }
  os << ' ' << fmt_double(value) << '\n';
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void write_prometheus(const Snapshot& snap, std::ostream& os) {
  std::string last_type_for;
  auto type_line = [&](const std::string& name, const char* type) {
    if (name != last_type_for) {
      os << "# TYPE " << name << ' ' << type << '\n';
      last_type_for = name;
    }
  };
  for (const auto& c : snap.counters) {
    type_line(c.name, "counter");
    prom_line(os, c.name, c.labels, {}, static_cast<double>(c.value));
  }
  for (const auto& g : snap.gauges) {
    type_line(g.name, "gauge");
    prom_line(os, g.name, g.labels, {}, g.value);
  }
  for (const auto& h : snap.histograms) {
    type_line(h.name, "histogram");
    std::uint64_t cum = 0;
    double sum = 0.0;
    for (std::size_t i = 0; i < kHistBuckets; ++i) {
      if (h.buckets[i] == 0) continue;
      cum += h.buckets[i];
      sum += static_cast<double>(h.buckets[i]) *
             (HistogramSample::bucket_lo(i) + HistogramSample::bucket_hi(i)) *
             0.5;
      prom_line(os, h.name + "_bucket", h.labels,
                "le=\"" + fmt_double(HistogramSample::bucket_hi(i)) + "\"",
                static_cast<double>(cum));
    }
    prom_line(os, h.name + "_bucket", h.labels, "le=\"+Inf\"",
              static_cast<double>(cum));
    prom_line(os, h.name + "_sum", h.labels, {}, sum);
    prom_line(os, h.name + "_count", h.labels, {},
              static_cast<double>(cum));
  }
}

void write_csv(const std::vector<Snapshot>& series, std::ostream& os) {
  os << "t_sec,metric,labels,value\n";
  for (const auto& snap : series) {
    const std::string t = fmt_double(to_seconds(snap.at));
    auto row = [&](const std::string& metric, const std::string& labels,
                   double value) {
      os << t << ',' << csv_field(metric) << ',' << csv_field(labels) << ','
         << fmt_double(value) << '\n';
    };
    for (const auto& c : snap.counters)
      row(c.name, c.labels, static_cast<double>(c.value));
    for (const auto& g : snap.gauges) row(g.name, g.labels, g.value);
    for (const auto& h : snap.histograms) {
      row(h.name + "_count", h.labels, static_cast<double>(h.count()));
      row(h.name + "_mean", h.labels, h.approx_mean());
      row(h.name + "_p50", h.labels, h.quantile(0.50));
      row(h.name + "_p95", h.labels, h.quantile(0.95));
      row(h.name + "_p99", h.labels, h.quantile(0.99));
    }
  }
}

void write_chrome_trace(const std::vector<AuditEvent>& events,
                        std::ostream& os) {
  write_chrome_trace(events, std::vector<PathSpan>{}, os);
}

void write_chrome_trace(const std::vector<AuditEvent>& events,
                        const std::vector<PathSpan>& spans,
                        std::ostream& os) {
  os << "{\"traceEvents\":[";
  bool first = true;
  auto emit = [&](const std::string& body) {
    if (!first) os << ',';
    first = false;
    os << '\n' << body;
  };

  emit("{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\","
       "\"args\":{\"name\":\"lvrm\"}}");

  // Per-VR VRI-count tracks, rebuilt by replaying create/destroy events.
  std::map<int, std::uint64_t> vris;
  for (const auto& e : events) {
    const double ts = to_micros(e.time);
    char buf[512];
    switch (e.kind) {
      case AuditKind::kVriCreate:
      case AuditKind::kVriDestroy: {
        vris[e.vr] = e.a;  // VRI count after the change
        std::snprintf(buf, sizeof(buf),
                      "{\"ph\":\"C\",\"pid\":0,\"ts\":%.3f,"
                      "\"name\":\"vr%d vris\",\"args\":{\"vris\":%llu}}",
                      ts, e.vr, static_cast<unsigned long long>(e.a));
        emit(buf);
        std::snprintf(
            buf, sizeof(buf),
            "{\"ph\":\"i\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,\"s\":\"t\","
            "\"name\":\"%s\",\"args\":{\"vri\":%d,\"rate_fps\":%.3f,"
            "\"threshold_fps\":%.3f,\"service_fps\":%.3f,\"from_recovery\":"
            "%llu,\"shard\":%d,\"numa_tier\":%d}}",
            e.vr, ts, esc(to_string(e.kind)).c_str(), e.vri, e.rate,
            e.threshold, e.service, static_cast<unsigned long long>(e.c),
            e.shard, e.numa_tier);
        emit(buf);
        break;
      }
      case AuditKind::kHealthDead:
      case AuditKind::kHealthHung:
      case AuditKind::kHealthFailSlow: {
        std::snprintf(
            buf, sizeof(buf),
            "{\"ph\":\"i\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,\"s\":\"p\","
            "\"name\":\"%s\",\"args\":{\"vri\":%d,\"observed\":%.3f,"
            "\"threshold\":%.3f,\"stranded\":%llu,\"redispatched\":%llu,"
            "\"respawned\":%llu}}",
            e.vr, ts, esc(to_string(e.kind)).c_str(), e.vri, e.rate,
            e.threshold, static_cast<unsigned long long>(e.a),
            static_cast<unsigned long long>(e.b),
            static_cast<unsigned long long>(e.c));
        emit(buf);
        break;
      }
      case AuditKind::kBalanceSummary: {
        std::snprintf(
            buf, sizeof(buf),
            "{\"ph\":\"C\",\"pid\":0,\"ts\":%.3f,"
            "\"name\":\"vr%d dispatch\",\"args\":{\"frames\":%llu,"
            "\"flow_hits\":%llu}}",
            ts, e.vr, static_cast<unsigned long long>(e.a),
            static_cast<unsigned long long>(e.b));
        emit(buf);
        break;
      }
      case AuditKind::kOverloadLevel: {
        std::snprintf(
            buf, sizeof(buf),
            "{\"ph\":\"C\",\"pid\":0,\"ts\":%.3f,"
            "\"name\":\"vr%d overload\",\"args\":{\"level\":%llu}}",
            ts, e.vr, static_cast<unsigned long long>(e.a));
        emit(buf);
        std::snprintf(
            buf, sizeof(buf),
            "{\"ph\":\"i\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,\"s\":\"t\","
            "\"name\":\"overload_level\",\"args\":{\"level\":%llu,"
            "\"level_before\":%llu,\"sample_rate\":%.6f,\"pressure\":%.3f,"
            "\"shed_or_rejected\":%llu}}",
            e.vr, ts, static_cast<unsigned long long>(e.a),
            static_cast<unsigned long long>(e.b), e.rate, e.threshold,
            static_cast<unsigned long long>(e.c));
        emit(buf);
        break;
      }
      case AuditKind::kVriDrain: {
        // DrainCause names (types.hpp): indexed by the numeric cause code.
        static const char* const kDrainCause[] = {"allocator-destroy",
                                                  "decommission", "fail-slow"};
        const char* cause =
            e.cause < 3 ? kDrainCause[e.cause] : "unknown";
        std::snprintf(
            buf, sizeof(buf),
            "{\"ph\":\"i\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,\"s\":\"t\","
            "\"name\":\"vri_drain\",\"args\":{\"vri\":%d,\"cause\":\"%s\","
            "\"migrated\":%llu,\"flows_evicted\":%llu,\"dropped\":%llu,"
            "\"rate_fps\":%.3f,\"service_fps\":%.3f}}",
            e.vr, ts, e.vri, esc(cause).c_str(),
            static_cast<unsigned long long>(e.a),
            static_cast<unsigned long long>(e.b),
            static_cast<unsigned long long>(e.c), e.rate, e.service);
        emit(buf);
        break;
      }
      case AuditKind::kFlightDump: {
        std::snprintf(
            buf, sizeof(buf),
            "{\"ph\":\"i\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,\"s\":\"p\","
            "\"name\":\"flight_dump\",\"args\":{\"vri\":%d,\"shard\":%d,"
            "\"cause\":\"%s\",\"records\":%llu,\"seq\":%llu,"
            "\"records_total\":%llu}}",
            e.vr, ts, e.vri, e.shard,
            esc(to_string(static_cast<FlightDumpCause>(e.cause))).c_str(),
            static_cast<unsigned long long>(e.a),
            static_cast<unsigned long long>(e.b),
            static_cast<unsigned long long>(e.c));
        emit(buf);
        break;
      }
      case AuditKind::kFlowSpray: {
        std::snprintf(
            buf, sizeof(buf),
            "{\"ph\":\"i\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,\"s\":\"t\","
            "\"name\":\"flow_spray\",\"args\":{\"owner_vri\":%d,"
            "\"shard\":%d,\"rate_fps\":%.3f,\"threshold_fps\":%.3f,"
            "\"fanout\":%llu,\"spray_flow\":%llu,\"handshake_ns\":%llu}}",
            e.vr, ts, e.vri, e.shard, e.rate, e.threshold,
            static_cast<unsigned long long>(e.a),
            static_cast<unsigned long long>(e.b),
            static_cast<unsigned long long>(e.c));
        emit(buf);
        break;
      }
      case AuditKind::kFlowSprayEnd: {
        std::snprintf(
            buf, sizeof(buf),
            "{\"ph\":\"i\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,\"s\":\"t\","
            "\"name\":\"flow_spray_end\",\"args\":{\"shard\":%d,"
            "\"frames_sprayed\":%llu,\"spray_flow\":%llu}}",
            e.vr, ts, e.shard, static_cast<unsigned long long>(e.a),
            static_cast<unsigned long long>(e.b));
        emit(buf);
        break;
      }
      case AuditKind::kVriSteal: {
        std::snprintf(
            buf, sizeof(buf),
            "{\"ph\":\"i\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,\"s\":\"t\","
            "\"name\":\"vri_steal\",\"args\":{\"vri\":%d,\"victim_vri\":%d,"
            "\"frames\":%llu,\"steals_total\":%llu,\"frames_total\":%llu}}",
            e.vr, ts, e.vri, static_cast<int>(e.service),
            static_cast<unsigned long long>(e.a),
            static_cast<unsigned long long>(e.b),
            static_cast<unsigned long long>(e.c));
        emit(buf);
        break;
      }
    }
  }

  // §15 path spans: nested shard/VRI duration tracks. Nothing is emitted
  // for an empty span set, which keeps this overload byte-identical to the
  // audit-only writer (and therefore tracing-off exports unchanged).
  if (!spans.empty()) {
    const auto shard_tid = [](const PathSpan& s) {
      return 1000 + (s.shard > 0 ? s.shard : 0);
    };
    const auto vri_tid = [](const PathSpan& s) {
      return 2000 + s.vr * 16 + s.vri;
    };

    // thread_name metadata, once per track actually used.
    std::set<int> shard_tids, vri_tids;
    for (const auto& s : spans) {
      shard_tids.insert(shard_tid(s));
      if (s.vr >= 0 && s.vri >= 0 && s.vri < 16) vri_tids.insert(vri_tid(s));
    }
    char buf[512];
    for (const int tid : shard_tids) {
      std::snprintf(buf, sizeof(buf),
                    "{\"ph\":\"M\",\"pid\":0,\"tid\":%d,"
                    "\"name\":\"thread_name\","
                    "\"args\":{\"name\":\"shard %d dispatch\"}}",
                    tid, tid - 1000);
      emit(buf);
    }
    for (const int tid : vri_tids) {
      std::snprintf(buf, sizeof(buf),
                    "{\"ph\":\"M\",\"pid\":0,\"tid\":%d,"
                    "\"name\":\"thread_name\","
                    "\"args\":{\"name\":\"vr%d vri%d service\"}}",
                    tid, (tid - 2000) / 16, (tid - 2000) % 16);
      emit(buf);
    }

    const auto slice = [&](int tid, const char* name, std::uint64_t id,
                           Nanos from, Nanos to) {
      if (to < from) return;
      std::snprintf(buf, sizeof(buf),
                    "{\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,"
                    "\"dur\":%.3f,\"name\":\"%s\",\"args\":{\"frame\":%llu}}",
                    tid, to_micros(from), to_micros(to - from),
                    esc(name).c_str(), static_cast<unsigned long long>(id));
      emit(buf);
    };
    for (const auto& s : spans) {
      const int stid = shard_tid(s);
      const bool vtrack = s.vr >= 0 && s.vri >= 0 && s.vri < 16;
      const int vtid = vtrack ? vri_tid(s) : stid;
      // Dispatch: gateway arrival -> pushed onto the VRI data queue (ring
      // wait + classify + balance); present whenever the frame was enqueued.
      if (s.enq > 0) slice(stid, "dispatch", s.frame_id, s.gw_in, s.enq);
      if (s.svc_start > 0)
        slice(vtid, "queue_wait", s.frame_id, s.enq, s.svc_start);
      if (s.svc_end > 0)
        slice(vtid, "service", s.frame_id, s.svc_start, s.svc_end);
      if (s.gw_out > 0)
        slice(stid, "tx_drain", s.frame_id, s.svc_end, s.gw_out);
      // Flow arrow binding the shard track to the VRI track for this frame.
      if (s.enq > 0 && vtrack && s.svc_start > 0) {
        std::snprintf(buf, sizeof(buf),
                      "{\"ph\":\"s\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,"
                      "\"id\":%llu,\"name\":\"frame_path\"}",
                      stid, to_micros(s.gw_in),
                      static_cast<unsigned long long>(s.frame_id));
        emit(buf);
        std::snprintf(buf, sizeof(buf),
                      "{\"ph\":\"f\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,"
                      "\"id\":%llu,\"bp\":\"e\",\"name\":\"frame_path\"}",
                      vtid, to_micros(s.svc_start),
                      static_cast<unsigned long long>(s.frame_id));
        emit(buf);
      }
      // The exit point that terminated a non-delivered frame.
      if (s.terminal != 0) {
        const Nanos at = std::max({s.gw_in, s.rx_serve, s.enq, s.svc_start,
                                   s.svc_end, s.gw_out});
        std::snprintf(buf, sizeof(buf),
                      "{\"ph\":\"i\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,"
                      "\"s\":\"t\",\"name\":\"frame_drop\","
                      "\"args\":{\"frame\":%llu,\"cause\":%d}}",
                      stid, to_micros(at),
                      static_cast<unsigned long long>(s.frame_id),
                      static_cast<int>(s.terminal) - 1);
        emit(buf);
      }
    }
  }
  os << "\n]}\n";
}

void write_flight_dump(const FlightDump& dump, std::ostream& os) {
  os << "{\"reason\":\"" << json_escape(dump.reason) << "\","
     << "\"t_us\":" << fmt_double(to_micros(dump.time)) << ','
     << "\"seq\":" << dump.seq << ',' << "\"shard\":" << dump.shard << ','
     << "\"vr\":" << dump.vr << ',' << "\"vri\":" << dump.vri << ','
     << "\"records_total\":" << dump.records_total << ','
     << "\"records\":[";
  bool first = true;
  char buf[256];
  for (const auto& r : dump.records) {
    std::snprintf(
        buf, sizeof(buf),
        "%s\n{\"frame\":%llu,\"t_us\":%.3f,\"hop\":\"%s\",\"vr\":%d,"
        "\"vri\":%d,\"shard\":%u,\"aux\":%lu,\"sampled\":%u}",
        first ? "" : ",", static_cast<unsigned long long>(r.frame_id),
        to_micros(r.t), esc(to_string(static_cast<TraceHop>(r.hop))).c_str(),
        r.vr, r.vri, r.shard, static_cast<unsigned long>(r.aux),
        r.flags & 1u);
    os << buf;
    first = false;
  }
  os << "\n]}\n";
}

}  // namespace lvrm::obs
