#include "obs/telemetry.hpp"

#include <fstream>

#include "obs/export.hpp"
#include "obs/trace.hpp"

namespace lvrm::obs {

void Telemetry::take_snapshot(Nanos at) {
  series_.push_back(metrics_.snapshot(at));
  if (series_.size() > kMaxSnapshots) series_.erase(series_.begin());
}

bool Telemetry::export_files(const std::string& prefix, Nanos now,
                             const std::vector<PathSpan>* spans) {
  take_snapshot(now);
  bool ok = true;
  {
    std::ofstream os(prefix + ".prom");
    if (os) {
      write_prometheus(series_.back(), os);
    } else {
      ok = false;
    }
  }
  {
    std::ofstream os(prefix + ".csv");
    if (os) {
      write_csv(series_, os);
    } else {
      ok = false;
    }
  }
  {
    std::ofstream os(prefix + ".trace.json");
    if (os) {
      if (spans)
        write_chrome_trace(audit_.events(), *spans, os);
      else
        write_chrome_trace(audit_.events(), os);
    } else {
      ok = false;
    }
  }
  return ok;
}

}  // namespace lvrm::obs
