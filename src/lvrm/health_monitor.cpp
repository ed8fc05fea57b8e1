#include "lvrm/health_monitor.hpp"

#include <algorithm>

namespace lvrm {

namespace {

/// Median of the siblings' known departure rates, excluding `self`.
/// 0 when fewer than one sibling has a measured rate.
double sibling_median(std::span<const VriProbe> probes, int self) {
  std::vector<double> rates;
  rates.reserve(probes.size());
  for (const VriProbe& p : probes)
    if (p.vri != self && p.departure_rate_fps > 0.0)
      rates.push_back(p.departure_rate_fps);
  if (rates.empty()) return 0.0;
  const std::size_t mid = rates.size() / 2;
  std::nth_element(rates.begin(), rates.begin() + static_cast<long>(mid),
                   rates.end());
  double median = rates[mid];
  if (rates.size() % 2 == 0) {
    // Lower-middle element: everything before `mid` is <= rates[mid].
    const double lower =
        *std::max_element(rates.begin(), rates.begin() + static_cast<long>(mid));
    median = (median + lower) / 2.0;
  }
  return median;
}

}  // namespace

std::vector<HealthVerdict> HealthMonitor::probe(
    int vr, std::span<const VriProbe> probes, Nanos now) {
  std::vector<HealthVerdict> verdicts;
  for (const VriProbe& p : probes) {
    Record& rec = records_[key(vr, p.vri)];
    if (!rec.seen) {
      rec.seen = true;
      rec.last_progress = p.progress;
      rec.last_change = now;
      continue;  // first sample of this incarnation: baseline only
    }

    // Liveness first: a dead process needs no timeout, the probe itself
    // (kill(pid, 0) in a real deployment) already failed.
    if (!p.reachable) {
      ++dead_;
      verdicts.push_back({p.vri, VriHealth::kDead, now - rec.last_change});
      records_.erase(key(vr, p.vri));
      continue;
    }

    if (p.progress != rec.last_progress) {
      rec.last_progress = p.progress;
      rec.last_change = now;
    } else if (p.backlog > 0 &&
               now - rec.last_change >= kHeartbeatTimeout) {
      // Alive but frozen with work pending: hung. An idle VRI (backlog 0)
      // legitimately makes no progress and is left alone.
      ++hung_;
      verdicts.push_back({p.vri, VriHealth::kHung, now - rec.last_change});
      records_.erase(key(vr, p.vri));
      continue;
    }

    // Service-rate watchdog: progressing, but slower than its siblings.
    const double median = sibling_median(probes, p.vri);
    if (p.departure_rate_fps > 0.0 && median > 0.0 &&
        p.departure_rate_fps < kFailSlowFraction * median) {
      if (++rec.slow_strikes >= kFailSlowGrace) {
        ++fail_slow_;
        verdicts.push_back(
            {p.vri, VriHealth::kFailSlow, now - rec.last_change});
        records_.erase(key(vr, p.vri));
      }
    } else {
      rec.slow_strikes = 0;
    }
  }
  return verdicts;
}

void HealthMonitor::forget(int vr, int vri) { records_.erase(key(vr, vri)); }

bool HealthMonitor::is_suspect(int vr, int vri) const {
  const auto it = records_.find(key(vr, vri));
  return it != records_.end() && it->second.slow_strikes > 0;
}

}  // namespace lvrm
