// health_monitor.hpp — per-VRI liveness and fail-slow detection.
//
// The Sec 3.2 allocation pass is LVRM's only stock supervision mechanism: a
// dead VRI is noticed at the next once-per-second pass, and a *fail-slow*
// VRI — hung or degraded but with a live process — is never noticed at all.
// This monitor closes that gap. The LVRM poll loop feeds it heartbeat probes
// (cheap reads of each VRI's progress counter and queue backlog from shared
// memory) every kHealthProbePeriod, decoupled from the allocation period,
// and the monitor classifies each VRI:
//
//   * kDead      — the process is gone (waitpid()/kill(pid,0) would fail);
//                  detected at the first probe after death.
//   * kHung      — the process is alive but its progress counter has not
//                  advanced for kHeartbeatTimeout while work is pending in
//                  its data queue (stuck in a loop, deadlocked, SIGSTOPped).
//   * kFailSlow  — the service-rate watchdog: its measured departure rate
//                  has stayed below kFailSlowFraction of its siblings'
//                  median for kFailSlowGrace consecutive probes.
//
// The monitor is pure bookkeeping — it owns no queues or processes — so it
// unit-tests in isolation; LvrmSystem turns its verdicts into quarantine,
// stranded-frame re-dispatch and state-consistent respawn.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/units.hpp"
#include "lvrm/types.hpp"

namespace lvrm {

/// Heartbeat sampling period of the LVRM poll loop — decoupled from (and
/// much shorter than) the 1 s re-allocation period.
inline constexpr Nanos kHealthProbePeriod = msec(100);
/// A VRI whose progress counter has not advanced for this long while its
/// data queue is non-empty is declared hung.
inline constexpr Nanos kHeartbeatTimeout = msec(250);
/// Fail-slow watchdog: a VRI is struck when its measured departure rate
/// falls below this fraction of its siblings' median...
inline constexpr double kFailSlowFraction = 0.5;
/// ...and condemned after this many consecutive strikes (rides out
/// transients).
inline constexpr int kFailSlowGrace = 3;

/// One heartbeat sample for one VRI, taken by the LVRM poll loop.
struct VriProbe {
  int vri = -1;
  bool reachable = true;            // process answers (not crashed)
  std::uint64_t progress = 0;       // monotone served-items counter
  std::size_t backlog = 0;          // frames pending in its data queue
  double departure_rate_fps = 0.0;  // measured service rate; 0 = unknown
};

/// A VRI the monitor wants recovered, with how long it had been stalled
/// (progress-counter age) when the verdict fired.
struct HealthVerdict {
  int vri = -1;
  VriHealth state = VriHealth::kHealthy;
  Nanos stalled_for = 0;
};

class HealthMonitor {
 public:
  /// Feeds one probe pass over the active VRIs of VR `vr`. Returns the VRIs
  /// needing recovery (dead, hung or fail-slow), at most one verdict each.
  std::vector<HealthVerdict> probe(int vr, std::span<const VriProbe> probes,
                                   Nanos now);

  /// Drops all state about a VRI (it was destroyed or respawned; the next
  /// probe of that slot starts a fresh incarnation's history).
  void forget(int vr, int vri);

  /// True while a VRI is inside the fail-slow grace window (one or more
  /// strikes but no verdict yet). The dispatcher steers around suspects.
  bool is_suspect(int vr, int vri) const;

  std::uint64_t dead_detected() const { return dead_; }
  std::uint64_t hung_detected() const { return hung_; }
  std::uint64_t fail_slow_detected() const { return fail_slow_; }

 private:
  struct Record {
    std::uint64_t last_progress = 0;
    Nanos last_change = 0;  // when the progress counter last advanced
    int slow_strikes = 0;
    bool seen = false;
  };

  static std::uint64_t key(int vr, int vri) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(vr)) << 32) |
           static_cast<std::uint32_t>(vri);
  }

  std::unordered_map<std::uint64_t, Record> records_;
  std::uint64_t dead_ = 0;
  std::uint64_t hung_ = 0;
  std::uint64_t fail_slow_ = 0;
};

}  // namespace lvrm
