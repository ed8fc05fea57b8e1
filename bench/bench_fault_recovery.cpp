// Fault recovery / MTTR bench — the robustness layer's headline numbers.
//
// For each fault kind (crash, hang) x supervision (baseline = the stock 1 s
// allocation pass; heartbeat = the health monitor at its 100 ms probe
// period), a VR with three VRIs under the 1/60 ms dummy load carries
// 150 Kfps; one VRI is faulted mid-allocation-period and the bench measures
//
//   * detection latency — fault injection to the supervisor noticing, and
//   * recovery time     — fault injection to the first 50 ms window back at
//                         >= 90% of the pre-fault delivery rate.
//
// Expected shape: heartbeat detection is strictly faster than the stock
// pass for crashes (~100 ms vs up to 1 s), and for hangs it is the *only*
// detector — the stock supervisor has nothing for waitpid() to reap, so a
// hung VRI silently blackholes whatever JSQ still steers at it forever.
#include <iterator>
#include <string>
#include <vector>

#include "bench/exp_common.hpp"
#include "common/stats.hpp"
#include "exp/rig.hpp"

using namespace lvrm;

namespace {

constexpr double kOfferedFps = 150'000.0;
constexpr Nanos kWindow = msec(50);

struct TrialResult {
  bool detected = false;
  double detect_ms = 0.0;
  bool recovered = false;
  double recover_ms = 0.0;
  double prefault_kfps = 0.0;
  double tail_kfps = 0.0;  // delivery rate over the final second
  std::uint64_t redispatched = 0;
};

TrialResult run_trial(FaultKind kind, bool heartbeat, std::uint64_t seed,
                      Nanos duration) {
  LvrmConfig cfg;
  cfg.allocator = AllocatorKind::kFixed;
  cfg.seed = seed;
  cfg.health.enabled = heartbeat;
  exp::LvrmRig rig(cfg, 3);
  const LvrmSystem& sys = *rig.sys;
  // Offered load: 150 Kfps over 32 flows against 180 Kfps of healthy
  // capacity. No conservation check: a hang the stock pass never detects
  // holds its VRI's frames by design.
  rig.offer(kOfferedFps, duration);

  // Mid-allocation-period, the worst case for the heartbeat and a fair
  // (middling) one for the 1 s pass.
  const Nanos inject_at = sec(2) + msec(350);
  rig.faults->schedule({.kind = kind, .vri = 1, .at = inject_at});

  // 50 ms delivery windows plus the baseline supervisor's reap counter.
  struct Window {
    Nanos end = 0;
    std::uint64_t delivered = 0;
    std::uint64_t reaped = 0;
  };
  std::vector<Window> windows;
  for (Nanos t = kWindow; t <= duration; t += kWindow) {
    rig.sim.at(t, [&windows, &rig, &sys, t] {
      windows.push_back({t, rig.delivered(), sys.crashed_vris_reaped()});
    });
  }
  rig.sim.run_all();

  TrialResult r;
  auto window_rate_kfps = [&](std::size_t i) {
    const std::uint64_t prev = i == 0 ? 0 : windows[i - 1].delivered;
    return static_cast<double>(windows[i].delivered - prev) /
           (static_cast<double>(kWindow) / 1e9) / 1e3;
  };

  // Pre-fault delivery rate: the second before injection.
  RunningStats pre;
  for (std::size_t i = 0; i < windows.size(); ++i)
    if (windows[i].end > inject_at - sec(1) && windows[i].end <= inject_at)
      pre.add(window_rate_kfps(i));
  r.prefault_kfps = pre.mean();

  // Detection: the health monitor logs it exactly; the stock supervisor's
  // only tell is the reap counter, sampled at window granularity.
  if (heartbeat && !sys.recovery_log().empty()) {
    r.detected = true;
    r.detect_ms = to_millis(sys.recovery_log().front().time - inject_at);
  } else if (!heartbeat) {
    for (const Window& w : windows) {
      if (w.reaped > 0) {
        r.detected = true;
        r.detect_ms = to_millis(w.end - inject_at);
        break;
      }
    }
  }

  // Recovery: first window at >= 90% of the pre-fault rate.
  for (std::size_t i = 0; i < windows.size(); ++i) {
    if (windows[i].end <= inject_at) continue;
    if (window_rate_kfps(i) >= 0.9 * r.prefault_kfps) {
      r.recovered = true;
      r.recover_ms = to_millis(windows[i].end - inject_at);
      break;
    }
  }

  // Tail rate over the final second: did capacity actually come back?
  RunningStats tail;
  for (std::size_t i = 0; i < windows.size(); ++i)
    if (windows[i].end > duration - sec(1)) tail.add(window_rate_kfps(i));
  r.tail_kfps = tail.mean();
  r.redispatched = sys.redispatched_frames();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  const Nanos duration = args.scaled(sec(6));
  const int trials = 5;
  bench::print_header(
      "Fault recovery: detection latency and MTTR, crash vs hang",
      "robustness extension (no thesis figure)",
      "heartbeat detects a crash in ~100 ms where the stock 1 s allocation "
      "pass needs up to 1 s; a hang is invisible to the stock supervisor "
      "(blackholed forever) but heartbeat-detected within ~heartbeat_timeout "
      "and fully recovered, with stranded frames re-dispatched");

  struct Scenario {
    const char* fault;
    FaultKind kind;
    const char* supervision;
    bool heartbeat;
  };
  const Scenario scenarios[] = {
      {"crash", FaultKind::kCrash, "baseline-1s", false},
      {"crash", FaultKind::kCrash, "heartbeat", true},
      {"hang", FaultKind::kHang, "baseline-1s", false},
      {"hang", FaultKind::kHang, "heartbeat", true},
  };

  TablePrinter table({"fault", "supervision", "detected", "detect ms",
                      "recover ms", "pre Kfps", "tail Kfps", "redispatched"},
                     args.csv);
  // What each headline needs of a scenario, from its trials.
  struct Outcome {
    int detected_in = 0;
    int recovered_in = 0;
    double detect_ms = 0.0;
    double tail_kfps = 0.0;
  };
  Outcome outcomes[4];

  for (std::size_t s = 0; s < std::size(scenarios); ++s) {
    const Scenario& sc = scenarios[s];
    // Per-seed accumulators folded with the parallel-variance merge; each
    // trial is deterministic given its seed.
    RunningStats detect, recover, pre, tail, redispatched;
    int detected_in = 0;
    int recovered_in = 0;
    for (int t = 0; t < trials; ++t) {
      const TrialResult r =
          run_trial(sc.kind, sc.heartbeat, args.seed + static_cast<std::uint64_t>(t),
                    duration);
      RunningStats d, rec, p, ta, re;
      if (r.detected) d.add(r.detect_ms);
      if (r.recovered) rec.add(r.recover_ms);
      p.add(r.prefault_kfps);
      ta.add(r.tail_kfps);
      re.add(static_cast<double>(r.redispatched));
      detect.merge(d);
      recover.merge(rec);
      pre.merge(p);
      tail.merge(ta);
      redispatched.merge(re);
      detected_in += r.detected ? 1 : 0;
      recovered_in += r.recovered ? 1 : 0;
    }
    table.add_row(
        {sc.fault, sc.supervision,
         std::to_string(detected_in) + "/" + std::to_string(trials),
         detected_in ? TablePrinter::num(detect.mean(), 1) : "never",
         recovered_in ? TablePrinter::num(recover.mean(), 1) : "never",
         TablePrinter::num(pre.mean(), 1), TablePrinter::num(tail.mean(), 1),
         TablePrinter::num(redispatched.mean(), 0)});
    outcomes[s] = {detected_in, recovered_in, detect.mean(), tail.mean()};
  }
  table.print(std::cout);

  // Every verdict follows from the detection counts: a supervisor that
  // detected nothing has no latency to compare, and a run that ends before
  // the heartbeat could fire says nothing about recovery.
  const Outcome& crash_base = outcomes[0];
  const Outcome& crash_hb = outcomes[1];
  const Outcome& hang_base = outcomes[2];
  const Outcome& hang_hb = outcomes[3];
  auto detection = [](const Outcome& o) {
    return o.detected_in > 0 ? TablePrinter::num(o.detect_ms, 1) + " ms"
                             : std::string("not detected within the window");
  };
  const bool crash_faster = crash_hb.detected_in > 0 &&
                            (crash_base.detected_in == 0 ||
                             crash_hb.detect_ms < crash_base.detect_ms);
  std::string hang_hb_verdict = "recovers in every trial";
  if (hang_hb.detected_in == 0)
    hang_hb_verdict = "not detected within the window";
  else if (hang_hb.recovered_in < trials)
    hang_hb_verdict = "FAILED to recover";
  std::cout << "\nheadlines:\n"
            << "  crash detection: heartbeat " << detection(crash_hb)
            << " vs stock pass " << detection(crash_base) << " ("
            << (crash_faster ? "faster" : "NOT faster") << ")\n"
            << "  hang under JSQ:  stock supervisor "
            << (hang_base.recovered_in > 0
                    ? "recovered (unexpected)"
                    : "never recovers (tail " +
                          TablePrinter::num(hang_base.tail_kfps, 1) +
                          " Kfps, blackholed)")
            << "; heartbeat " << hang_hb_verdict << "\n";
  return 0;
}
