// main.cpp — the benchmark binary. One invocation runs one workload with
// one seed for about `--seconds` of host time and prints one JSON document
// of per-repetition samples on stdout; run.py turns the samples into
// medians and quartiles, adds the run's metadata and prints the result.
//
//   e2ebench --workload udp_small_frames --seed 1 --seconds 10 --trace 0
//            [--spans-out FILE]
//
// Every run starts with one checked repetition: it digests the inputs,
// checks per-flow FIFO and shard affinity, and samples every latency, and
// its host time is not reported. The timed repetitions after it keep only
// scalar counters and must reproduce its counts exactly.
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// interleaves untraced, telemetry-off and traced repetitions, replays the
// captured inputs through single layers, and reports the per-layer metrics.
// Exit code 0 = ran and every check passed, 1 = a check failed, 2 = usage.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"

namespace e2e {
namespace {

struct Metric {
  std::string unit;
  std::vector<double> samples;
};
using Metrics = std::map<std::string, Metric>;

void add(Metrics& m, const std::string& name, const char* unit, double v) {
  Metric& x = m[name];
  x.unit = unit;
  x.samples.push_back(v);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double per_frame(double total, const RepResult& r) {
  return r.offered_window == 0 ? 0.0 : total / static_cast<double>(r.offered_window);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// The simulated-clock outcome every repetition with the same seed must
/// reproduce exactly, from the counters every repetition keeps.
std::string counts_fingerprint(const RepResult& r) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "offered=%llu delivered=%llu events=%llu lat_sum=%llu "
                "kfps=%.17g mbps=%.17g total=%llu/%llu/%llu",
                static_cast<unsigned long long>(r.offered_window),
                static_cast<unsigned long long>(r.delivered_window),
                static_cast<unsigned long long>(r.events_window),
                static_cast<unsigned long long>(r.lat_sum_ns),
                r.sim_delivered_kfps, r.sim_goodput_mbps,
                static_cast<unsigned long long>(r.offered_total),
                static_cast<unsigned long long>(r.delivered_total),
                static_cast<unsigned long long>(r.dropped_total));
  return buf;
}

/// The counts plus what only the checked repetition computes.
std::string checked_fingerprint(const RepResult& r) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                " p50=%.17g p999=%.17g samples=%llu jain=%.17g digest=%016llx",
                r.lat_p50_us, r.lat_p999_us,
                static_cast<unsigned long long>(r.lat_samples), r.jain,
                static_cast<unsigned long long>(r.input_digest));
  return counts_fingerprint(r) + buf;
}

struct Run {
  Metrics metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;
  std::string counts;       // every repetition must reproduce these
  std::string fingerprint;  // of the checked repetition
  int reps = 0;
  std::uint64_t input_digest = 0;

  void note(const std::string& s) {
    if (notes.size() < 16) notes.push_back(s);
  }

  /// Counts a repetition's checks and compares it with the first one, which
  /// is the checked repetition.
  void check(const RepResult& r, const char* kind) {
    ++reps;
    attempted += r.offered_total;
    failed += r.violations;
    for (const std::string& n : r.violation_notes) note(std::string(kind) + ": " + n);
    const std::string fp = counts_fingerprint(r);
    if (counts.empty()) {
      counts = fp;
      fingerprint = checked_fingerprint(r);
      input_digest = r.input_digest;
    } else if (fp != counts) {
      ++failed;
      note(std::string("determinism: a ") + kind +
           " repetition differs from the checked one: " + fp + " vs " + counts);
    }
  }
};

/// Runs the checked repetition, which must come first in every run.
RepResult run_checked(Workload w, std::uint64_t seed, Run& run) {
  SpanLog spans;
  RepOptions o{w, seed, false, true};
  o.checked = true;
  RepResult r = run_rep(o, spans);
  run.check(r, "checked");
  return r;
}

void end_to_end(const RepResult& r, Metrics& m) {
  add(m, "sim_delivered_kfps", "Kfps", r.sim_delivered_kfps);
  add(m, "sim_goodput_mbps", "Mb/s", r.sim_goodput_mbps);
  add(m, "sim_gw_latency_p50_us", "sim_us", r.lat_p50_us);
  add(m, "sim_gw_latency_p999_us", "sim_us", r.lat_p999_us);
  add(m, "sim_gw_latency_samples", "count", static_cast<double>(r.lat_samples));
  add(m, "loss_frac", "fraction", r.loss_frac);
  add(m, "delivered_frac", "fraction", 1.0 - r.loss_frac);
  add(m, "sim_jain_index", "index", r.jain);
}

/// Host-clock samples every untraced repetition reports.
void host_times(const RepResult& r, Metrics& m) {
  add(m, "host_ns_per_frame", "ns", per_frame(r.window_norm_ns, r));
  add(m, "host_wall_ns_per_frame", "ns", per_frame(r.window_host_ns, r));
  add(m, "setup_s", "s", r.setup_s);
  add(m, "setup_wall_s", "s", r.setup_wall_s);
  add(m, "reference_ms", "ms", median(r.reference_samples_ns) / 1e6);
}

/// Runs `fn` between two readings of the reference workload and scales
/// its result (a host time) to the reference speed.
template <typename Fn>
double normalized(Fn fn) {
  const double before = reference_ns();
  const double v = fn();
  const double after = reference_ns();
  return v * kReferenceNominalNs / (0.5 * (before + after));
}

int run_untraced(Workload w, std::uint64_t seed, double seconds, Run& run) {
  const std::int64_t start = host_now_ns();
  const RepResult checked = run_checked(w, seed, run);
  for (int timed = 1;; ++timed) {
    SpanLog spans;
    RepResult r = run_rep(RepOptions{w, seed, false, true}, spans);
    run.check(r, "untraced");
    host_times(r, run.metrics);
    const double elapsed = static_cast<double>(host_now_ns() - start) / 1e9;
    if (timed >= 3 && elapsed >= seconds) break;
  }
  end_to_end(checked, run.metrics);
  add(run.metrics, "peak_rss_mib", "MiB", peak_rss_mib());
  return 0;
}

int run_traced(Workload w, std::uint64_t seed, double seconds,
               const std::string& spans_out, Run& run) {
  const std::int64_t start = host_now_ns();
  Metrics& m = run.metrics;
  RepResult base;        // first untraced repetition: counts
  RepResult last_traced;
  std::vector<double> untraced_ns, traced_ns, tel_on_ns, tel_off_ns, tcp_ns;
  SpanLog last_spans;
  run_checked(w, seed, run);
  for (int round = 0;; ++round) {
    // Alternate the order inside each round so drift hits every kind alike.
    for (int k = 0; k < 3; ++k) {
      const int kind = round % 2 ? 2 - k : k;
      if (kind == 0) {
        SpanLog spans;
        RepResult r = run_rep(RepOptions{w, seed, false, true}, spans);
        run.check(r, "untraced");
        host_times(r, m);
        const double ns = per_frame(r.window_norm_ns, r);
        untraced_ns.push_back(ns);
        tel_on_ns.push_back(ns);
        if (round == 0) base = std::move(r);
      } else if (kind == 1) {
        SpanLog spans;
        RepResult r = run_rep(RepOptions{w, seed, false, false}, spans);
        run.check(r, "telemetry-off");
        tel_off_ns.push_back(per_frame(r.window_norm_ns, r));
      } else {
        SpanLog spans;
        spans.arm(1 << 20);
        RepResult r = run_rep(RepOptions{w, seed, true, true}, spans);
        run.check(r, "traced");
        traced_ns.push_back(per_frame(r.window_norm_ns, r));
        // Span times scaled like the window they ran in.
        const double scale = r.window_norm_ns / r.window_host_ns;
        std::array<double, kSpanNameCount> self{};
        for (std::size_t i = 0; i < self.size(); ++i)
          self[i] = static_cast<double>(r.span_self_ns[i]) * scale;
        add(m, "sim.loop_self_ns_per_frame", "ns", per_frame(self[kSimRun], r));
        add(m, "lvrm.ingress_ns_per_frame", "ns", per_frame(self[kIngress], r));
        // Traced repetitions only: the copies the replays and the
        // queue-wait metrics need.
        add(m, "bench.capture_ns_per_frame", "ns", per_frame(self[kCapture], r));
        // Layers a world does not have get no metric.
        if (r.span_calls[kGatewayEgress] > 0) {
          add(m, "traffic.from_sender_ns_per_frame", "ns",
              per_frame(self[kFromSender] + self[kFromReceiver], r));
          add(m, "traffic.gateway_egress_ns_per_frame", "ns",
              per_frame(self[kGatewayEgress], r));
        }
        if (r.span_calls[kTcpOnAck] > 0) {
          add(m, "tcp.on_ack_ns", "ns",
              self[kTcpOnAck] / static_cast<double>(r.span_calls[kTcpOnAck]));
          add(m, "tcp.on_data_ns", "ns",
              self[kTcpOnData] / static_cast<double>(r.span_calls[kTcpOnData]));
        }
        tcp_ns.push_back(per_frame(self[kTcpOnAck] + self[kTcpOnData], r));
        last_traced = std::move(r);
        last_spans = std::move(spans);
      }
    }
    const double elapsed = static_cast<double>(host_now_ns() - start) / 1e9;
    // The replays below take about a tenth of the budget.
    if (round >= 1 && elapsed >= 0.85 * seconds) break;
  }

  // Counts and simulated-clock layer metrics (exact for the seed).
  const RepResult& r = base;
  const double events_per_frame = per_frame(static_cast<double>(r.events_window), r);
  add(m, "sim.events_per_frame", "count", events_per_frame);
  add(m, "heap.allocs_per_frame", "count",
      per_frame(static_cast<double>(r.heap_window.allocs), r));
  add(m, "heap.bytes_per_frame", "B",
      per_frame(static_cast<double>(r.heap_window.bytes), r));
  add(m, "lvrm.flow_hit_frac", "fraction", r.flow_hit_frac);
  add(m, "lvrm.flow_entries", "count", static_cast<double>(r.flow_entries));
  add(m, "lvrm.rx_core_busy_frac", "fraction", r.rx_core_busy_frac);
  add(m, "lvrm.vri_core_busy_frac_max", "fraction", r.vri_core_busy_frac_max);
  add(m, "lvrm.rx_ring_drops", "count", static_cast<double>(r.rx_ring_drops));
  add(m, "lvrm.data_queue_drops", "count", static_cast<double>(r.data_queue_drops));
  add(m, "traffic.link_drops", "count", static_cast<double>(r.link_drops));
  if (r.tcp_segments > 0) {
    add(m, "tcp.retransmits_per_ksegment", "count",
        1e3 * static_cast<double>(r.tcp_retransmits) /
            static_cast<double>(r.tcp_segments));
    add(m, "tcp.timeouts", "count", static_cast<double>(r.tcp_timeouts));
  }
  add(m, "lvrm.queue_wait_p50_us", "sim_us", last_traced.queue_wait_p50_us);
  add(m, "lvrm.queue_wait_p999_us", "sim_us", last_traced.queue_wait_p999_us);
  add(m, "lvrm.vri_service_p50_us", "sim_us", last_traced.vri_service_p50_us);
  add(m, "lvrm.obs_samples", "count", static_cast<double>(last_traced.obs_samples));

  // Replays through single layers' public classes.
  const double acks_per_frame =
      per_frame(static_cast<double>(last_traced.span_calls[kTcpOnAck]), last_traced);
  DispatchReplay dispatch;
  for (int i = 0; i < 5; ++i) {
    add(m, "sim.kernel_ns_per_event", "ns", normalized([&] {
          return replay_kernel_ns_per_event(events_per_frame, acks_per_frame,
                                            seed + i);
        }));
    add(m, "lvrm.dispatch_ns_per_frame", "ns", normalized([&] {
          dispatch = replay_dispatch(last_traced, seed);
          return dispatch.ns_per_frame;
        }));
    add(m, "vr.process_ns_per_frame", "ns",
        normalized([&] { return replay_vr_ns_per_frame(last_traced); }));
    add(m, "bench.probe_ns_per_frame", "ns", normalized([&] {
          return replay_probe_ns_per_frame(w, last_traced);
        }));
  }
  // Beside lvrm.flow_hit_frac: how closely the replay's table matches the
  // world's.
  add(m, "lvrm.dispatch_replay_hit_frac", "fraction", dispatch.hit_frac);
  for (const char* name : {"sim.kernel_ns_per_event", "lvrm.dispatch_ns_per_frame",
                           "vr.process_ns_per_frame", "bench.probe_ns_per_frame"}) {
    const std::vector<double>& v = m[name].samples;
    if (std::any_of(v.begin(), v.end(), [](double x) { return x < 0; })) {
      ++run.failed;
      run.note(std::string("replay misbehaved: ") + name);
    }
  }

  // Paired differences: telemetry cost and tracing overhead.
  const std::size_t pairs = std::min(tel_on_ns.size(), tel_off_ns.size());
  for (std::size_t i = 0; i < pairs; ++i)
    add(m, "obs.telemetry_ns_per_frame", "ns", tel_on_ns[i] - tel_off_ns[i]);
  const std::size_t tpairs = std::min(untraced_ns.size(), traced_ns.size());
  for (std::size_t i = 0; i < tpairs; ++i)
    add(m, "trace.overhead_frac", "fraction", traced_ns[i] / untraced_ns[i] - 1.0);
  for (double v : traced_ns) add(m, "traced.host_ns_per_frame", "ns", v);

  const auto med = [&](const char* name) {
    const auto it = m.find(name);
    return it == m.end() ? 0.0 : median(it->second.samples);
  };
  // The share of the untraced host_ns_per_frame that is the benchmark's
  // own counting.
  add(m, "bench.probe_frac", "fraction",
      med("bench.probe_ns_per_frame") / median(untraced_ns));

  // The ledger: what share of the traced frame cost no layer metric
  // accounts for. Loop self time is split into the kernel estimate and the
  // replayed dispatch and VR costs; what remains of it is unattributed.
  const double attributed =
      med("traffic.from_sender_ns_per_frame") +
      med("traffic.gateway_egress_ns_per_frame") +
      med("lvrm.ingress_ns_per_frame") + med("bench.probe_ns_per_frame") +
      med("bench.capture_ns_per_frame") + median(tcp_ns) +
      events_per_frame * med("sim.kernel_ns_per_event") +
      med("lvrm.dispatch_ns_per_frame") + med("vr.process_ns_per_frame") +
      med("obs.telemetry_ns_per_frame");
  for (double t : traced_ns)
    add(m, "ledger.unattributed_frac", "fraction", (t - attributed) / t);

  if (!spans_out.empty() && !last_spans.write_csv(spans_out)) {
    std::fprintf(stderr, "cannot write %s\n", spans_out.c_str());
    return 2;
  }
  return 0;
}

void print_json(const char* workload, std::uint64_t seed, int trace,
                double seconds, const Run& run) {
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
              "\"seconds\": %.17g, \"reps\": %d, \"attempted\": %llu, "
              "\"failed\": %llu, \"input_digest\": \"%016llx\", "
              "\"fingerprint\": \"%s\", \"notes\": [",
              workload, static_cast<unsigned long long>(seed), trace, seconds,
              run.reps, static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed),
              static_cast<unsigned long long>(run.input_digest),
              run.fingerprint.c_str());
  for (std::size_t i = 0; i < run.notes.size(); ++i) {
    std::string s;
    for (char c : run.notes[i]) {
      if (c == '"' || c == '\\') s += '\\';
      s += c;
    }
    std::printf("%s\"%s\"", i ? ", " : "", s.c_str());
  }
  std::printf("], \"metrics\": {");
  bool first = true;
  for (const auto& [name, metric] : run.metrics) {
    std::printf("%s\"%s\": {\"unit\": \"%s\", \"samples\": [", first ? "" : ", ",
                name.c_str(), metric.unit.c_str());
    for (std::size_t i = 0; i < metric.samples.size(); ++i)
      std::printf("%s%.17g", i ? ", " : "", metric.samples[i]);
    std::printf("]}");
    first = false;
  }
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload {udp_small_frames|ram_zipf_flows|"
               "tcp_ftp_100} --seed N --seconds S --trace {0|1} "
               "[--spans-out FILE]\n");
  return 2;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  std::string workload_name;
  std::string spans_out;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), &end, 10);
      if (*end) return usage();
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), &end);
      if (*end || !(seconds > 0)) return usage();
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage();
      trace = value == "1";
    } else if (flag == "--spans-out") {
      spans_out = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0) return usage();
  Workload w;
  if (!parse_workload(workload_name, w)) return usage();

  reference_ns();  // first call builds its tables
  Run run;
  const int rc = trace ? run_traced(w, seed, seconds, spans_out, run)
                       : run_untraced(w, seed, seconds, run);
  if (rc != 0) return rc;
  print_json(workload_name.c_str(), seed, trace, seconds, run);
  return run.failed == 0 ? 0 : 1;
}
