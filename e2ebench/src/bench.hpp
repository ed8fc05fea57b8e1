// bench.hpp — shared pieces of the end-to-end benchmark runner: the host
// clock, the heap counters, the in-memory span log, and what one repetition
// of a world reports.
//
// LVRM runs on two clocks. Host-clock numbers (what a frame costs to
// simulate) come from std::chrono::steady_clock and are noisy; simulated-
// clock numbers (the paper's figures) are exact for a given seed. Every
// repetition of a world with the same seed must reproduce the simulated
// numbers bit for bit, which the runner checks.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "net/frame.hpp"

namespace e2e {

inline std::int64_t host_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- heap counters (alloc_count.cpp) -----------------------------------------

/// Calls to the global operator new and bytes requested, since start. The
/// benchmark binary is single-threaded, so plain counters suffice.
struct HeapCounts {
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
};
HeapCounts heap_counts();

// --- span log ------------------------------------------------------------------

/// Boundaries the benchmark wraps: every call it makes into a public
/// function of a layer during the measured window.
enum SpanName : std::uint8_t {
  kSimRun = 0,         // Simulator::run_until over the window (the root)
  kFromSender,         // Testbed::from_sender
  kFromReceiver,       // Testbed::from_receiver
  kIngress,            // GatewayUnderTest::ingress / LvrmSystem::ingress
  kGatewayEgress,      // Testbed::gateway_egress
  kTcpOnAck,           // RenoFlow::on_ack_at_sender
  kTcpOnData,          // RenoFlow::on_data_at_receiver
  kCapture,            // copying ingress frames for the replays (traced only)
  kSpanNameCount
};
const char* span_name(SpanName n);

struct Span {
  std::int64_t start = 0;  // host ns
  std::int64_t end = 0;
  std::uint64_t frame = 0;  // FrameMeta::id, 0 for the root
  std::int32_t parent = -1;
  std::uint8_t name = 0;
};

/// Spans kept in memory while the window runs and written out afterwards.
/// Unarmed (the default) it records nothing and costs one branch per call.
class SpanLog {
 public:
  void arm(std::size_t reserve) {
    armed_ = true;
    spans_.reserve(reserve);
  }
  bool armed() const { return armed_; }
  /// Records only while the measured window runs.
  void set_recording(bool on) { on_ = armed_ && on; }
  bool enabled() const { return on_; }

  std::int32_t open(SpanName n, std::uint64_t frame) {
    Span s;
    s.name = n;
    s.frame = frame;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.start = host_now_ns();
    spans_.push_back(s);
    const auto idx = static_cast<std::int32_t>(spans_.size() - 1);
    stack_.push_back(idx);
    return idx;
  }
  void close(std::int32_t idx) {
    spans_[static_cast<std::size_t>(idx)].end = host_now_ns();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }
  /// Per name: summed duration minus the time its child spans cover.
  std::array<std::int64_t, kSpanNameCount> self_ns() const;
  std::array<std::uint64_t, kSpanNameCount> calls() const;
  bool write_csv(const std::string& path) const;

 private:
  bool armed_ = false;
  bool on_ = false;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

class SpanScope {
 public:
  SpanScope(SpanLog& log, SpanName n, std::uint64_t frame)
      : log_(log), idx_(log.enabled() ? log.open(n, frame) : -1) {}
  ~SpanScope() {
    if (idx_ >= 0) log_.close(idx_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog& log_;
  std::int32_t idx_;
};

// --- worlds ------------------------------------------------------------------------

enum class Workload { kUdpSmallFrames, kRamZipfFlows, kTcpFtp100 };
const char* to_string(Workload w);
bool parse_workload(const std::string& s, Workload& out);

struct RepOptions {
  Workload workload = Workload::kUdpSmallFrames;
  std::uint64_t seed = 1;
  /// Spans, LvrmConfig::tracing and frame capture (the traced run only).
  bool traced = false;
  /// LvrmConfig::telemetry.enabled (on by default, as in the library).
  bool telemetry = true;
  /// The checked repetition: input digest, per-flow FIFO, shard affinity,
  /// per-flow delivery and every latency sample. Its host time is not
  /// reported; timed repetitions keep only scalar counters at the edges.
  bool checked = false;
};

/// Everything one repetition of a world reports. Host-clock fields vary
/// from repetition to repetition; every other field is a pure function of
/// the workload and the seed.
struct RepResult {
  // Host clock. "norm" values are scaled to the reference speed (see
  // reference_ns); "wall" values are as the clock read them.
  double setup_s = 0;          // world construction + warm-up, norm
  double setup_wall_s = 0;
  double window_norm_ns = 0;   // the measured window, norm
  double window_host_ns = 0;   // the measured window, wall
  std::vector<double> reference_samples_ns;  // reference_ns() after each slice

  // Simulated window.
  double window_sim_s = 0;
  std::uint64_t offered_window = 0;    // gateway ingress calls, both ways
  std::uint64_t delivered_window = 0;  // gateway egress, both ways
  std::uint64_t events_window = 0;     // Simulator::events_processed delta
  HeapCounts heap_window;              // operator new during the window

  // End-to-end, simulated clock. The latency percentiles, their sample
  // count and the udp/ram Jain index come from the checked repetition only.
  double sim_delivered_kfps = 0;
  double sim_goodput_mbps = 0;
  std::uint64_t lat_sum_ns = 0;  // summed gateway latency of the window
  double lat_p50_us = 0;
  double lat_p999_us = 0;
  std::uint64_t lat_samples = 0;
  double loss_frac = 0;
  double jain = 0;

  // Whole-run conservation, after the inputs are closed and the world
  // drained: offered == delivered + drops (by cause).
  std::uint64_t offered_total = 0;
  std::uint64_t delivered_total = 0;
  std::uint64_t dropped_total = 0;
  std::uint64_t link_drops = 0;
  std::uint64_t rx_ring_drops = 0;
  std::uint64_t data_queue_drops = 0;

  // Layer counts from public accessors.
  double flow_hit_frac = 0;
  std::uint64_t flow_entries = 0;
  double rx_core_busy_frac = 0;
  double vri_core_busy_frac_max = 0;
  std::uint64_t tcp_segments = 0;     // data segments sent (window)
  std::uint64_t tcp_retransmits = 0;  // window
  std::uint64_t tcp_timeouts = 0;     // window

  // Correctness.
  std::uint64_t violations = 0;
  std::vector<std::string> violation_notes;  // first few, for the log
  std::uint64_t input_digest = 0;  // hash of every generated input frame

  // Traced run only.
  std::array<std::int64_t, kSpanNameCount> span_self_ns{};
  std::array<std::uint64_t, kSpanNameCount> span_calls{};
  double queue_wait_p50_us = 0;
  double queue_wait_p999_us = 0;
  double vri_service_p50_us = 0;
  std::uint64_t obs_samples = 0;
  /// Ingress frames of the warm-up and the window (replays), with
  /// gw_in_at set to the simulated time of the ingress call.
  std::vector<lvrm::net::FrameMeta> captured;
  std::vector<int> captured_shard;        // their RSS shard
  std::size_t captured_window_start = 0;  // index of the window's first frame
  int dispatch_shards = 1;
  int vris = 0;  // active VRIs at the end of the window
  bool flow_mode = false;
};

RepResult run_rep(const RepOptions& options, SpanLog& spans);

// --- replays of single layers (layers.cpp) -------------------------------------

/// Host ns of a fixed reference workload that shares no code with the
/// library: the machine's current speed, measured next to each slice.
double reference_ns();
/// The reference speed. Host times are reported scaled by
/// kReferenceNominalNs / reference_ns(), i.e. as if the reference took
/// exactly this long: on a machine shared with other tenants the raw clock
/// swings by +-40% within seconds, and the ratio cancels most of that.
inline constexpr double kReferenceNominalNs = 1'000'000.0;
/// Host ns per event of Simulator::after + step (+ cancel at `cancel_per_frame`)
/// with `events_per_frame` events per simulated frame. The queue holds no
/// standing events besides the one timer each cancel re-arms: the world's
/// pending depth is not exposed by Simulator, so it is not guessed.
double replay_kernel_ns_per_event(double events_per_frame,
                                  double cancel_per_frame, std::uint64_t seed);
struct DispatchReplay {
  double ns_per_frame = 0;  // -1 if the replay misbehaved
  double hit_frac = 0;      // flow-table hits per probe over the window
};
/// A standalone Dispatcher::dispatch per shard: fed the warm-up frames
/// untimed, then timed over the window's frames.
DispatchReplay replay_dispatch(const RepResult& traced, std::uint64_t seed);
/// Host ns per frame of CppVr::process over the window's frames.
double replay_vr_ns_per_frame(const RepResult& traced);
/// Host ns per frame of the counters a timed repetition keeps at the
/// world's edges (inject, ingress, egress), over the window's frames
/// (worlds.cpp).
double replay_probe_ns_per_frame(Workload w, const RepResult& traced);

}  // namespace e2e
