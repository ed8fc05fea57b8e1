// trace.hpp — frame-level path tracing with load-adaptive sampling (§15).
//
// Three pieces behind one `LvrmConfig::tracing` gate (default off,
// byte-identical outputs, same rollout discipline as §9–§14):
//
//   * PathSpan — the full hop timeline of a sampled frame (gateway ingress,
//     RX-ring pop, dispatch enqueue, VRI service start/end, TX drain, or the
//     drop exit that terminated it), exported through the Chrome-trace
//     writer as nested shard/VRI tracks so one Perfetto load shows where a
//     tail frame's latency went.
//   * FlightRecorder rings (flight_recorder.hpp) — always-on compact
//     records for ALL frames, dumped on incidents.
//   * The load-adaptive sampling controller — replaces the fixed
//     `sample_every = 64` with a feedback loop on the §13 pressure signal:
//     the sampling period halves toward `min_sample_every` (1-in-4) while
//     the observed dispatch-queue pressure stays low and doubles toward
//     `max_sample_every` under overload, holding measured tracing overhead
//     under the bench_hotpath --check-trace-overhead CI budget.
//
// Like the rest of src/obs this is host-side observation only: no sim cost
// is charged, no RNG is consumed, and nothing here is read back by any
// decision logic, so results are bit-identical with tracing on or off
// (tested in test_system_tracing.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/sampler.hpp"

namespace lvrm::obs {

struct TracingConfig {
  /// Master switch; when false LvrmSystem creates no Tracer at all and the
  /// hot path carries zero extra work beyond one pointer null check.
  bool enabled = false;

  /// Sampling period the adaptive controller starts from (the §10 default).
  std::uint32_t initial_sample_every = 64;
  /// Highest span resolution, reached when the pipeline is idle (1-in-4).
  std::uint32_t min_sample_every = 4;
  /// Lowest resolution, the overload floor the controller backs off to.
  std::uint32_t max_sample_every = 1024;

  /// Controller cadence and thresholds, mirroring the §13 ladder's window
  /// controller: the fraction of frames in the window whose chosen data
  /// queue sat at/above the §13 `sample_watermark` is the pressure signal.
  Nanos adapt_period = msec(1);
  double escalate_pressure = 0.5;  // pressure >= this: period doubles
  double relax_pressure = 0.1;     // pressure <= this: period halves

  /// Per-shard flight-recorder ring capacity (records; rounded to pow2).
  std::size_t recorder_capacity = 4096;
  /// Bound on retained PathSpans (oldest kept, later arrivals counted as
  /// dropped — the bound keeps a runaway trace from eating the host heap).
  std::size_t max_spans = 65536;
  /// Bound on retained in-memory flight dumps (later triggers still count).
  std::size_t max_dumps = 8;
  /// When non-empty, each flight dump is also written to
  /// `<dump_dir>/flight_<seq>_<reason>.json` as it is taken.
  std::string dump_dir;
};

/// Why a flight dump was taken (FlightDump::reason / audit cause code).
enum class FlightDumpCause : std::uint8_t {
  kVriCrash = 0,      // reap of a crashed VRI (§8)
  kQuarantine = 1,    // health monitor quarantined a VRI (§8)
  kAdmission = 2,     // degradation ladder reached admission (§13)
  kManual = 3,        // test/tooling request
};

const char* to_string(FlightDumpCause c);

/// The complete hop timeline of one sampled frame. Stamps are sim time;
/// a stamp of 0 with an earlier non-zero stamp means the frame never
/// reached that hop (it terminated first — see `terminal`).
struct PathSpan {
  std::uint64_t frame_id = 0;
  std::int16_t vr = -1;
  std::int16_t vri = -1;
  std::int16_t shard = -1;
  Nanos gw_in = 0;      // arrival at the gateway input (FrameMeta::gw_in_at)
  Nanos rx_serve = 0;   // shard's poll loop began serving it (obs_rx_at)
  Nanos enq = 0;        // pushed onto the VRI data_in queue (obs_enq_at)
  Nanos svc_start = 0;  // VRI began servicing (obs_svc_at)
  Nanos svc_end = 0;    // VRI finished servicing (obs_done_at)
  Nanos gw_out = 0;     // TX completion at the gateway output (gw_out_at)
  /// 0 = delivered to egress; otherwise 1 + the DropCause code of the exit
  /// point that terminated the frame.
  std::uint8_t terminal = 0;
};

/// Per-system tracing bundle: the per-shard flight recorders, the adaptive
/// sampling controller, the retained span set and the dump log. One Tracer
/// per LvrmSystem (or per bench harness); single-threaded like the sim.
class Tracer {
 public:
  Tracer(const TracingConfig& cfg, int shards);

  const TracingConfig& config() const { return cfg_; }

  // --- flight recorder (always-on, all frames) ----------------------------
  /// Append one compact record to `shard`'s ring (clamped into range so
  /// pre-steer exits like admission rejects land in ring 0).
  void record(int shard, TraceHop hop, std::uint64_t frame_id, int vr,
              int vri, Nanos t, std::uint32_t aux = 0, bool sampled = false) {
    TraceRecord r;
    r.frame_id = frame_id;
    r.t = t;
    r.aux = aux;
    r.vr = static_cast<std::int16_t>(vr);
    r.vri = static_cast<std::int16_t>(vri);
    r.hop = static_cast<std::uint8_t>(hop);
    const std::size_t s =
        shard > 0 && static_cast<std::size_t>(shard) < recorders_.size()
            ? static_cast<std::size_t>(shard)
            : 0;
    r.shard = static_cast<std::uint8_t>(s);
    r.flags = sampled ? 1 : 0;
    recorders_[s].record(r);
  }

  /// Snapshot every shard ring (merged, time-ordered) into a FlightDump,
  /// retain it (bounded by max_dumps) and, when dump_dir is set, write it
  /// to disk. Returns the dump's sequence number.
  std::uint64_t dump(Nanos now, FlightDumpCause cause, int shard, int vr,
                     int vri);

  const std::vector<FlightDump>& dumps() const { return dumps_; }
  std::uint64_t dumps_taken() const { return dump_seq_; }
  /// Records captured by the most recent dump() (valid once dumps_taken()>0;
  /// survives the max_dumps retention cap, which drops the dump itself).
  std::uint64_t last_dump_records() const { return last_dump_records_; }
  const FlightRecorder& recorder(int shard) const {
    return recorders_.at(static_cast<std::size_t>(shard));
  }
  /// Records written across all shard rings since start.
  std::uint64_t records_total() const;

  // --- adaptive sampling controller ---------------------------------------
  /// One frame's pressure observation (chosen data queue at/above the §13
  /// sample watermark?) feeding the adaptation window; re-evaluates the
  /// period once per adapt_period.
  void observe_pressure(bool pressured, Nanos now) {
    ++win_frames_;
    win_pressured_ += pressured ? 1u : 0u;
    if (win_started_ < 0) {
      win_started_ = now;
      return;
    }
    if (now - win_started_ < cfg_.adapt_period) return;
    adapt(now);
  }

  /// Deterministic 1-in-current-period tick (same contract as §10).
  bool should_sample() { return sampler_.tick(); }

  std::uint32_t sample_every() const { return sampler_.period(); }
  std::uint64_t adaptations() const { return adaptations_; }

  // --- path spans ---------------------------------------------------------
  void add_span(const PathSpan& span) {
    if (spans_.size() < cfg_.max_spans)
      spans_.push_back(span);
    else
      ++spans_dropped_;
  }
  const std::vector<PathSpan>& spans() const { return spans_; }
  std::uint64_t spans_dropped() const { return spans_dropped_; }

 private:
  void adapt(Nanos now);

  TracingConfig cfg_;
  std::vector<FlightRecorder> recorders_;  // one per dispatcher shard

  TelemetrySampler sampler_;
  Nanos win_started_ = -1;
  std::uint64_t win_frames_ = 0;
  std::uint64_t win_pressured_ = 0;
  std::uint64_t adaptations_ = 0;

  std::vector<PathSpan> spans_;
  std::uint64_t spans_dropped_ = 0;

  std::vector<FlightDump> dumps_;
  std::uint64_t dump_seq_ = 0;
  std::uint64_t last_dump_records_ = 0;
};

}  // namespace lvrm::obs
