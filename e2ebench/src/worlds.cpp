// worlds.cpp — the three benchmark worlds, built from public classes only.
//
// Each repetition builds a fresh world from the seed, runs a fixed warm-up
// (set-up), times a fixed simulated window on the host clock, then closes
// the inputs and drains the world so conservation can be checked exactly.
// Run length is fixed in simulated time on purpose: under the dynamic
// allocator the world changes shape once per simulated second, and the
// flow table keeps growing, so host cost per frame depends on *when* it is
// measured. Both sides of a comparison must share the same window.
#include <algorithm>
#include <functional>
#include <memory>
#include <string>

#include "bench.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "exp/gateway.hpp"
#include "lvrm/system.hpp"
#include "sim/costs.hpp"
#include "sim/simulator.hpp"
#include "tcp/reno.hpp"
#include "traffic/testbed.hpp"
#include "traffic/udp_sender.hpp"
#include "traffic/workload.hpp"

namespace e2e {

using namespace lvrm;

const char* to_string(Workload w) {
  switch (w) {
    case Workload::kUdpSmallFrames: return "udp_small_frames";
    case Workload::kRamZipfFlows: return "ram_zipf_flows";
    case Workload::kTcpFtp100: return "tcp_ftp_100";
  }
  return "?";
}

bool parse_workload(const std::string& s, Workload& out) {
  for (Workload w : {Workload::kUdpSmallFrames, Workload::kRamZipfFlows,
                     Workload::kTcpFtp100}) {
    if (s == to_string(w)) {
      out = w;
      return true;
    }
  }
  return false;
}

namespace {

constexpr int kUdpHosts = 2;
constexpr int kUdpFlowsPerHost = 16;
constexpr FramesPerSec kUdpTotalRate = 400'000.0;
constexpr int kRamFlows = 100'000;
constexpr int kTcpFlows = 100;

/// Slices of the measured window, each timed between two measurements of
/// the reference workload.
constexpr int kSlices = 25;

/// Simulated-time shape of a repetition.
struct Shape {
  Nanos warmup;
  Nanos window;
  Nanos drain;  // after the inputs close, long enough to empty every queue
};

Shape shape_of(Workload w) {
  switch (w) {
    case Workload::kUdpSmallFrames: return {msec(50), msec(250), msec(5)};
    case Workload::kRamZipfFlows: return {msec(500), msec(500), msec(5)};
    // Window between the allocator passes at 1 s and 2 s; the drain covers
    // a full 2000-frame bottleneck queue of 1538 B segments (~25 ms).
    case Workload::kTcpFtp100: return {msec(1200), msec(700), msec(60)};
  }
  return {msec(50), msec(250), msec(5)};
}

/// The benchmark's own bookkeeping at the world's edges. In every
/// repetition it keeps a few scalar counters: frames injected, offered,
/// delivered and dropped, and, inside the window, delivered bytes and the
/// summed gateway latency. Only the checked repetition (RepOptions::checked)
/// also digests the inputs, keeps per-flow counts, checks per-flow FIFO and
/// shard affinity, and samples every latency; its host time is not reported.
/// The traced repetition also captures the ingress frames for the replays
/// and the sampled frames' stamps, in bench.capture spans. Every call into
/// a layer that passes through here is wrapped in a span when tracing; the
/// counters are not (replay_probe_ns_per_frame times them).
class Probe {
 public:
  Probe(const RepOptions& o, SpanLog& spans, const sim::Simulator& sim)
      : workload_(o.workload),
        spans_(spans),
        sim_(sim),
        checked_(o.checked),
        capture_(o.traced) {
    if (checked_) {
      const std::size_t keys =
          workload_ == Workload::kUdpSmallFrames ? kUdpHosts * kUdpFlowsPerHost
          : workload_ == Workload::kRamZipfFlows ? kRamFlows
                                                 : 2 * kTcpFlows;
      flow_offered_.assign(keys, 0);
      flow_delivered_.assign(keys, 0);
      flow_last_id_.assign(keys, 0);
      latency_.reserve(1 << 18);
    }
    // Frame-granularity JSQ promises no flow order.
    check_fifo_ = checked_ && workload_ != Workload::kUdpSmallFrames;
  }

  bool in_window = false;
  bool closed = false;  // inputs closed: hosts stop injecting

  void open_window() {
    in_window = true;
    captured_window_start = captured.size();
  }

  void set_lvrm(LvrmSystem* sys) {
    lvrm_ = sys;
    check_shard_ = checked_ && sys->shard_count() > 1;
    sys->set_drop_hook([this](const net::FrameMeta&, DropCause c) {
      ++drops_[static_cast<std::size_t>(c)];
    });
  }

  /// A host hands a new frame to the traffic layer. The checked repetition
  /// folds it into the input digest.
  void inject(const net::FrameMeta& f) {
    ++injected_;
    if (!checked_) return;
    const std::uint64_t words[] = {
        f.id, f.src_ip, f.dst_ip,
        (std::uint64_t{f.src_port} << 16) | f.dst_port,
        std::uint64_t{f.protocol}, static_cast<std::uint64_t>(f.wire_bytes),
        static_cast<std::uint64_t>(f.created_at)};
    for (std::uint64_t w : words) {
      digest_ ^= w;
      digest_ *= 0x100000001b3ULL;
    }
  }

  /// Offer a frame at the gateway's input.
  template <typename Gateway>
  bool ingress(Gateway& gw, net::FrameMeta f) {
    ++offered_total_;
    if (in_window) ++offered_window_;
    if (checked_) {
      const int key = flow_key(f);
      if (key >= 0) ++flow_offered_[static_cast<std::size_t>(key)];
    }
    if (capture_ && !closed) {
      // Warm-up frames too, so the dispatch replay starts from a flow
      // table as full as the world's.
      SpanScope s(spans_, kCapture, f.id);
      captured.push_back(f);
      captured.back().gw_in_at = sim_.now();
      captured_shard.push_back(lvrm_->shard_of(f));
    }
    SpanScope s(spans_, kIngress, f.id);
    return gw.ingress(std::move(f));
  }

  /// A frame leaves the gateway.
  void egress(const net::FrameMeta& f) {
    ++egress_total_;
    if (in_window) {
      ++egress_window_;
      egress_window_bytes_ += static_cast<std::uint64_t>(f.wire_bytes);
      if (f.kind == net::FrameKind::kUdp)
        egress_window_udp_bytes_ += static_cast<std::uint64_t>(f.wire_bytes);
      latency_sum_ += static_cast<std::uint64_t>(f.gw_out_at - f.gw_in_at);
      if (capture_ && f.obs_sampled && f.obs_svc_at > 0 && f.obs_done_at > 0) {
        SpanScope s(spans_, kCapture, f.id);
        queue_wait_.push_back(static_cast<double>(f.obs_svc_at - f.obs_enq_at));
        service_.push_back(static_cast<double>(f.obs_done_at - f.obs_svc_at));
      }
      if (checked_) latency_.push_back(static_cast<double>(f.gw_out_at - f.gw_in_at));
    }
    if (!checked_) return;
    const int key = flow_key(f);
    if (key >= 0) {
      const auto k = static_cast<std::size_t>(key);
      ++flow_delivered_[k];
      if (check_fifo_) {
        if (f.id <= flow_last_id_[k])
          violation("per-flow FIFO: flow key " + std::to_string(key) +
                    " frame " + std::to_string(f.id) + " after " +
                    std::to_string(flow_last_id_[k]));
        flow_last_id_[k] = f.id;
      }
    }
    if (check_shard_ && f.dispatch_shard != lvrm_->shard_of(f))
      violation("RSS shard affinity: frame " + std::to_string(f.id) +
                " served by shard " + std::to_string(f.dispatch_shard) +
                ", hash says " + std::to_string(lvrm_->shard_of(f)));
  }

  /// Every scalar counter, summed: reading them keeps the probe replay's
  /// increments from being optimised away.
  std::uint64_t counter_sum() const {
    return injected_ + offered_total_ + offered_window_ + egress_total_ +
           egress_window_ + egress_window_bytes_ + egress_window_udp_bytes_ +
           latency_sum_;
  }

  void violation(std::string note) {
    ++violations_;
    if (notes_.size() < 8) notes_.push_back(std::move(note));
  }

  /// Fills the simulated-clock and correctness fields of `r`.
  void finish(RepResult& r, double window_s, std::uint64_t host_delivered,
              std::uint64_t link_drops) {
    r.offered_window = offered_window_;
    r.delivered_window = egress_window_;
    r.sim_delivered_kfps = static_cast<double>(egress_window_) / window_s / 1e3;
    if (workload_ == Workload::kRamZipfFlows) {
      // The SYN-flood slice carries no payload anyone asked for.
      r.sim_goodput_mbps =
          static_cast<double>(egress_window_udp_bytes_) * 8.0 / window_s / 1e6;
    } else if (workload_ == Workload::kUdpSmallFrames) {
      r.sim_goodput_mbps =
          static_cast<double>(egress_window_bytes_) * 8.0 / window_s / 1e6;
    }
    r.lat_sum_ns = latency_sum_;
    r.lat_samples = latency_.size();
    r.lat_p50_us = percentile(latency_, 50.0) / 1e3;
    r.lat_p999_us = percentile(latency_, 99.9) / 1e3;
    r.obs_samples = queue_wait_.size();
    r.queue_wait_p50_us = percentile(queue_wait_, 50.0) / 1e3;
    r.queue_wait_p999_us = percentile(queue_wait_, 99.9) / 1e3;
    r.vri_service_p50_us = percentile(service_, 50.0) / 1e3;

    std::uint64_t hook_drops = 0;
    for (std::uint64_t n : drops_) hook_drops += n;
    // Gateway: every offered frame left or was dropped with a cause.
    if (offered_total_ != egress_total_ + hook_drops)
      violation("gateway conservation: offered " +
                std::to_string(offered_total_) + " != delivered " +
                std::to_string(egress_total_) + " + drops " +
                std::to_string(hook_drops));
    if (lvrm_->rx_ring_drops() !=
        drops_[static_cast<std::size_t>(DropCause::kRxRingFull)])
      violation("RX ring drop counter disagrees with the drop hook");
    r.rx_ring_drops = lvrm_->rx_ring_drops();
    r.data_queue_drops = lvrm_->data_queue_drops();
    r.link_drops = link_drops;

    if (workload_ == Workload::kRamZipfFlows) {
      r.offered_total = offered_total_;
      r.delivered_total = egress_total_;
      r.dropped_total = hook_drops;
    } else {
      // End to end through the testbed: every injected frame reached its
      // host or was dropped on a link or inside the gateway.
      r.offered_total = injected_;
      r.delivered_total = host_delivered;
      r.dropped_total = hook_drops + link_drops;
      if (injected_ != host_delivered + link_drops + hook_drops)
        violation("testbed conservation: injected " +
                  std::to_string(injected_) + " != delivered " +
                  std::to_string(host_delivered) + " + link drops " +
                  std::to_string(link_drops) + " + gateway drops " +
                  std::to_string(hook_drops));
    }
    r.loss_frac = r.offered_total == 0
                      ? 0.0
                      : static_cast<double>(r.offered_total - r.delivered_total) /
                            static_cast<double>(r.offered_total);
    if (checked_ && workload_ != Workload::kTcpFtp100) {
      // Open loop: each flow's delivered share of what it offered.
      std::vector<double> ratio;
      for (std::size_t k = 0; k < flow_offered_.size(); ++k)
        if (flow_offered_[k] > 0)
          ratio.push_back(static_cast<double>(flow_delivered_[k]) /
                          static_cast<double>(flow_offered_[k]));
      r.jain = jain_index(ratio);
    }
    r.violations = violations_;
    r.violation_notes = notes_;
    r.input_digest = checked_ ? digest_ : 0;
    if (capture_) {
      r.captured = std::move(captured);
      r.captured_shard = std::move(captured_shard);
      r.captured_window_start = captured_window_start;
    }
  }

  std::vector<net::FrameMeta> captured;
  std::vector<int> captured_shard;
  std::size_t captured_window_start = 0;

 private:
  int flow_key(const net::FrameMeta& f) const {
    switch (workload_) {
      case Workload::kUdpSmallFrames:
        return f.flow_index;
      case Workload::kRamZipfFlows:
        // SYN-flood frames are fresh 5-tuples: no flow to keep in order.
        return f.protocol == net::kProtoUdp ? f.flow_index : -1;
      case Workload::kTcpFtp100:
        return f.flow_index < 0
                   ? -1
                   : 2 * f.flow_index + (f.kind == net::FrameKind::kTcpAck);
    }
    return -1;
  }

  Workload workload_;
  SpanLog& spans_;
  const sim::Simulator& sim_;
  bool checked_;
  bool capture_;
  LvrmSystem* lvrm_ = nullptr;
  bool check_fifo_ = false;
  bool check_shard_ = false;

  std::uint64_t injected_ = 0;
  std::uint64_t offered_total_ = 0;
  std::uint64_t offered_window_ = 0;
  std::uint64_t egress_total_ = 0;
  std::uint64_t egress_window_ = 0;
  std::uint64_t egress_window_bytes_ = 0;
  std::uint64_t egress_window_udp_bytes_ = 0;
  std::uint64_t latency_sum_ = 0;
  std::vector<double> latency_;
  std::vector<double> queue_wait_;
  std::vector<double> service_;
  std::vector<std::uint64_t> flow_offered_;
  std::vector<std::uint64_t> flow_delivered_;
  std::vector<std::uint64_t> flow_last_id_;
  std::array<std::uint64_t, 16> drops_{};
  std::uint64_t violations_ = 0;
  std::vector<std::string> notes_;
  std::uint64_t digest_ = 0xcbf29ce484222325ULL;
};

LvrmConfig base_config(const RepOptions& o) {
  LvrmConfig cfg;
  cfg.seed = o.seed;
  cfg.telemetry.enabled = o.telemetry;
  cfg.tracing.enabled = o.traced;
  return cfg;
}

/// Per-core busy time, for the busy fractions over the window.
std::vector<Nanos> core_busy(const LvrmSystem& sys, int cores) {
  std::vector<Nanos> busy;
  for (int c = 0; c < cores; ++c) busy.push_back(sys.core(c).busy_total());
  return busy;
}

DispatchStats dispatch_stats(const LvrmSystem& sys) {
  DispatchStats total;
  for (int s = 0; s < sys.shard_count(); ++s) total += sys.dispatcher(0, s).stats();
  return total;
}

/// What every world exposes to drive(), the repetition loop they share.
struct WorldHooks {
  sim::Simulator* sim = nullptr;
  LvrmSystem* lvrm = nullptr;
  std::function<void()> mark_window;   // at window start
  std::function<void(RepResult&, double)> end_window;  // at window end
  std::function<std::uint64_t()> host_delivered;
  std::function<std::uint64_t()> link_drops;
};

/// Runs the common repetition protocol over a constructed world.
void drive(const Shape& shape, const WorldHooks& w, Probe& probe,
           SpanLog& spans, std::int64_t t_start, double ref_start,
           RepResult& r) {
  sim::Simulator& sim = *w.sim;
  LvrmSystem& sys = *w.lvrm;
  const int cores = sim::CpuTopology().total_cores();

  // Set-up is construction plus the warm-up, timed in slices like the
  // window below.
  double ref = reference_ns();
  double setup_wall = static_cast<double>(host_now_ns() - t_start);
  double setup_norm = setup_wall * kReferenceNominalNs / (0.5 * (ref_start + ref));
  for (int i = 1; i <= kSlices; ++i) {
    const std::int64_t t0 = host_now_ns();
    sim.run_until(shape.warmup * i / kSlices);
    const auto slice = static_cast<double>(host_now_ns() - t0);
    const double ref_after = reference_ns();
    setup_wall += slice;
    setup_norm += slice * kReferenceNominalNs / (0.5 * (ref + ref_after));
    ref = ref_after;
  }
  r.setup_wall_s = setup_wall / 1e9;
  r.setup_s = setup_norm / 1e9;

  const std::vector<Nanos> busy0 = core_busy(sys, cores);
  const DispatchStats ds0 = dispatch_stats(sys);
  const std::uint64_t events0 = sim.events_processed();
  if (w.mark_window) w.mark_window();
  probe.open_window();
  // The window runs in slices with the reference workload between them;
  // each slice's host time is scaled by the machine speed measured on
  // either side of it. Neither the reference nor the bookkeeping here is
  // inside a timed slice, a span or the heap counts; the Probe's counters
  // are (see Probe).
  for (int i = 1; i <= kSlices; ++i) {
    const HeapCounts h0 = heap_counts();
    spans.set_recording(true);
    const std::int64_t t0 = host_now_ns();
    {
      SpanScope root(spans, kSimRun, 0);
      sim.run_until(shape.warmup + shape.window * i / kSlices);
    }
    const std::int64_t t1 = host_now_ns();
    spans.set_recording(false);
    const HeapCounts h1 = heap_counts();
    r.heap_window.allocs += h1.allocs - h0.allocs;
    r.heap_window.bytes += h1.bytes - h0.bytes;
    const double ref_after = reference_ns();
    const auto slice = static_cast<double>(t1 - t0);
    r.window_host_ns += slice;
    r.window_norm_ns += slice * kReferenceNominalNs / (0.5 * (ref + ref_after));
    r.reference_samples_ns.push_back(ref_after);
    ref = ref_after;
  }
  probe.in_window = false;
  r.events_window = sim.events_processed() - events0;
  r.window_sim_s = to_seconds(shape.window);

  const std::vector<Nanos> busy1 = core_busy(sys, cores);
  const auto frac = [&](int c) {
    return static_cast<double>(busy1[static_cast<std::size_t>(c)] -
                               busy0[static_cast<std::size_t>(c)]) /
           static_cast<double>(shape.window);
  };
  for (int s = 0; s < sys.shard_count(); ++s)
    r.rx_core_busy_frac = std::max(r.rx_core_busy_frac, frac(sys.shard_core(s)));
  for (sim::CoreId c : sys.vri_cores(0))
    r.vri_core_busy_frac_max = std::max(r.vri_core_busy_frac_max, frac(c));
  const DispatchStats ds1 = dispatch_stats(sys);
  const std::uint64_t probes = ds1.flow_probes - ds0.flow_probes;
  r.flow_hit_frac = probes == 0 ? 0.0
                                : static_cast<double>(ds1.flow_hits - ds0.flow_hits) /
                                      static_cast<double>(probes);
  for (int s = 0; s < sys.shard_count(); ++s)
    r.flow_entries += sys.dispatcher(0, s).flow_entries();
  r.dispatch_shards = sys.shard_count();
  r.vris = sys.active_vris(0);
  r.flow_mode = sys.config().granularity == BalancerGranularity::kFlow;
  if (w.end_window) w.end_window(r, r.window_sim_s);

  // Close the inputs and drain, so every frame is accounted for.
  probe.closed = true;
  sim.run_until(shape.warmup + shape.window + shape.drain);
  probe.finish(r, r.window_sim_s, w.host_delivered ? w.host_delivered() : 0,
               w.link_drops ? w.link_drops() : 0);
  if (spans.armed()) {
    r.span_self_ns = spans.self_ns();
    r.span_calls = spans.calls();
  }
}

// --- udp_small_frames ----------------------------------------------------------------

void run_udp(const RepOptions& o, SpanLog& spans, RepResult& r) {
  const double ref_start = reference_ns();
  const std::int64_t t_start = host_now_ns();
  const Shape shape = shape_of(o.workload);
  sim::Simulator sim;
  sim::CpuTopology topo;
  exp::GatewayOptions gopt;
  gopt.lvrm = base_config(o);
  gopt.lvrm.allocator = AllocatorKind::kFixed;
  VrConfig vr;
  vr.initial_vris = 4;
  gopt.vrs = {vr};
  exp::GatewayUnderTest gw(sim, topo, exp::Mechanism::kLvrmPfCpp, gopt);
  traffic::Testbed bed(sim, traffic::Testbed::Config{});
  Probe probe(o, spans, sim);
  probe.set_lvrm(gw.lvrm());

  bed.set_gateway([&](net::FrameMeta f) { return probe.ingress(gw, std::move(f)); });
  gw.set_egress([&](net::FrameMeta&& f) {
    probe.egress(f);
    SpanScope s(spans, kGatewayEgress, f.id);
    bed.gateway_egress(std::move(f));
  });

  // The seed draws each sender's share of the 400 Kfps, its start phase
  // and its flows' source ports: the same seed gives the same frames.
  Rng rng(o.seed * 0x9E3779B97F4A7C15ULL + 1);
  const double skew = rng.uniform(-0.02, 0.02);
  std::uint64_t next_id = 1;
  std::vector<std::unique_ptr<traffic::UdpSender>> senders;
  for (int h = 0; h < kUdpHosts; ++h) {
    traffic::UdpSender::Config cfg;
    cfg.src_ip = net::ipv4(10, 1, static_cast<std::uint8_t>(h + 1), 1);
    cfg.dst_ip = net::ipv4(10, 2, static_cast<std::uint8_t>(h + 1), 1);
    cfg.src_port_base = static_cast<std::uint16_t>(10000 + rng.uniform(40000));
    cfg.wire_bytes = 84;
    cfg.flows = kUdpFlowsPerHost;
    const double share = 0.5 * (h == 0 ? 1.0 + skew : 1.0 - skew);
    const auto phase = static_cast<Nanos>(rng.uniform(0.0, 5000.0));
    cfg.profile = {traffic::RateStep{phase, kUdpTotalRate * share}};
    cfg.stop_at = shape.warmup + shape.window;
    senders.push_back(std::make_unique<traffic::UdpSender>(
        sim, cfg, [&, h](net::FrameMeta&& f) {
          if (probe.closed) return;
          f.id = next_id++;  // sender ids restart at 1 per host
          f.flow_index += h * kUdpFlowsPerHost;
          probe.inject(f);
          SpanScope s(spans, kFromSender, f.id);
          bed.from_sender(h, std::move(f));
        }));
    senders.back()->start();
  }

  WorldHooks hooks;
  hooks.sim = &sim;
  hooks.lvrm = gw.lvrm();
  hooks.host_delivered = [&] {
    return bed.delivered_to_receivers() + bed.delivered_to_senders();
  };
  hooks.link_drops = [&] { return bed.link_drops(); };
  drive(shape, hooks, probe, spans, t_start, ref_start, r);
}

// --- ram_zipf_flows ------------------------------------------------------------------

void run_ram(const RepOptions& o, SpanLog& spans, RepResult& r) {
  const double ref_start = reference_ns();
  const std::int64_t t_start = host_now_ns();
  const Shape shape = shape_of(o.workload);
  sim::Simulator sim;
  sim::CpuTopology topo;
  LvrmConfig cfg = base_config(o);
  cfg.adapter = AdapterKind::kMemory;
  cfg.allocator = AllocatorKind::kFixed;
  cfg.granularity = BalancerGranularity::kFlow;
  cfg.dispatch_shards = 2;
  LvrmSystem sys(sim, topo, cfg);
  VrConfig vr;
  vr.kind = VrKind::kCpp;
  vr.initial_vris = 4;
  sys.add_vr(vr);
  sys.start();
  Probe probe(o, spans, sim);
  probe.set_lvrm(&sys);
  sys.set_egress([&](net::FrameMeta&& f) { probe.egress(f); });

  traffic::WorkloadGenerator::Config wl;
  wl.flows = kRamFlows;
  wl.zipf_alpha = 1.0;
  wl.base_rate = 200'000.0;
  wl.attack_fraction = 0.05;
  wl.attack = traffic::AttackMix::kSynFlood;
  wl.stop_at = shape.warmup + shape.window;
  wl.seed = o.seed;
  traffic::WorkloadGenerator gen(sim, wl, [&](net::FrameMeta&& f) {
    if (probe.closed) return;
    probe.inject(f);
    probe.ingress(sys, std::move(f));
  });
  gen.start();

  WorldHooks hooks;
  hooks.sim = &sim;
  hooks.lvrm = &sys;
  drive(shape, hooks, probe, spans, t_start, ref_start, r);
}

// --- tcp_ftp_100 -----------------------------------------------------------------------

void run_tcp(const RepOptions& o, SpanLog& spans, RepResult& r) {
  const double ref_start = reference_ns();
  const std::int64_t t_start = host_now_ns();
  const Shape shape = shape_of(o.workload);
  sim::Simulator sim;
  sim::CpuTopology topo;
  exp::GatewayOptions gopt;
  gopt.lvrm = base_config(o);
  gopt.lvrm.granularity = BalancerGranularity::kFlow;
  exp::GatewayUnderTest gw(sim, topo, exp::Mechanism::kLvrmPfCpp, gopt);
  traffic::Testbed::Config bed_cfg;
  bed_cfg.tx_queue = 2000;
  traffic::Testbed bed(sim, bed_cfg);
  Probe probe(o, spans, sim);
  probe.set_lvrm(gw.lvrm());

  bed.set_gateway([&](net::FrameMeta f) { return probe.ingress(gw, std::move(f)); });
  gw.set_egress([&](net::FrameMeta&& f) {
    probe.egress(f);
    SpanScope s(spans, kGatewayEgress, f.id);
    bed.gateway_egress(std::move(f));
  });

  // Reno segments carry no id; number them at the host so spans, the input
  // digest and the per-flow FIFO check can name each frame.
  std::uint64_t next_id = 1;
  std::vector<std::unique_ptr<tcp::RenoFlow>> flows;
  for (int i = 0; i < kTcpFlows; ++i) {
    tcp::RenoConfig rc;
    rc.flow_index = i;
    rc.sender_ip = net::ipv4(10, 1, static_cast<std::uint8_t>(1 + i % 200),
                             static_cast<std::uint8_t>(1 + i / 200));
    rc.receiver_ip = net::ipv4(10, 2, static_cast<std::uint8_t>(1 + i % 200),
                               static_cast<std::uint8_t>(1 + i / 200));
    rc.receiver_port = static_cast<std::uint16_t>(50000 + i);
    rc.app_drain_rate = sim::costs::kFtpAppDrainRate;
    rc.send_jitter = usec(3);
    rc.ack_jitter = usec(300);
    const int host = i % 2;
    flows.push_back(std::make_unique<tcp::RenoFlow>(
        sim, rc,
        [&, host](net::FrameMeta f) {
          if (probe.closed) return;
          f.id = next_id++;
          probe.inject(f);
          SpanScope s(spans, kFromSender, f.id);
          bed.from_sender(host, std::move(f));
        },
        [&, host](net::FrameMeta f) {
          if (probe.closed) return;
          f.id = next_id++;
          probe.inject(f);
          SpanScope s(spans, kFromReceiver, f.id);
          bed.from_receiver(host, std::move(f));
        }));
  }
  bed.set_to_receiver([&](net::FrameMeta&& f) {
    if (f.kind != net::FrameKind::kTcpData || f.flow_index < 0 ||
        f.flow_index >= kTcpFlows)
      return;
    SpanScope s(spans, kTcpOnData, f.id);
    flows[static_cast<std::size_t>(f.flow_index)]->on_data_at_receiver(f);
  });
  bed.set_to_sender([&](net::FrameMeta&& f) {
    if (f.kind != net::FrameKind::kTcpAck || f.flow_index < 0 ||
        f.flow_index >= kTcpFlows)
      return;
    SpanScope s(spans, kTcpOnAck, f.id);
    flows[static_cast<std::size_t>(f.flow_index)]->on_ack_at_sender(f);
  });

  // The seed staggers the FTP logins over the first 200 ms.
  Rng rng(o.seed);
  for (auto& flow : flows) flow->start(static_cast<Nanos>(rng.uniform(0, 2e8)));

  std::vector<std::uint64_t> sent0, retx0, rto0;
  WorldHooks hooks;
  hooks.sim = &sim;
  hooks.lvrm = gw.lvrm();
  hooks.mark_window = [&] {
    for (auto& f : flows) {
      f->begin_measurement(sim.now());
      sent0.push_back(f->segments_sent());
      retx0.push_back(f->retransmits());
      rto0.push_back(f->timeouts());
    }
  };
  hooks.end_window = [&](RepResult& out, double window_s) {
    std::vector<double> mbps;
    for (std::size_t i = 0; i < flows.size(); ++i) {
      const tcp::RenoFlow& f = *flows[i];
      mbps.push_back(static_cast<double>(f.delivered_since_mark()) *
                     sim::costs::kTcpSegmentBytes * 8.0 / window_s / 1e6);
      out.tcp_segments += f.segments_sent() - sent0[i];
      out.tcp_retransmits += f.retransmits() - retx0[i];
      out.tcp_timeouts += f.timeouts() - rto0[i];
    }
    out.sim_goodput_mbps = sum_of(mbps);
    out.jain = jain_index(mbps);
  };
  hooks.host_delivered = [&] {
    return bed.delivered_to_receivers() + bed.delivered_to_senders();
  };
  hooks.link_drops = [&] { return bed.link_drops(); };
  drive(shape, hooks, probe, spans, t_start, ref_start, r);
}

}  // namespace

RepResult run_rep(const RepOptions& options, SpanLog& spans) {
  RepResult r;
  switch (options.workload) {
    case Workload::kUdpSmallFrames: run_udp(options, spans, r); break;
    case Workload::kRamZipfFlows: run_ram(options, spans, r); break;
    case Workload::kTcpFtp100: run_tcp(options, spans, r); break;
  }
  return r;
}

double replay_probe_ns_per_frame(Workload w, const RepResult& traced) {
  const std::size_t begin = traced.captured_window_start;
  if (traced.captured.size() <= begin) return 0.0;
  struct NullGateway {
    bool ingress(net::FrameMeta f) { return f.id != 0; }
  } gw;
  // A timed repetition's Probe: unarmed spans, no checks, no capture.
  SpanLog spans;
  sim::Simulator sim;
  RepOptions o;
  o.workload = w;
  Probe probe(o, spans, sim);
  probe.open_window();
  std::size_t accepted = 0;
  const std::int64_t t0 = host_now_ns();
  for (std::size_t i = begin; i < traced.captured.size(); ++i) {
    const net::FrameMeta& f = traced.captured[i];
    probe.inject(f);
    accepted += probe.ingress(gw, f) ? 1 : 0;
    probe.egress(f);
  }
  const std::int64_t t1 = host_now_ns();
  if (accepted == 0 || probe.counter_sum() == 0) return -1.0;
  return static_cast<double>(t1 - t0) /
         static_cast<double>(traced.captured.size() - begin);
}

}  // namespace e2e
