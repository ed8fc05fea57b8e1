#include "exp/experiments.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <ctime>
#include <memory>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "exp/rig.hpp"
#include "net/flow.hpp"
#include "net/flow_v2.hpp"
#include "net/headers.hpp"
#include "sim/costs.hpp"
#include "tcp/reno.hpp"
#include "traffic/workload.hpp"

namespace lvrm::exp {

namespace costs = sim::costs;

namespace {

std::vector<SenderSpec> default_senders() {
  SenderSpec s1;
  s1.src_ip = net::ipv4(10, 1, 1, 1);
  s1.dst_ip = net::ipv4(10, 2, 1, 1);
  s1.rate_share = 0.5;
  SenderSpec s2;
  s2.src_ip = net::ipv4(10, 1, 2, 1);
  s2.dst_ip = net::ipv4(10, 2, 2, 1);
  s2.rate_share = 0.5;
  return {s1, s2};
}

/// A fully wired Fig 4.1 world: gateway under test + testbed + UDP senders.
struct UdpWorld {
  sim::Simulator sim;
  sim::CpuTopology topo;
  GatewayUnderTest gw;
  traffic::Testbed bed;
  std::vector<std::unique_ptr<traffic::UdpSender>> senders;

  UdpWorld(const WorldOptions& options, FramesPerSec total_rate)
      : topo(),
        gw(sim, topo, options.mech, options.gw),
        bed(sim, options.testbed) {
    bed.set_gateway(
        [this](net::FrameMeta f) { return gw.ingress(std::move(f)); });
    gw.set_egress(
        [this](net::FrameMeta&& f) { bed.gateway_egress(std::move(f)); });

    std::vector<SenderSpec> specs =
        options.senders.empty() ? default_senders() : options.senders;
    int host = 0;
    for (const SenderSpec& spec : specs) {
      traffic::UdpSender::Config cfg;
      cfg.src_ip = spec.src_ip;
      cfg.dst_ip = spec.dst_ip;
      cfg.wire_bytes = options.frame_bytes;
      cfg.flows = spec.flows;
      cfg.stop_at = sec(100'000);
      cfg.profile = spec.profile.empty()
                        ? traffic::UdpSender::constant(total_rate *
                                                       spec.rate_share)
                        : spec.profile;
      auto sender = std::make_unique<traffic::UdpSender>(
          sim, cfg, [this, host](net::FrameMeta&& f) {
            bed.from_sender(host, std::move(f));
          });
      sender->start();
      senders.push_back(std::move(sender));
      ++host;
    }
  }

  std::uint64_t sent_since_mark() const {
    std::uint64_t total = 0;
    for (const auto& s : senders) total += s->sent_since_mark();
    return total;
  }

  void mark() {
    for (auto& s : senders) s->mark();
    bed.mark();
  }
};

}  // namespace

// --- UDP trials -----------------------------------------------------------------

UdpTrialResult run_udp_trial(const WorldOptions& options,
                             FramesPerSec total_rate) {
  UdpWorld world(options, total_rate);
  world.sim.run_until(options.warmup);
  world.mark();
  world.sim.run_until(options.warmup + options.measure);

  UdpTrialResult r;
  r.sent = world.sent_since_mark();
  r.received = world.bed.delivered_to_receivers_since_mark();
  const double seconds = to_seconds(options.measure);
  r.offered_fps = static_cast<double>(r.sent) / seconds;
  r.delivered_fps = static_cast<double>(r.received) / seconds;
  r.delivered_bps =
      r.delivered_fps * 8.0 * static_cast<double>(options.frame_bytes);
  r.gateway_rx_drops = world.gw.rx_drops() + world.bed.gateway_rx_drops();
  if (auto* lvrm = world.gw.lvrm()) {
    r.queue_drops = lvrm->data_queue_drops();
    if (!options.telemetry_export_prefix.empty())
      lvrm->export_telemetry(options.telemetry_export_prefix);
  }
  return r;
}

FramesPerSec offered_rate_bound(int frame_bytes, int senders) {
  const FramesPerSec host_cap =
      senders * 1e9 / static_cast<double>(costs::kSenderPerFrame);
  const FramesPerSec wire_cap =
      costs::kLinkRate / (8.0 * static_cast<double>(frame_bytes));
  return std::min(host_cap, wire_cap);
}

UdpTrialResult achievable_throughput(const WorldOptions& options,
                                     FramesPerSec hi_bound, double tolerance) {
  // Highest offered rate whose delivery stays within the +/-2% rule.
  UdpTrialResult at_hi = run_udp_trial(options, hi_bound);
  if (at_hi.feasible(tolerance)) return at_hi;

  double lo = 0.0;
  double hi = hi_bound;
  UdpTrialResult best{};
  for (int iter = 0; iter < 9 && hi - lo > 0.02 * hi_bound; ++iter) {
    const double mid = (lo + hi) / 2.0;
    UdpTrialResult r = run_udp_trial(options, mid);
    if (r.feasible(tolerance)) {
      lo = mid;
      best = r;
    } else {
      hi = mid;
    }
  }
  return best;
}

PerVrResult run_udp_trial_per_vr(const WorldOptions& options,
                                 FramesPerSec total_rate) {
  UdpWorld world(options, total_rate);
  world.sim.run_until(options.warmup);
  world.mark();
  auto* lvrm = world.gw.lvrm();
  assert(lvrm && "per-VR accounting requires an LVRM mechanism");
  std::vector<std::uint64_t> before;
  for (int vr = 0; vr < lvrm->vr_count(); ++vr)
    before.push_back(lvrm->vr_forwarded(vr));
  world.sim.run_until(options.warmup + options.measure);

  PerVrResult out;
  const double seconds = to_seconds(options.measure);
  for (int vr = 0; vr < lvrm->vr_count(); ++vr)
    out.vr_delivered_fps.push_back(
        static_cast<double>(lvrm->vr_forwarded(vr) -
                            before[static_cast<std::size_t>(vr)]) /
        seconds);
  out.total.sent = world.sent_since_mark();
  out.total.received = world.bed.delivered_to_receivers_since_mark();
  out.total.offered_fps = static_cast<double>(out.total.sent) / seconds;
  out.total.delivered_fps = static_cast<double>(out.total.received) / seconds;
  return out;
}

// --- RTT (Experiment 1b) ------------------------------------------------------------

RttResult measure_rtt(const WorldOptions& options, int pings) {
  UdpWorld world(options, 0.0);
  RunningStats stats;
  std::vector<double> rtts;

  world.bed.set_to_receiver([&world](net::FrameMeta&& f) {
    if (f.kind != net::FrameKind::kIcmpRequest) return;
    // The receiver host's ICMP echo handling, then the reply traverses the
    // gateway in the opposite direction.
    net::FrameMeta reply = f;
    reply.kind = net::FrameKind::kIcmpReply;
    std::swap(reply.src_ip, reply.dst_ip);
    reply.dispatch_vr = -1;
    reply.dispatch_vri = -1;
    world.sim.after(usec(8), [&world, reply] {
      world.bed.from_receiver(0, reply);
    });
  });
  world.bed.set_to_sender([&stats, &rtts, &world](net::FrameMeta&& f) {
    if (f.kind != net::FrameKind::kIcmpReply) return;
    const double rtt_us = to_micros(world.sim.now() - f.created_at);
    stats.add(rtt_us);
    rtts.push_back(rtt_us);
  });

  for (int i = 0; i < pings; ++i) {
    world.sim.at(msec(2) * i, [&world, i] {
      net::FrameMeta ping;
      ping.id = 1'000'000 + static_cast<std::uint64_t>(i);
      ping.kind = net::FrameKind::kIcmpRequest;
      ping.wire_bytes = 98;  // 64-byte ICMP payload on the wire
      ping.protocol = net::kProtoIcmp;
      ping.src_ip = net::ipv4(10, 1, 1, 1);
      ping.dst_ip = net::ipv4(10, 2, 1, 1);
      ping.created_at = world.sim.now();
      world.bed.from_sender(0, ping);
    });
  }
  world.sim.run_until(msec(2) * pings + msec(50));

  RttResult out;
  out.avg_us = stats.mean();
  out.p99_us = percentile(rtts, 99.0);
  out.replies = static_cast<int>(stats.count());
  return out;
}

// --- CPU usage (Fig 4.3) ---------------------------------------------------------------

CpuUsage measure_cpu_usage(const WorldOptions& options, FramesPerSec rate) {
  UdpWorld world(options, rate);
  world.sim.run_until(options.warmup);
  world.mark();
  if (auto* lvrm = world.gw.lvrm()) {
    lvrm->reset_accounting();
  } else {
    world.gw.fallback()->core().reset_accounting();
  }
  world.sim.run_until(options.warmup + options.measure);

  const double window = static_cast<double>(options.measure);
  const auto frames =
      static_cast<double>(world.bed.delivered_to_receivers_since_mark());
  CpuUsage usage;

  if (auto* lvrm = world.gw.lvrm()) {
    sim::Core& core = lvrm->lvrm_core();
    double user = static_cast<double>(core.busy(sim::CostCategory::kUser));
    double sys = static_cast<double>(core.busy(sim::CostCategory::kSystem));
    // A non-blocking poll loop never idles: attribute the remaining wall
    // time to polling — user-space ring checks for PF_RING/memory, repeated
    // recvfrom() syscalls for the raw socket.
    const double poll = std::max(0.0, window - user - sys);
    if (lvrm->adapter().kind() == AdapterKind::kRawSocket) {
      sys += poll;
    } else {
      user += poll;
    }
    // Softirq: kernel-side NIC work the adapter cannot bypass.
    const double si_per_frame =
        lvrm->adapter().kind() == AdapterKind::kRawSocket
            ? static_cast<double>(costs::kRawSocketSoftirq)
            : static_cast<double>(costs::kPfRingSoftirq);
    usage.user_pct = 100.0 * user / window;
    usage.system_pct = 100.0 * sys / window;
    usage.softirq_pct = 100.0 * frames * si_per_frame / window;
    return usage;
  }

  sim::Core& core = world.gw.fallback()->core();
  usage.user_pct = 100.0 *
                   static_cast<double>(core.busy(sim::CostCategory::kUser)) /
                   window;
  usage.system_pct =
      100.0 * static_cast<double>(core.busy(sim::CostCategory::kSystem)) /
      window;
  usage.softirq_pct =
      100.0 * static_cast<double>(core.busy(sim::CostCategory::kSoftirq)) /
      window;
  return usage;
}

// --- RAM-trace worlds (Experiments 1c/1d, 5, 6, 8, 9) --------------------------------------
//
// Each trial builds one LvrmRig, reads its results, then drains the rig and
// returns its conservation verdict with them.

namespace {

/// One VR of `kind` with a single VRI: Exp 1c/1d's "a single VRI processes
/// the frames".
VrConfig single_vri(VrKind kind) {
  VrConfig vr;
  vr.kind = kind;
  return vr;
}

/// Exp 8's VR: a per-flow token bucket far above the offered rate, so every
/// frame churns the state a sprayed elephant replicates but none is refused,
/// and the dummy load pins each VRI to the allocator's nominal capacity.
VrConfig stateful_vr(int vris) {
  VrConfig vr;
  vr.kind = VrKind::kRateLimit;
  vr.inner_kind = VrKind::kCpp;
  vr.rate_limit_fps = 1e9;
  vr.rate_limit_burst = 1e6;
  vr.initial_vris = vris;
  vr.dummy_load = costs::kDummyLoad;
  return vr;
}

}  // namespace

MemoryTrialResult run_memory_throughput(VrKind vr, int frame_bytes) {
  LvrmRig rig(ram_config(), {single_vri(vr)});
  // Keep the RX ring stocked, mimicking "LVRM reads the frames from RAM as
  // fast as possible"; the output interface "will simply discard".
  rig.refill(512, trace_flows(64, frame_bytes));

  const Nanos warmup = msec(10);
  const Nanos window = msec(50);
  rig.sim.run_until(warmup);
  const std::uint64_t mark = rig.delivered();
  rig.sim.run_until(warmup + window);

  MemoryTrialResult out;
  out.delivered_fps =
      static_cast<double>(rig.delivered() - mark) / to_seconds(window);
  out.delivered_bps = out.delivered_fps * 8.0 * frame_bytes;
  out.avg_latency_us = rig.latency_us.mean();
  out.conservation = rig.drain();
  return out;
}

MemoryTrialResult run_memory_latency(VrKind vr, int frame_bytes) {
  LvrmRig rig(ram_config(), {single_vri(vr)});
  const FrameMaker make = trace_flows(64, frame_bytes);
  const int frames = 400;
  for (int i = 0; i < frames; ++i) {
    rig.sim.at(usec(150) * i, [&rig, &make, i] {
      rig.ingress(make(static_cast<std::uint64_t>(i)));
    });
  }
  rig.sim.run_until(usec(150) * frames + msec(5));

  MemoryTrialResult out;
  out.avg_latency_us = rig.latency_us.mean();
  out.conservation = rig.drain();
  return out;
}

ShardScalingResult run_shard_scaling_trial(const ShardScalingOptions& opt) {
  LvrmConfig cfg = ram_config();
  cfg.granularity = BalancerGranularity::kFlow;
  cfg.dispatch_shards = opt.shards;
  cfg.seed = opt.seed;
  LvrmRig rig(cfg, opt.vris, 0);
  // Exp 1c's refill, cycling `flows` distinct 5-tuples so the RSS hash has
  // something to spread across the shard rings.
  rig.refill(1024, trace_flows(opt.flows, opt.frame_bytes));

  ShardScalingResult out;
  out.shards = rig.sys->shard_count();
  rig.sim.run_until(opt.warmup);
  const std::uint64_t mark = rig.delivered();
  const auto n_shards = static_cast<std::size_t>(out.shards);
  std::vector<std::uint64_t> rx_mark(n_shards);
  for (std::size_t s = 0; s < n_shards; ++s)
    rx_mark[s] = rig.sys->shard_rx_admitted(static_cast<int>(s));
  rig.sim.run_until(opt.warmup + opt.measure);

  out.delivered_fps =
      static_cast<double>(rig.delivered() - mark) / to_seconds(opt.measure);
  out.delivered_bps = out.delivered_fps * 8.0 * opt.frame_bytes;
  out.avg_latency_us = rig.latency_us.mean();
  out.per_shard_rx.resize(n_shards);
  for (std::size_t s = 0; s < n_shards; ++s)
    out.per_shard_rx[s] =
        rig.sys->shard_rx_admitted(static_cast<int>(s)) - rx_mark[s];
  out.affinity_violations = rig.check.affinity_violations();
  out.ordering_violations = rig.check.fifo_violations();
  out.conservation = rig.drain();
  return out;
}

ElephantTrialResult run_elephant_trial(const ElephantTrialOptions& opt) {
  LvrmConfig cfg = ram_config();
  cfg.granularity = BalancerGranularity::kFlow;
  cfg.dispatch_shards = opt.shards;
  cfg.state_replication.enabled = opt.replication;
  cfg.seed = opt.seed;
  LvrmRig rig(cfg, {stateful_vr(opt.vris)});
  std::uint64_t elephant_delivered = 0;
  rig.on_egress = [&elephant_delivered](const net::FrameMeta& f) {
    if (f.src_port == LvrmRig::kElephantPort) ++elephant_delivered;
  };
  rig.credit(kPerVriCapacityFps * opt.elephant_multiplier, opt.mice_flows,
             kPerVriCapacityFps * opt.mice_load, opt.frame_bytes);

  rig.sim.run_until(opt.warmup);
  const std::uint64_t mark = rig.delivered();
  const std::uint64_t elephant_mark = elephant_delivered;
  rig.sim.run_until(opt.warmup + opt.measure);

  ElephantTrialResult out;
  const LvrmSystem& sys = *rig.sys;
  out.delivered_fps =
      static_cast<double>(rig.delivered() - mark) / to_seconds(opt.measure);
  out.elephant_fps = static_cast<double>(elephant_delivered - elephant_mark) /
                     to_seconds(opt.measure);
  out.sprayed_frames = sys.sprayed_frames();
  out.spray_activations = sys.spray_activations();
  out.deltas_sent = sys.deltas_sent();
  out.deltas_applied = sys.deltas_applied();
  out.seq_window_overflows = sys.seq_window_overflows();
  out.ordering_violations = rig.check.fifo_violations();
  out.conservation = rig.drain();
  return out;
}

FabricTrialResult run_fabric_trial(const FabricTrialOptions& opt) {
  using Workload = FabricTrialOptions::Workload;
  LvrmConfig cfg = ram_config();
  if (opt.workload == Workload::kSkewFrame) {
    cfg.granularity = BalancerGranularity::kFrame;
    cfg.balancer = BalancerKind::kRoundRobin;
  } else {
    cfg.granularity = BalancerGranularity::kFlow;
  }
  cfg.dispatch_shards = opt.shards;
  cfg.work_stealing = opt.stealing;
  cfg.state_replication.enabled = opt.workload == Workload::kElephant;
  cfg.seed = opt.seed;
  // The elephant workload runs on Exp 8's stateful VR, so stolen sprayed
  // frames must still sequence at TX.
  LvrmRig rig(cfg, {opt.workload == Workload::kElephant
                        ? stateful_vr(opt.vris)
                        : LvrmRig::one_vr(opt.vris, 0)});
  const LvrmSystem& sys = *rig.sys;

  FabricTrialResult out;
  out.shards = sys.shard_count();
  out.vris = opt.vris;
  out.mesh_rings = sys.mesh_ring_count();
  out.fabric_rings = sys.fabric_ring_count();
  out.mesh_ring_bytes = sys.mesh_ring_bytes();
  out.fabric_ring_bytes = sys.fabric_ring_bytes();

  if (opt.workload == Workload::kSkewFrame) {
    // One sick VRI at 6x service cost, in both the stealing-off and -on
    // rows: its queue backlogs while siblings go idle — the §17 idle-VRI
    // steal pressure case.
    rig.faults->schedule({.kind = FaultKind::kSlowdown,
                          .vri = 0,
                          .at = opt.warmup / 2,
                          .duration = 0,  // permanent; the drain completes
                          .magnitude = 6.0});
  }

  // Ids are per-flow sequence numbers, so any regression is an external
  // reordering.
  const Nanos stop_at = opt.warmup + opt.measure;
  if (opt.workload == Workload::kElephant) {
    // Exp 8's shape: one elephant at 4x a single VRI's capacity plus light
    // pinned mice at 10% aggregate.
    rig.credit(kPerVriCapacityFps * 4.0, opt.flows, kPerVriCapacityFps * 0.1,
               opt.frame_bytes, stop_at);
  } else {
    // Saturating round-robin over the pinned flows: push until an RX ring
    // refuses, cycling flows so every shard and pinned VRI stays loaded.
    rig.refill(
        1024, static_cast<std::size_t>(opt.flows),
        [bytes = opt.frame_bytes](std::size_t m, std::uint64_t seq) {
          return port_frame(static_cast<std::uint16_t>(9000 + m), seq, bytes);
        },
        usec(20), stop_at);
  }

  rig.sim.run_until(opt.warmup);
  const std::uint64_t mark = rig.delivered();
  rig.sim.run_until(stop_at);
  out.delivered_fps =
      static_cast<double>(rig.delivered() - mark) / to_seconds(opt.measure);
  // Full drain: every queued frame egresses or lands in a drop bucket
  // before the steal counters are read.
  out.conservation = rig.drain();
  out.avg_latency_us = rig.latency_us.mean();
  out.vri_steals = sys.vri_steals();
  out.vri_steal_frames = sys.vri_steal_frames();
  out.ordering_violations = rig.check.fifo_violations();
  return out;
}

OverloadTrialResult run_overload_trial(const OverloadTrialOptions& opt) {
  LvrmConfig cfg = ram_config();
  cfg.granularity = BalancerGranularity::kFlow;
  cfg.overload_control.enabled = opt.ladder;
  cfg.seed = opt.seed;
  // The thesis's dummy load pins each VRI's service rate to the allocator's
  // nominal capacity, so offered_multiplier is a true overload factor.
  LvrmRig rig(cfg, opt.vris);
  const LvrmSystem& sys = *rig.sys;

  const double nominal = kPerVriCapacityFps * opt.vris;
  const Nanos stop = opt.warmup + opt.measure;

  traffic::WorkloadGenerator::Config wl;
  wl.flows = opt.flows;
  wl.base_rate = nominal * opt.offered_multiplier;
  wl.attack_fraction = opt.attack_fraction;
  wl.flash_at = opt.warmup + opt.measure / 6;
  wl.flash_ramp = opt.measure / 12;
  wl.flash_hold = opt.measure / 4;
  wl.flash_multiplier = 2.0;
  wl.stop_at = stop;
  wl.min_gap = 1;  // offered load is the experiment; no sender-side ceiling
  wl.seed = opt.seed;
  traffic::WorkloadGenerator gen(
      rig.sim, wl, [&rig](net::FrameMeta&& f) { rig.ingress(f); });

  // Generator ids are globally monotonic, so a per-flow regression at
  // egress means the data path reordered frames within the flow.
  OverloadTrialResult out;
  rig.on_egress = [&](const net::FrameMeta& f) {
    const auto cls = static_cast<std::size_t>(gen.class_of(f));
    ++out.delivered_by_class[cls];
    out.corrected_by_class[cls] += 1.0 / f.admit_rate;
  };

  // Sample the ladder level on a fine grid (it relaxes again once the flash
  // passes, so an end-of-run read would miss the peak).
  rig.source(opt.warmup, [&]() -> Nanos {
    out.peak_level =
        std::max(out.peak_level, static_cast<int>(sys.overload_level(0)));
    return rig.sim.now() < stop ? msec(1) : -1;
  });

  if (opt.decommission) {
    rig.sim.at(opt.warmup + opt.measure / 2,
               [&] { rig.sys->decommission_vri(0, opt.vris - 1); });
  }

  gen.start();
  // Quiesce well past the stop so every queued frame drains (or is
  // dropped) before the counters are read.
  rig.sim.run_until(stop + msec(30));

  out.offered = gen.sent();
  out.delivered = rig.delivered();
  for (int c = 0; c < traffic::kFlowClassCount; ++c)
    out.offered_by_class[c] = gen.sent(static_cast<traffic::FlowClass>(c));
  out.sampled_shed = sys.drops(DropCause::kSampledShed);
  out.admission_rejected = sys.drops(DropCause::kAdmissionReject);
  out.queue_drops = sys.data_queue_drops();
  out.ordering_violations = rig.check.fifo_violations();
  out.offered_estimate = sys.vr_offered_estimate(0);
  const double truth =
      static_cast<double>(sys.vr_frames_in(0)) +
      static_cast<double>(sys.vr_drops(0, DropCause::kAdmissionReject));
  out.estimate_error =
      truth > 0.0 ? std::abs(out.offered_estimate - truth) / truth : 0.0;
  out.delivered_fps =
      static_cast<double>(out.delivered) / to_seconds(opt.measure);
  out.avg_latency_us = rig.latency_us.mean();
  if (!sys.drain_log().empty()) {
    const DrainEvent& ev = sys.drain_log().front();
    out.drain_migrated = ev.migrated;
    out.drain_dropped = ev.dropped;
    out.drain_flows_evicted = ev.flows_evicted;
    out.drain_handoff_latency = ev.handoff_latency;
  }
  out.conservation = rig.drain();
  return out;
}

// --- Control-event latency (Experiment 1e) ------------------------------------------------

double measure_control_latency_us(std::size_t event_bytes, bool full_load,
                                  int events, std::size_t poll_batch) {
  WorldOptions options;
  options.mech = Mechanism::kLvrmPfCpp;
  options.gw.lvrm.allocator = AllocatorKind::kFixed;
  options.gw.lvrm.poll_batch = poll_batch;
  VrConfig vr;
  vr.initial_vris = 2;  // "LVRM host a C++ VR, which has two VRIs"
  options.gw.vrs = {vr};

  const FramesPerSec rate = full_load ? offered_rate_bound(84) : 0.0;
  UdpWorld world(options, rate);
  auto* lvrm = world.gw.lvrm();

  RunningStats latency;
  world.sim.run_until(msec(30));  // settle the data path
  for (int i = 0; i < events; ++i) {
    world.sim.at(msec(30) + usec(500) * i, [&world, lvrm, event_bytes,
                                            &latency] {
      lvrm->send_control(0, 0, 1, event_bytes, [&latency](Nanos ns) {
        latency.add(to_micros(ns));
      });
    });
  }
  world.sim.run_until(msec(30) + usec(500) * events + msec(10));
  return latency.mean();
}

// --- Core allocation traces (Experiments 2c-2e) -------------------------------------------

AllocTrace run_allocation_trace(const WorldOptions& options, Nanos duration,
                                Nanos sample_every) {
  UdpWorld world(options, 0.0);  // rates come from per-sender profiles
  auto* lvrm = world.gw.lvrm();
  assert(lvrm && "allocation traces require an LVRM mechanism");

  AllocTrace trace;
  for (Nanos t = 0; t <= duration; t += sample_every) {
    world.sim.at(t, [&trace, lvrm, &world] {
      AllocSample sample;
      sample.t_sec = to_seconds(world.sim.now());
      for (int vr = 0; vr < lvrm->vr_count(); ++vr)
        sample.vris_per_vr.push_back(lvrm->active_vris(vr));
      trace.samples.push_back(std::move(sample));
    });
  }
  world.sim.run_until(duration + msec(1));
  trace.log = lvrm->allocation_log();
  if (!options.telemetry_export_prefix.empty())
    lvrm->export_telemetry(options.telemetry_export_prefix);
  return trace;
}

// --- FTP/TCP worlds (Experiments 3c, 4) ----------------------------------------------------

TcpResult run_tcp_trial(const TcpWorldOptions& options) {
  sim::Simulator sim;
  sim::CpuTopology topo;
  GatewayUnderTest gw(sim, topo, options.mech, options.gw);
  traffic::Testbed::Config bed_config;
  bed_config.tx_queue = options.bottleneck_queue;
  traffic::Testbed bed(sim, bed_config);
  bed.set_gateway([&gw](net::FrameMeta f) { return gw.ingress(std::move(f)); });
  gw.set_egress([&bed](net::FrameMeta&& f) { bed.gateway_egress(std::move(f)); });

  TcpResult out;
  std::vector<std::unique_ptr<tcp::RenoFlow>> flows;
  flows.reserve(static_cast<std::size_t>(options.flow_pairs));
  for (int i = 0; i < options.flow_pairs; ++i) {
    tcp::RenoConfig rc;
    rc.flow_index = i;
    rc.sender_ip = net::ipv4(10, 1, static_cast<std::uint8_t>(1 + i % 200),
                             static_cast<std::uint8_t>(1 + i / 200));
    rc.receiver_ip = net::ipv4(10, 2, static_cast<std::uint8_t>(1 + i % 200),
                               static_cast<std::uint8_t>(1 + i / 200));
    rc.receiver_port = static_cast<std::uint16_t>(50000 + i);
    rc.app_drain_rate = options.app_drain_rate;
    rc.send_jitter = options.send_jitter;
    rc.ack_jitter = options.ack_jitter;
    const int host = i % 2;
    flows.push_back(std::make_unique<tcp::RenoFlow>(
        sim, rc,
        [&bed, &out, host](net::FrameMeta f) {
          ++out.frames_offered;
          bed.from_sender(host, std::move(f));
        },
        [&bed, &out, host](net::FrameMeta f) {
          ++out.frames_offered;
          bed.from_receiver(host, std::move(f));
        }));
  }

  bed.set_to_receiver([&flows](net::FrameMeta&& f) {
    if (f.kind != net::FrameKind::kTcpData) return;
    if (f.flow_index < 0 ||
        f.flow_index >= static_cast<std::int32_t>(flows.size()))
      return;
    flows[static_cast<std::size_t>(f.flow_index)]->on_data_at_receiver(f);
  });
  bed.set_to_sender([&flows](net::FrameMeta&& f) {
    if (f.kind != net::FrameKind::kTcpAck) return;
    if (f.flow_index < 0 ||
        f.flow_index >= static_cast<std::int32_t>(flows.size()))
      return;
    flows[static_cast<std::size_t>(f.flow_index)]->on_ack_at_sender(f);
  });

  // Stagger connection starts slightly, as real FTP logins would.
  Rng rng(options.seed);
  for (auto& flow : flows)
    flow->start(static_cast<Nanos>(rng.uniform(0, 2e8)));

  sim.run_until(options.warmup);
  for (auto& flow : flows) flow->begin_measurement(sim.now());

  if (options.series_interval > 0) {
    const int points = static_cast<int>(options.measure /
                                        options.series_interval);
    std::shared_ptr<std::uint64_t> last_total =
        std::make_shared<std::uint64_t>(0);
    for (auto& flow : flows) *last_total += flow->segments_delivered();
    for (int p = 1; p <= points; ++p) {
      sim.at(options.warmup + options.series_interval * p,
             [&flows, &out, &sim, last_total, &options] {
               std::uint64_t total = 0;
               for (auto& flow : flows) total += flow->segments_delivered();
               const double mbps =
                   static_cast<double>(total - *last_total) *
                   costs::kTcpSegmentBytes * 8.0 /
                   to_seconds(options.series_interval) / 1e6;
               *last_total = total;
               out.series.emplace_back(to_seconds(sim.now()), mbps);
             });
    }
  }
  sim.run_until(options.warmup + options.measure);

  const double seconds = to_seconds(options.measure);
  for (auto& flow : flows) {
    const double mbps = static_cast<double>(flow->delivered_since_mark()) *
                        costs::kTcpSegmentBytes * 8.0 / seconds / 1e6;
    out.per_flow_mbps.push_back(mbps);
    out.retransmits += flow->retransmits();
    out.timeouts += flow->timeouts();
  }
  out.aggregate_mbps = sum_of(out.per_flow_mbps);
  out.jain = jain_index(out.per_flow_mbps);
  out.maxmin = maxmin_index(out.per_flow_mbps);
  return out;
}

// --- Experiment 7: million-flow FlowTable scaling (DESIGN.md §14) --------------

namespace {

/// Distinct 5-tuples for flow rank `i` (legit) and attack index `j`, in
/// disjoint address spaces so a SYN flood never collides with a real flow.
net::FiveTuple exp7_flow(std::uint32_t i) {
  net::FiveTuple t;
  t.src_ip = 0x0A000000u + i;  // 10.0.0.0/8 — room for 16M+ distinct flows
  t.dst_ip = net::ipv4(10, 200, 0, 1);
  t.src_port = static_cast<std::uint16_t>(1024 + (i & 0x3FFF));
  t.dst_port = 443;
  t.protocol = 6;
  return t;
}

net::FiveTuple exp7_attack(std::uint32_t j) {
  net::FiveTuple t;
  t.src_ip = 0xC0000000u + j;  // spoofed source block, disjoint from legit
  t.dst_ip = net::ipv4(10, 200, 0, 1);
  t.src_port = static_cast<std::uint16_t>(j & 0xFFFF);
  t.dst_port = 443;
  t.protocol = 6;
  return t;
}

/// Zipf(≈1)-ranked flow pick over [0, n): rank ≈ n^u visits rank 0 hardest
/// with a heavy tail — the classic flow-popularity shape. Closed-form so the
/// pregeneration pass stays cheap even at 16M flows.
std::uint32_t exp7_zipf(Rng& rng, std::size_t n) {
  const double r = std::pow(static_cast<double>(n), rng.uniform01());
  const auto idx = static_cast<std::size_t>(r) - 1;
  return static_cast<std::uint32_t>(std::min(idx, n - 1));
}

/// One pregenerated steady-phase op. kind: 0 = lookup of flow `arg`,
/// 1 = insert of new legit flow `arg`, 2 = insert of attack tuple `arg`.
struct Exp7Op {
  std::uint8_t kind;
  std::uint32_t arg;
};

}  // namespace

FlowScaleResult run_flow_scale_trial(const FlowScaleOptions& opt) {
  using Clock = std::chrono::steady_clock;
  const auto ns_between = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
  };

  FlowScaleResult out;
  const std::size_t n = std::max<std::size_t>(opt.concurrent_flows, 1);

  // Pregenerate the steady op stream so neither RNG nor pow() cost pollutes
  // the timed region, and both tables replay the identical stream.
  Rng rng(opt.seed);
  std::vector<Exp7Op> ops(opt.steady_ops);
  std::uint32_t next_new = static_cast<std::uint32_t>(n);
  std::uint32_t next_attack = 0;
  const std::size_t hot = std::max<std::size_t>(n / 100, 1);
  for (auto& op : ops) {
    switch (opt.mix) {
      case FlowScaleOptions::Mix::kZipf:
        op = {0, exp7_zipf(rng, n)};
        break;
      case FlowScaleOptions::Mix::kFlashCrowd: {
        const auto r = rng.uniform(10);
        if (r < 8) {
          op = {0, exp7_zipf(rng, hot)};  // the crowd hammers the hot set
        } else if (r < 9) {
          op = {0, static_cast<std::uint32_t>(rng.uniform(n))};
        } else {
          op = {1, next_new++};  // new arrivals being learned
        }
        break;
      }
      case FlowScaleOptions::Mix::kSynFlood:
        op = rng.uniform(2) == 0 ? Exp7Op{2, next_attack++}
                                 : Exp7Op{0, exp7_zipf(rng, n)};
        break;
    }
  }

  // Both tables start cold at the default 4096-entry hint: the populate
  // phase grows them the whole way to the resident set, which is exactly
  // where the resize pauses live.
  net::FlowTable v1(4096, opt.idle_timeout);
  net::FlowTableV2 v2(4096, opt.idle_timeout);
  std::size_t v1_rehashes = 0;
  v1.set_resize_hook(
      [&v1_rehashes](const net::FlowResizeEvent&) { ++v1_rehashes; });

  Nanos now = 0;
  // Populate: every insert timed individually so a stop-the-world rehash
  // shows up as one fat sample, not an average. Thread-CPU clock: see the
  // FlowScaleResult doc — wall-clock maxima on shared vCPUs measure
  // hypervisor steal, not the table.
  const auto thread_ns = [] {
    timespec ts;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
  };
  std::vector<std::uint32_t> pop_samples(n);
  const auto pop_start = Clock::now();
  for (std::uint32_t i = 0; i < n; ++i) {
    const net::FiveTuple t = exp7_flow(i);
    const int vri = static_cast<int>(i % static_cast<std::uint32_t>(opt.vris));
    const auto t0 = thread_ns();
    if (opt.v2) {
      v2.insert(t, vri, now);
    } else {
      v1.insert(t, vri, now);
    }
    const auto dt = thread_ns() - t0;
    pop_samples[i] = static_cast<std::uint32_t>(
        std::min<std::int64_t>(dt, 0xFFFFFFFF));
    out.max_insert_pause_ns = std::max(out.max_insert_pause_ns, dt);
    now += 100;  // populate models a ramp, not one instant
  }
  out.populate_ns_per_insert =
      static_cast<double>(ns_between(pop_start, Clock::now())) /
      static_cast<double>(n);
  std::sort(pop_samples.begin(), pop_samples.end());
  out.populate_p99_ns = static_cast<double>(
      pop_samples[static_cast<std::size_t>(
          0.99 * static_cast<double>(pop_samples.size() - 1))]);
  out.populate_p999_ns = static_cast<double>(
      pop_samples[static_cast<std::size_t>(
          0.999 * static_cast<double>(pop_samples.size() - 1))]);
  out.flows = opt.v2 ? v2.size() : v1.size();

  // Steady phase: replay the pregenerated stream, timing every op. The v2
  // path calls gc_tick before each probe, as a user of the table must — the
  // wheel's background work is part of its honest per-op cost.
  std::vector<std::uint32_t> samples(ops.size());
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  const auto steady_start = Clock::now();
  for (std::size_t k = 0; k < ops.size(); ++k) {
    const Exp7Op op = ops[k];
    const net::FiveTuple t =
        op.kind == 2 ? exp7_attack(op.arg) : exp7_flow(op.arg);
    const int vri =
        static_cast<int>(op.arg % static_cast<std::uint32_t>(opt.vris));
    const auto t0 = Clock::now();
    if (opt.v2) {
      if (op.kind == 0) {
        v2.gc_tick(now);
        hits += v2.lookup(t, now).has_value();
        ++lookups;
      } else {
        v2.insert(t, vri, now);
      }
    } else {
      if (op.kind == 0) {
        hits += v1.lookup(t, now).has_value();
        ++lookups;
      } else {
        v1.insert(t, vri, now);
      }
    }
    const auto dt = ns_between(t0, Clock::now());
    samples[k] = static_cast<std::uint32_t>(
        std::min<std::int64_t>(dt, 0xFFFFFFFF));
    out.max_op_ns = std::max(out.max_op_ns, dt);
    now += opt.op_gap;
  }
  const auto steady_ns = ns_between(steady_start, Clock::now());
  out.steady_ns_per_op =
      static_cast<double>(steady_ns) / static_cast<double>(ops.size());
  out.steady_kfps = out.steady_ns_per_op > 0.0
                        ? 1e6 / out.steady_ns_per_op
                        : 0.0;
  out.hit_rate = lookups ? static_cast<double>(hits) /
                               static_cast<double>(lookups)
                         : 0.0;

  std::sort(samples.begin(), samples.end());
  const auto pct = [&samples](double q) {
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(samples.size() - 1));
    return static_cast<double>(samples[idx]);
  };
  if (!samples.empty()) {
    out.p50_op_ns = pct(0.50);
    out.p99_op_ns = pct(0.99);
    out.p999_op_ns = pct(0.999);
  }

  // End state + the §13 drain path: evict one VRI's pinned flows.
  out.final_size = opt.v2 ? v2.size() : v1.size();
  out.final_slots = opt.v2 ? v2.capacity() : v1.bucket_count();
  out.expired = opt.v2 ? v2.expired_total() : 0;
  out.resizes = opt.v2 ? static_cast<std::size_t>(v2.resizes_completed())
                       : v1_rehashes;
  const auto ev0 = Clock::now();
  out.evicted = opt.v2 ? v2.evict_vri(0) : v1.evict_vri(0);
  out.evict_vri_us =
      static_cast<double>(ns_between(ev0, Clock::now())) / 1e3;
  return out;
}

std::vector<int> frame_size_sweep() {
  return {84, 200, 400, 700, 1000, 1200, 1538};
}

}  // namespace lvrm::exp
