// config.hpp — configuration of LVRM and of each hosted VR.
//
// Defaults mirror Sec 4.1's "Default implementation of LVRM": PF_RING socket
// adapter, dynamic core allocation with fixed thresholds, frame-based
// join-the-shortest-queue balancing, 1-second re-allocation period.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "lvrm/types.hpp"
#include "net/ip.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "sim/costs.hpp"
#include "sim/topology.hpp"

namespace lvrm {

/// Health-monitoring layer (heartbeats + fail-slow watchdog). Disabled by
/// default so the stock Sec 3.2 supervision (the 1 s allocation pass) is the
/// baseline; every existing experiment is bit-for-bit unchanged with it off.
/// The probe period, heartbeat timeout and fail-slow thresholds are fixed
/// constants (health_monitor.hpp), not knobs.
struct HealthConfig {
  bool enabled = false;
};

/// Overload-resilience ladder (DESIGN.md §13): a per-VR backpressure
/// controller that escalates normal -> adaptive per-flow sampling shed ->
/// RX-side admission control, plus the reset-free VRI drain path. Disabled
/// by default: with `enabled = false` no controller state is touched, no
/// metric is registered and every output is byte-identical to the seed.
/// The controller's watermark, cadence, pressure pair, rate floor and
/// admission streak are fixed constants (DESIGN.md §13), not knobs.
struct OverloadConfig {
  bool enabled = false;
};

/// State-compute replication (DESIGN.md §16): lets a single hot flow of a
/// *stateful* VR scale past one VRI. When a flow's measured rate crosses the
/// elephant threshold, the dispatcher "sprays" its frames across all healthy
/// VRIs; every state change the owning routers make rides the existing
/// control rings to the siblings as StateDelta records, and a TX-side
/// per-flow sequencer releases frames in dispatch order so the external
/// output is never reordered. Disabled by default: no detector state, no
/// metric is registered, every frame field stays 0 and outputs are
/// byte-identical to the seed (same rollout discipline as
/// `overload_control` / `tracing`). The detector's threshold and window and
/// the sequencer's reorder window are fixed constants (DESIGN.md §16), not
/// knobs.
struct StateReplicationConfig {
  bool enabled = false;
};

struct LvrmConfig {
  AdapterKind adapter = AdapterKind::kPfRing;
  AllocatorKind allocator = AllocatorKind::kDynamicFixedThreshold;
  BalancerKind balancer = BalancerKind::kJoinShortestQueue;
  BalancerGranularity granularity = BalancerGranularity::kFrame;
  EstimatorKind estimator = EstimatorKind::kQueueLength;
  AffinityPolicy affinity = AffinityPolicy::kSibling;

  /// Core the LVRM process itself is pinned to. With `dispatch_shards` > 1
  /// this is shard 0's core; later shards are pinned by `shard_core(s)`.
  sim::CoreId lvrm_core = 0;

  /// Number of LVRM dispatcher shards (DESIGN.md §11). Each shard owns its
  /// own socket-adapter RX ring, flow tables, load balancers, and poll loop
  /// pinned to its own core; an RSS-style hash of the frame's flow key
  /// steers every frame of a flow to the same shard, so the paper's flow
  /// affinity (and per-flow ordering) holds end to end. Default 1 is the
  /// paper's single-dispatcher gateway, bit-identical to the unsharded
  /// code path.
  int dispatch_shards = 1;

  /// Minimum interval between core (de)allocation passes (Sec 3.2: "we set
  /// the period to be 1 second, while this parameter is tunable").
  Nanos realloc_period = sec(1);

  /// Weight of the Fig 3.4 EWMA recurrences.
  double ewma_weight = 7.0;

  /// Upper bound on VRIs per VR (the testbed has 7 cores besides LVRM's).
  int max_vris_per_vr = 7;

  /// Frames drained per poll-loop pass from the RX ring and from each VRI's
  /// outgoing queue. Larger batches amortize the loop but delay control
  /// events and (for TX) can reorder frames balanced across VRIs — see the
  /// dispatch ablation bench.
  std::size_t poll_batch = sim::costs::kPollBatch;

  /// Idle-VRI work stealing over the MPMC link fabric (DESIGN.md §17): a
  /// VRI with nothing to serve steals ingress frames from an overloaded
  /// same-VR sibling — only unpinned (frame-granularity or sprayed) frames,
  /// so flow pinning and the §16 sequencer keep external order exact. Off
  /// by default; no hook is installed and outputs are byte-identical with
  /// it off.
  bool work_stealing = false;

  /// Seed for the random balancer, allocation-jitter and kernel-migration
  /// draws; everything is deterministic given the seed.
  std::uint64_t seed = 1;

  /// Health monitoring & fault tolerance (heartbeats, fail-slow watchdog,
  /// quarantine-and-respawn, stranded-frame re-dispatch).
  HealthConfig health;

  /// Graceful-degradation ladder + reset-free drain (DESIGN.md §13).
  OverloadConfig overload_control;

  /// Telemetry layer (DESIGN.md §10): metrics registry, latency sampling,
  /// decision audit trail, exporters. Enabled by default — the hot-path
  /// cost is bounded by the bench_hotpath CI gate (<3%); set
  /// `telemetry.enabled = false` to remove even that.
  obs::TelemetryConfig telemetry;

  /// Frame-level path tracing, flight recorder and load-adaptive sampling
  /// (DESIGN.md §15). Off by default: no Tracer is created, the hot path
  /// pays one pointer null check, and every output is byte-identical to
  /// the seed (same rollout discipline as `overload_control`).
  obs::TracingConfig tracing;

  /// State-compute replication for stateful VRs (DESIGN.md §16).
  StateReplicationConfig state_replication;
};

struct VrConfig {
  std::string name = "vr";

  /// Source subnets owned by this VR: a frame whose source address falls in
  /// one of them is dispatched to this VR (Sec 2.1 workflow step 2).
  std::vector<net::Prefix> subnets;

  VrKind kind = VrKind::kCpp;

  /// Route map (parse_route_map format); empty selects default_route_map().
  std::string route_map;

  /// Artificial per-frame processing load, e.g. the experiments' 1/60 ms.
  Nanos dummy_load = 0;

  /// Scales all per-frame processing cost; Exp 2e uses 2.0 for the slow VR
  /// (service-rate ratio 1:2).
  double service_multiplier = 1.0;

  /// VRIs activated at start(). The fixed allocator keeps exactly this
  /// many; dynamic allocators treat it as the starting point (normally 1).
  int initial_vris = 1;

  /// Hand-written Click configuration for this VR (Click VRs only). Empty
  /// selects the generated minimal forwarder. Must declare a FromHost named
  /// "in" and at least one ToHost; a LookupIPRoute named "rt" participates
  /// in dynamic route updates.
  std::string click_script;

  // --- stateful-VR parameters (kNat / kFirewall / kRateLimit) -----------
  // The stateful kinds are decorators over a stateless forwarding engine;
  // `inner_kind` picks it (kCpp or kClick — click_script above applies to
  // the inner engine too). See docs/VR_AUTHORING.md.

  /// Forwarding engine a stateful VR wraps. Ignored by kCpp/kClick.
  VrKind inner_kind = VrKind::kCpp;

  /// kNat: external (translated) source address; 0 selects 192.0.2.1.
  net::Ipv4Addr nat_external_ip = 0;

  /// kNat: first port and size of the external port pool.
  std::uint16_t nat_port_base = 20000;
  std::uint16_t nat_port_count = 4096;

  /// kRateLimit: per-flow token refill rate (frames/s) and bucket depth.
  double rate_limit_fps = 30'000.0;
  double rate_limit_burst = 64.0;
};

}  // namespace lvrm
