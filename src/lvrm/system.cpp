#include "lvrm/system.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <map>
#include <optional>

#include "common/log.hpp"
#include "net/flow.hpp"
#include "net/state_record.hpp"
#include "sim/callback.hpp"
#include "sim/costs.hpp"
#include "vr/factory.hpp"
#include "vr/stateful.hpp"

namespace lvrm {

namespace costs = sim::costs;
using sim::CostCategory;

/// output_if value a stateful VR sets when its admission step refuses a
/// frame (vs. -1, a routing miss). Aliased here so the drop site does not
/// spell the nested name next to locals called `vr`.
constexpr std::int32_t kPolicyDropIf = vr::StatefulVrBase::kPolicyDrop;

// --- fixed policy constants ------------------------------------------------------

// Degradation ladder (DESIGN.md §13). The pressure pair it escalates and
// relaxes on is obs::kEscalatePressure / kRelaxPressure, shared with the §15
// tracing controller.
/// A dispatched frame whose *chosen* data queue sits at or above this
/// fraction of capacity counts as "pressured" in the adaptation window.
constexpr double kSampleWatermark = 0.5;
/// Adaptation cadence: the ladder re-evaluates window pressure at most once
/// per period. Much shorter than the 1 s allocation pass: sampling is
/// reversible and bias-corrected, so reacting inside a flash crowd's rise
/// time is safe where core re-allocation is not.
constexpr Nanos kAdaptPeriod = msec(1);
/// Consecutive escalations before RX-side admission control (level 2)
/// engages — sustained pressure, not one bursty window.
constexpr int kAdmissionAfter = 2;
/// Salt decorrelating the sampling-subset hash from the RSS shard hash and
/// the flow-table hash (all three key on the same 5-tuple).
constexpr std::uint64_t kSubsetSalt = 0x9e3779b97f4a7c15ull;

/// The §13 pressure signal, read by the ladder and by the §15 tracer.
static bool pressured(const sim::BoundedQueue<net::FrameMeta>& q) {
  return q.size() >= static_cast<std::size_t>(
                         kSampleWatermark * static_cast<double>(q.capacity()));
}

// State replication (DESIGN.md §16).
/// A flow is an elephant when its rate inside one detection window exceeds
/// this fraction of kPerVriCapacityFps — i.e. when it alone occupies
/// this share of the core it is pinned to.
constexpr double kElephantFraction = 0.5;
/// Length of the windows the heavy-hitter detector counts frames over.
constexpr Nanos kDetectWindow = msec(5);
/// Floor on frames-per-window before a flow can be promoted, so tiny
/// capacity configurations don't promote mice off a handful of frames.
constexpr std::uint64_t kMinElephantFrames = 64;
/// Max out-of-order frames the TX sequencer holds per sprayed flow before
/// force-releasing (a safety valve, counted when it fires).
constexpr std::size_t kReorderWindow = 1024;

/// Minimum victim backlog (queued frames) before an idle §17 VRI steals
/// from a sibling: stealing the last few frames of a near-empty queue costs
/// more coherence traffic than it saves.
constexpr std::size_t kStealMinBacklog = 8;
/// Re-poll period of an idle §17 thief while a victim still holds backlog.
/// The timer dies as soon as the backlog does, so a quiescing simulation
/// still terminates.
constexpr Nanos kStealPollPeriod = usec(5);

// --- internal structures --------------------------------------------------------

/// VRI adapter + LVRM adapter + the VRI process itself: queues, estimator,
/// service-rate measurement, and the poll loop pinned to the VRI's core.
struct LvrmSystem::VriSlot {
  int vr_id = -1;
  int index = -1;
  bool active = false;
  sim::CoreId core_id = sim::kNoCore;
  Nanos cold_until = 0;  // post-migration cold-cache window (default policy)

  std::unique_ptr<FrameQueue> data_in;
  std::unique_ptr<FrameQueue> data_out;
  std::unique_ptr<FrameQueue> ctrl_in;
  std::unique_ptr<FrameQueue> ctrl_out;
  std::unique_ptr<FrameServer> server;
  std::unique_ptr<VirtualRouter> router;
  std::unique_ptr<LoadEstimator> estimator;

  /// Sec 3.6: the LVRM adapter estimates the VRI's service rate from the
  /// time between consecutive fromLVRM() calls; here: EWMA of per-frame
  /// service cost, inverted into frames/s on demand.
  AlphaEwma service_time{0.2};

  std::uint64_t forwarded = 0;  // frames egressed after this VRI served them
  bool crashed = false;
  /// Reset-free drain quiesce in flight (DESIGN.md §13): the server is
  /// stopped but the slot keeps accepting pinned-flow frames until the
  /// in-service frame has egressed — then the backlog migrates atomically.
  bool draining = false;

  /// Dispatcher shard owning this slot's LVRM-side queue ends (control
  /// relay + TX drain) and anchoring its core placement (DESIGN.md §11).
  int home_shard = 0;
  /// NUMA distance of the current core pick relative to the home shard.
  NumaTier numa_tier = NumaTier::kNone;

  // Fault-injection / health state (robustness layer).
  bool hung = false;            // process alive but frozen (never reaped)
  double degrade = 1.0;         // injected service-cost multiplier
  double ctrl_loss_prob = 0.0;  // injected control-relay drop probability
  bool suspect = false;         // inside the fail-slow grace window
  bool needs_rebuild = false;   // next activation forks a fresh process

  /// Ingress link, then the two control rings (create_slot_segments).
  queue::SegmentId shm_ids[3] = {queue::kInvalidSegment, queue::kInvalidSegment,
                                 queue::kInvalidSegment};
  sim::EventId migration_event = sim::kInvalidEvent;

  // §17 work stealing. The input index lets a thief repair the victim
  // server's hint after an external pop; `steal_timer_armed` dedups the
  // idle re-poll timer.
  std::size_t data_in_input = 0;  // data_in's index on this slot's server
  bool steal_timer_armed = false;
};

/// §16 TX sequencer state for one sprayed flow: frames may complete on any
/// VRI, so TX release is keyed by the spray sequence number stamped at
/// dispatch. `held` parks out-of-order completions (nullopt = a tombstone
/// for a frame that dropped in flight, so the gap it leaves releases).
struct LvrmSystem::SeqOut {
  std::uint32_t next = 0;  // next sequence number eligible to egress
  // Held positions ahead of the cursor: a frame waiting for its turn, or a
  // nullopt tombstone for a position whose frame was dropped. Tombstones
  // hold no frame, so only `live` counts against the reorder window — under
  // overload a deep queue legitimately accumulates thousands of tombstoned
  // positions (dropped at enqueue, resolved only once the cursor crawls
  // past) without a single frame being held.
  std::map<std::uint32_t, std::optional<net::FrameMeta>> held;
  std::size_t live = 0;  // held entries that carry a frame
  Nanos last_activity = 0;
};

/// VR monitor state: configuration, the VRI monitor's dispatcher, and the
/// EWMA arrival-rate measurement driving core allocation.
struct LvrmSystem::VrState {
  int id = -1;
  VrConfig cfg;
  std::vector<std::unique_ptr<VriSlot>> slots;
  std::vector<int> active_order;  // activation order; destroy pops the back
  /// One dispatcher per shard (index == shard id): flow tables are
  /// partitioned by the ingress shard hash, so shards never share balancer
  /// state. dispatchers[0] is the paper's single dispatcher.
  std::vector<std::unique_ptr<Dispatcher>> dispatchers;

  /// Summed per-shard dispatcher counters (gauges and audit summaries).
  DispatchStats dispatch_stats() const {
    DispatchStats total;
    for (const auto& d : dispatchers) total += d->stats();
    return total;
  }
  PaperEwma arrival_gap{7.0};
  Nanos last_arrival = -1;
  Nanos pipeline_latency = 0;
  std::uint64_t frames_in = 0;
  /// This VR's share of the drop ledger (note_drop).
  DropTally drops{};

  // Balancer-summary deltas between allocation passes (audit trail; see
  // DESIGN.md §10).
  std::uint64_t summary_decisions = 0;
  std::uint64_t summary_hits = 0;

  // Degradation ladder (DESIGN.md §13; all zero/normal unless
  // `overload_control.enabled`). The window counters drive the pressure
  // measurement that escalates or relaxes the sampling rate.
  OverloadLevel level = OverloadLevel::kNormal;
  double sample_rate = 1.0;   // fraction of flows admitted past the subset
  int escalations = 0;        // consecutive escalating windows
  Nanos win_start = -1;       // current adaptation window's start
  std::uint64_t win_frames = 0;     // frames seen this window
  std::uint64_t win_pressured = 0;  // of those, arrivals at a hot queue
  /// Bias-corrected offered-load estimate: +1/rate per subset-passing frame.
  double offered_estimate = 0.0;

  /// Every dynamic route update applied since start, in order; replayed into
  /// respawned VRIs so a fresh process starts consistent with its siblings.
  std::vector<route::RouteUpdate> route_log;

  // §16 state replication (touched only when state_replication.enabled).
  /// One sprayed (or spray-pending) flow. Pending frames are stamped with
  /// spray metadata but stay pinned to the owner — every unstamped frame of
  /// the flow is already FIFO-ahead of them in the owner's queue, so the
  /// transition cannot reorder. Active frames pick per-frame by load.
  struct SprayState {
    enum class Phase : std::uint8_t { kPending, kActive };
    Phase phase = Phase::kPending;
    std::uint32_t id = 0;         // spray-flow id; keys the TX sequencer
    int owner = -1;               // VRI that owned the pin at promotion
    int shard = 0;                // dispatch shard steering the flow
    std::uint32_t next_seq = 0;   // next spray sequence number to stamp
    std::uint64_t frames = 0;     // frames sprayed over the lifetime
    Nanos last_frame = 0;         // idle-expiry clock
    double rate_fps = 0.0;        // detected rate at promotion
  };
  std::unordered_map<net::FiveTuple, SprayState, net::TupleHash> sprays;
  /// TX sequencers, keyed by spray-flow id — NOT the 5-tuple: a NAT VR
  /// rewrites the tuple in flight, so the dispatch-side tuple no longer
  /// matches the frame at TX. The stamped id survives translation.
  std::unordered_map<std::uint32_t, SeqOut> seq_out;
  /// Heavy-hitter detection: fixed hash-indexed per-window frame counts.
  /// Collisions can only over-count (promote early), never miss a true
  /// elephant, so a fixed array is safe at any flow count.
  static constexpr std::size_t kHhSlots = 512;
  std::array<std::uint64_t, kHhSlots> hh_counts{};
  std::array<std::uint64_t, kHhSlots> hh_window{};

  /// Healthy-pool generation mirrored into every shard dispatcher (seeded
  /// to 1 in add_vr — 0 means cache-off standalone semantics).
  std::uint64_t pool_generation = 1;
};

// --- construction -----------------------------------------------------------------

LvrmSystem::LvrmSystem(sim::Simulator& sim, const sim::CpuTopology& topo,
                       LvrmConfig config)
    : sim_(sim), topo_(topo), config_(config), rng_(config.seed) {
  stealing_ = config_.work_stealing;
  for (sim::CoreId c = 0; c < topo_.total_cores(); ++c)
    cores_.push_back(
        std::make_unique<sim::Core>(sim_, c, costs::kContextSwitch));
  core_used_.assign(static_cast<std::size_t>(topo_.total_cores()), false);
  core_used_[static_cast<std::size_t>(config_.lvrm_core)] = true;

  // The dispatch plane (DESIGN.md §11): shard 0 is the paper's single LVRM
  // process; further shards replicate the adapter + RX ring + poll loop on
  // their own cores, spread round-robin across sockets.
  const int n_shards = std::max(1, config_.dispatch_shards);
  auto adapters = make_adapters(config_.adapter, n_shards);
  shards_.reserve(static_cast<std::size_t>(n_shards));
  for (int s = 0; s < n_shards; ++s) {
    DispatchShard shard;
    shard.id = s;
    shard.core_id = s == 0 ? config_.lvrm_core : pick_shard_core(s);
    shard.adapter = std::move(adapters[static_cast<std::size_t>(s)]);
    const std::string suffix = s == 0 ? "" : "/s" + std::to_string(s);
    shard.rx_ring = std::make_unique<FrameQueue>(
        shard.adapter->ring_capacity(), "rx-ring" + suffix);
    shard.server = std::make_unique<FrameServer>(
        sim_, core(shard.core_id), /*owner=*/s, "lvrm" + suffix,
        costs::kPollDiscovery);
    shards_.push_back(std::move(shard));
  }

  allocator_ = make_allocator(config_.allocator, kPerVriCapacityFps);
  if (config_.health.enabled)
    health_ = std::make_unique<HealthMonitor>();

  if (config_.telemetry.enabled)
    telemetry_ = std::make_unique<obs::Telemetry>();
  replication_ = config_.state_replication.enabled;

  // §15 tracing: per-shard flight recorders + adaptive span sampling. The
  // trace gauges are registered only when this exists (register_metrics),
  // so tracing-off exports stay byte-identical.
  if (config_.tracing.enabled)
    tracer_ = std::make_unique<obs::Tracer>(config_.tracing, n_shards);

  // The RX ring and each VRI's outgoing queue are drained in bursts of
  // poll_batch (PF_RING-style batched polls); control queues are serviced
  // per item at higher priority. `shards_` is never resized after
  // construction, so the captured shard pointers stay valid.
  for (DispatchShard& shard : shards_) {
    DispatchShard* sh = &shard;
    shard.server->add_input(
        *shard.rx_ring, /*priority=*/1,
        [this, sh](net::FrameMeta& f) { return rx_cost(f, *sh); },
        [this](net::FrameMeta&& f) { rx_sink(std::move(f)); },
        shard.adapter->recv_category(), config_.poll_batch);
  }

  // §17 MPMC fabric: TX is ONE per-home-shard MPMC link all of that shard's
  // slots feed, instead of one drain ring per (shard, VRI) pair. In the
  // simulation the per-slot BoundedQueues stand for the link's per-producer
  // claimed segments (each producer's burst occupies a contiguous claimed
  // sub-region, so per-producer FIFO sub-queues model the link exactly).
  for (DispatchShard& shard : shards_)
    shard.tx_link_shm =
        arena_.create(costs::kDataQueueCapacity * sizeof(net::FrameMeta));
}

LvrmSystem::~LvrmSystem() {
  for (auto& vr : vrs_)
    for (auto& slot : vr->slots)
      if (slot->migration_event != sim::kInvalidEvent)
        sim_.cancel(slot->migration_event);
}

int LvrmSystem::add_vr(VrConfig vr_config) {
  assert(!started_ && "add_vr must be called before start()");
  auto vr = std::make_unique<VrState>();
  vr->id = static_cast<int>(vrs_.size());
  vr->arrival_gap = PaperEwma(config_.ewma_weight);
  vr->cfg = std::move(vr_config);
  if (vr->cfg.route_map.empty()) vr->cfg.route_map = default_route_map();
  if (vr->cfg.subnets.empty())
    vr->cfg.subnets.push_back(net::Prefix{net::ipv4(10, 1, 0, 0), 16});

  // One dispatcher per shard. Shard 0 keeps the historical seed so the
  // single-shard balancer stream is unchanged; later shards derive their
  // own independent streams.
  for (int s = 0; s < shard_count(); ++s) {
    vr->dispatchers.push_back(std::make_unique<Dispatcher>(
        make_balancer(config_.balancer,
                      config_.seed + 17 * static_cast<std::uint64_t>(vr->id) +
                          7919 * static_cast<std::uint64_t>(s)),
        config_.granularity));
    // Healthy-pool generation cache: the system owns the candidate set, so
    // it seeds a non-zero generation and bumps it on every health change.
    vr->dispatchers.back()->set_pool_generation(vr->pool_generation);
  }

  const int max_vris = std::max(config_.max_vris_per_vr, vr->cfg.initial_vris);
  for (int i = 0; i < max_vris; ++i) {
    auto slot = std::make_unique<VriSlot>();
    VriSlot* s = slot.get();
    VrState* v = vr.get();
    s->vr_id = vr->id;
    s->index = i;
    // Static home shard: owns this slot's LVRM-side queue ends. Spreading
    // by (vr, index) keeps each shard's TX/control load even; with one
    // shard this is always 0.
    s->home_shard = (vr->id + i) % shard_count();
    const std::string base =
        vr->cfg.name + "/vri" + std::to_string(i);
    s->data_in = std::make_unique<FrameQueue>(costs::kDataQueueCapacity,
                                              base + "/data-in");
    s->data_out = std::make_unique<FrameQueue>(costs::kDataQueueCapacity,
                                               base + "/data-out");
    s->ctrl_in = std::make_unique<FrameQueue>(costs::kControlQueueCapacity,
                                              base + "/ctrl-in");
    s->ctrl_out = std::make_unique<FrameQueue>(costs::kControlQueueCapacity,
                                               base + "/ctrl-out");
    create_slot_segments(*s);

    // The factory honors kind + click_script and wraps the stateful kinds
    // (NAT / firewall / rate limit) around their configured inner engine
    // (§16).
    s->router = make_configured_vr(vr->cfg, vr->cfg.route_map);
    if (i == 0) vr->pipeline_latency = s->router->pipeline_latency();
    s->estimator = make_estimator(config_.estimator, config_.ewma_weight);

    // The VRI's poll loop; parked on the LVRM core until activated (the
    // placement is decided at activation time by the affinity policy).
    s->server = std::make_unique<FrameServer>(
        sim_, lvrm_core(), /*owner=*/100 + vr->id * 16 + i, base,
        costs::kPollDiscovery);

    // Control queue first: higher priority than data (Sec 2.1).
    s->server->add_input(
        *s->ctrl_in, /*priority=*/0,
        [](net::FrameMeta& f) {
          // §16 state deltas ride the control rings but arrive per sprayed
          // frame, not per control event — charging them the full control
          // cost would saturate the sibling cores on delta traffic alone.
          if (f.kind == net::FrameKind::kStateDelta)
            return costs::kStateDeltaApply;
          return costs::kControlEventFixed +
                 static_cast<Nanos>(costs::kControlEventPerByte *
                                    f.wire_bytes);
        },
        [this](net::FrameMeta&& f) {
          const auto it = control_cbs_.find(f.id);
          if (it != control_cbs_.end()) {
            auto cb = std::move(it->second);
            control_cbs_.erase(it);
            if (cb) cb(sim_.now() - f.created_at);
          }
        },
        CostCategory::kUser);

    s->data_in_input = s->server->add_input(
        *s->data_in, /*priority=*/1,
        [this, s, v](net::FrameMeta& f) {
          if (f.obs_sampled) f.obs_svc_at = sim_.now();
          if (tracer_)
            tracer_->record(f.dispatch_shard, obs::TraceHop::kVriStart, f.id,
                            s->vr_id, s->index, sim_.now(), 0,
                            f.obs_sampled != 0);
          Nanos cost = costs::kDequeueCost;
          // The queue's producer is the shard that dispatched the frame
          // (carried in the frame); crossing its socket costs a cache-line
          // transfer per op, exactly as with the single dispatcher.
          const sim::CoreId producer =
              f.dispatch_shard >= 0
                  ? shards_[static_cast<std::size_t>(f.dispatch_shard)].core_id
                  : shards_[static_cast<std::size_t>(s->home_shard)].core_id;
          if (cross_socket(s->core_id, producer))
            cost += costs::kCrossSocketQueueOp;
          if (!s->router->process(f) && f.output_if != kPolicyDropIf)
            f.output_if = -1;  // routing miss (vs. a stateful policy refuse)
          const Nanos work = static_cast<Nanos>(
              static_cast<double>(s->router->process_cost(f) +
                                  v->cfg.dummy_load) *
              v->cfg.service_multiplier * s->degrade);
          cost += work + costs::kEnqueueCost;
          // §16: the stateful step may have changed per-flow state — relay
          // the queued deltas to the active siblings while the frame is
          // still in service (emit cost charged here, apply cost at the
          // sibling's ctrl_in).
          if (replication_ && f.sprayed && s->router->stateful())
            cost += static_cast<Nanos>(relay_deltas(*v, *s)) *
                    costs::kStateDeltaEmit;
          s->service_time.update(static_cast<double>(cost));
          return cost;
        },
        [this, s, v](net::FrameMeta&& f) {
          if (f.obs_sampled) f.obs_done_at = sim_.now();
          if (tracer_)
            tracer_->record(f.dispatch_shard, obs::TraceHop::kVriEnd, f.id,
                            s->vr_id, s->index, sim_.now(), 0,
                            f.obs_sampled != 0);
          if (f.output_if < 0) {
            note_drop(f, f.output_if == kPolicyDropIf ? DropCause::kVrPolicy
                                                      : DropCause::kNoRoute);
            return;
          }
          if (v->pipeline_latency > 0) {
            // The Click VR's internal Queue element delays the frame without
            // consuming extra CPU (Fig 4.6's higher latency).
            auto hand_off = [this, s, f] {
              push_or_note(*s->data_out, f, DropCause::kQueueFull);
            };
            // The largest per-frame capture; Callback's inline buffer is
            // sized for it.
            static_assert(sim::Callback::stores_inline<decltype(hand_off)>);
            sim_.after(v->pipeline_latency, std::move(hand_off));
          } else {
            push_or_note(*s->data_out, f, DropCause::kQueueFull);
          }
        },
        CostCategory::kUser);

    // LVRM-side inputs for this slot — control relay and TX — live on the
    // slot's home shard's poll loop (shard 0 with dispatch_shards=1).
    DispatchShard& home = shards_[static_cast<std::size_t>(s->home_shard)];
    home.server->add_input(
        *s->ctrl_out, /*priority=*/0,
        [this, s, &home](net::FrameMeta& f) {
          Nanos cost = costs::kDequeueCost + costs::kEnqueueCost +
                       static_cast<Nanos>(costs::kControlRelayPerByte *
                                          f.wire_bytes);
          if (cross_socket(s->core_id, home.core_id))
            cost += costs::kCrossSocketQueueOp;
          return cost;
        },
        [this, v](net::FrameMeta&& f) {
          // A lost control event is never counted: its delivery callback
          // is erased and never fires, which is what its sender observes.
          const int dst = f.dispatch_vri;
          if (dst < 0 || dst >= static_cast<int>(v->slots.size())) {
            control_cbs_.erase(f.id);
            return;
          }
          VriSlot& target = *v->slots[static_cast<std::size_t>(dst)];
          if (target.ctrl_loss_prob > 0.0 &&
              rng_.uniform01() < target.ctrl_loss_prob) {
            // Injected lossy control path: the event vanishes in transit.
            control_cbs_.erase(f.id);
            return;
          }
          if (!target.ctrl_in->push(f)) control_cbs_.erase(f.id);
        },
        CostCategory::kUser);

    home.server->add_input(
        *s->data_out, /*priority=*/1,
        [this, s, &home](net::FrameMeta& f) {
          Nanos cost = costs::kDequeueCost + home.adapter->send_cost(f);
          Nanos user_part = costs::kDequeueCost;
          if (cross_socket(s->core_id, home.core_id)) {
            cost += costs::kCrossSocketQueueOp;
            user_part += costs::kCrossSocketQueueOp;
          }
          if (home.adapter->send_category() != CostCategory::kUser)
            core(home.core_id)
                .reclassify(home.adapter->send_category(),
                            CostCategory::kUser, user_part);
          return cost;
        },
        [this, v](net::FrameMeta&& f) {
          // TX completion: the frame leaves the IPC plane here. Sprayed
          // frames (§16) detour through the per-flow sequencer, which
          // restores external arrival order before finish_tx releases them.
          f.gw_out_at = sim_.now();
          if (replication_ && f.sprayed) {
            sequence_tx(*v, std::move(f));
            return;
          }
          finish_tx(*v, std::move(f));
        },
        home.adapter->send_category(), config_.poll_batch);

    if (stealing_) {
      // Idle-VRI data-plane stealing (§17): when this slot's own queues are
      // dry its poll loop scans same-VR siblings for unpinned backlog.
      s->server->set_idle_hook(
          [this, v, s] { return try_vri_steal(*v, *s); });
    }

    vr->slots.push_back(std::move(slot));
  }

  vrs_.push_back(std::move(vr));
  return static_cast<int>(vrs_.size()) - 1;
}

void LvrmSystem::start() {
  assert(!started_);
  started_ = true;
  if (telemetry_) register_metrics();
  for (auto& vr : vrs_) {
    const int initial = std::max(1, vr->cfg.initial_vris);
    for (int i = 0; i < initial; ++i) activate_vri(*vr);
  }
  for (auto& shard : shards_) shard.server->start();
}

// --- data path ----------------------------------------------------------------------

int LvrmSystem::shard_of(const net::FrameMeta& frame) const {
  if (shards_.size() == 1) return 0;
  // RSS-style steering: the same 5-tuple hash the flow table keys on, so
  // every frame of a flow lands on one shard and per-flow order holds.
  return static_cast<int>(net::hash_tuple(net::FiveTuple::from_frame(frame)) %
                          shards_.size());
}

bool LvrmSystem::ingress(net::FrameMeta frame) {
  frame.gw_in_at = sim_.now();
  // Level-2 admission control (DESIGN.md §13): while any VR sits at
  // kAdmission, its out-of-subset flows are rejected here — before a ring
  // entry is consumed. One int compare when the ladder is idle, so the
  // ingress cost is unchanged with the feature off.
  if (admission_active_ > 0 && admission_reject(frame)) return false;
  const int s = shard_of(frame);
  frame.dispatch_shard = static_cast<std::int16_t>(s);
  DispatchShard& shard = shards_[static_cast<std::size_t>(s)];
  if (!push_or_note(*shard.rx_ring, frame, DropCause::kRxRingFull))
    return false;
  ++shard.rx_admitted;
  if (tracer_)
    tracer_->record(s, obs::TraceHop::kRxIngress, frame.id, frame.dispatch_vr,
                    -1, frame.gw_in_at,
                    static_cast<std::uint32_t>(frame.wire_bytes));
  return true;
}

LvrmSystem::VrState& LvrmSystem::classify(net::FrameMeta& frame) {
  // "LVRM inspects the source IP address of the data frame, and determines
  // the VR that will process the data frame" (Sec 2.1). Unmatched frames
  // fall back to VR 0 so the single-VR experiments need no subnet setup.
  for (auto& vr : vrs_) {
    for (const auto& prefix : vr->cfg.subnets) {
      if (net::in_prefix(frame.src_ip, prefix.network, prefix.length)) {
        frame.dispatch_vr = static_cast<std::int16_t>(vr->id);
        return *vr;
      }
    }
  }
  frame.dispatch_vr = 0;
  return *vrs_.front();
}

Nanos LvrmSystem::rx_cost(net::FrameMeta& frame, DispatchShard& shard) {
  VrState& vr = classify(frame);
  const Nanos now = sim_.now();
  // §15: the RX-serve stamp completes the gw_in -> rx -> enq -> svc -> tx
  // hop timeline; one gated store per frame, never read by decision logic.
  if (tracer_) frame.obs_rx_at = now;
  if (vr.last_arrival >= 0) {
    const Nanos gap = now - vr.last_arrival;
    if (gap > 0) vr.arrival_gap.update(static_cast<double>(gap));
  }
  vr.last_arrival = now;
  ++vr.frames_in;

  Nanos cost = shard.adapter->recv_cost(frame) + costs::kClassifyCost +
               costs::kDispatchFixed;
  Nanos user_part = costs::kClassifyCost + costs::kDispatchFixed;

  // Fig 3.4 "estimate: called upon receipt of a packet": each VRI adapter
  // observes its current queue, then Fig 3.3's "get estimate" feeds JSQ.
  views_scratch_.clear();
  for (int idx : vr.active_order) {
    VriSlot& s = *vr.slots[static_cast<std::size_t>(idx)];
    s.estimator->on_packet_observed(s.data_in->size(), now);
    views_scratch_.push_back(
        VriView{idx, s.estimator->load_at(now), s.suspect});
  }
  if (views_scratch_.empty()) {
    frame.dispatch_vri = -1;
    return cost;
  }

  Dispatcher& disp = *vr.dispatchers[static_cast<std::size_t>(shard.id)];
  int chosen = disp.dispatch(frame, views_scratch_, now);
  // §16: a detected elephant overrides its pin with a per-frame spray pick.
  if (replication_)
    chosen = maybe_spray(vr, shard, frame, views_scratch_, chosen, now);
  frame.dispatch_vri = static_cast<std::int16_t>(chosen);
  const Nanos decision =
      disp.decision_cost(views_scratch_.size(), disp.last_was_flow_hit());
  cost += decision + costs::kEnqueueCost;
  user_part += decision + costs::kEnqueueCost;

  const VriSlot& target = *vr.slots[static_cast<std::size_t>(chosen)];
  if (cross_socket(target.core_id, shard.core_id)) {
    cost += costs::kCrossSocketQueueOp;
    user_part += costs::kCrossSocketQueueOp;
  }
  if (now < target.cold_until) {
    cost += costs::kColdCacheSurcharge;
    user_part += costs::kColdCacheSurcharge;
  }

  // The whole task is charged to the adapter's recv category; move the
  // dispatch work to user time for the Fig 4.3 breakdown.
  if (shard.adapter->recv_category() != CostCategory::kUser)
    core(shard.core_id)
        .reclassify(shard.adapter->recv_category(), CostCategory::kUser,
                    user_part);
  return cost;
}

void LvrmSystem::rx_sink(net::FrameMeta&& frame) {
  // Fig 3.2: the allocation pass runs "upon receipt of a packet after 1s or
  // more from the previous core allocation/deallocation process".
  maybe_allocate();
  // The heartbeat pass rides the same poll loop but on its own (much
  // shorter) period, so faults are noticed well inside the 1 s window.
  maybe_health_probe();
  ++shards_[static_cast<std::size_t>(frame.dispatch_shard)].rx_served;
  // The snapshot tick piggybacks on the same loop: telemetry never needs
  // its own timer or thread.
  if (telemetry_) telemetry_->maybe_snapshot(sim_.now());

  if (frame.dispatch_vr < 0 || frame.dispatch_vri < 0) {
    note_drop(frame, DropCause::kUnclassified);
    return;
  }
  VrState& vr = *vrs_[static_cast<std::size_t>(frame.dispatch_vr)];
  VriSlot& slot = *vr.slots[static_cast<std::size_t>(frame.dispatch_vri)];
  if (!slot.active) {
    note_drop(frame, DropCause::kVriInactive);
    return;
  }
  if (config_.overload_control.enabled) {
    // Degradation ladder (DESIGN.md §13): adapt the VR's sampling rate on
    // window boundaries, then apply the level-1 per-flow sampling shed.
    overload_tick(vr, sim_.now());
    if (maybe_sample_shed(vr, slot, frame)) return;
  }
  if (tracer_) {
    // §15 load-adaptive sampling replaces the fixed §10 countdown. The
    // pressure signal is the same one the §13 ladder watches — the chosen
    // data queue at/above the sample watermark — so span resolution rises
    // when the pipeline is idle and backs off under overload.
    tracer_->observe_pressure(pressured(*slot.data_in), sim_.now());
    if (tracer_->should_sample()) {
      frame.obs_sampled = 1;
      frame.obs_enq_at = sim_.now();
    }
    tracer_->record(frame.dispatch_shard, obs::TraceHop::kDispatch, frame.id,
                    frame.dispatch_vr, frame.dispatch_vri, sim_.now(), 0,
                    frame.obs_sampled != 0);
  } else if (telemetry_ && telemetry_->should_sample()) {
    frame.obs_sampled = 1;
    frame.obs_enq_at = sim_.now();
  }
  if (!push_or_note(*slot.data_in, frame, DropCause::kQueueFull)) return;
  // Fig 3.4 "estimate": one sample per dispatched frame.
  slot.estimator->on_dispatch(slot.data_in->size(), sim_.now());
}

// --- degradation ladder (DESIGN.md §13) ---------------------------------------------

bool LvrmSystem::in_subset(const net::FrameMeta& f, double rate) const {
  if (rate >= 1.0) return true;
  // Deterministic per-flow subsetting: the same 5-tuple hash the flow table
  // and RSS steering key on, salted so the subset is independent of both.
  // Halving the rate always keeps a subset of the previous survivors, so
  // escalation never re-admits a flow it already shed.
  const std::uint64_t h =
      net::hash_tuple(net::FiveTuple::from_frame(f)) ^ kSubsetSalt;
  return static_cast<double>(h >> 32) < rate * 4294967296.0;
}

bool LvrmSystem::admission_reject(net::FrameMeta& frame) {
  // classify() is idempotent (rx_cost re-runs it on the admitted frames).
  VrState& vr = classify(frame);
  if (vr.level != OverloadLevel::kAdmission) return false;
  // The gate can be the only code still seeing this VR's frames (everything
  // outside the subset dies right here), so it must drive the adaptation
  // clock too — otherwise a fully-gated VR would never relax.
  overload_tick(vr, sim_.now());
  if (vr.level != OverloadLevel::kAdmission) return false;
  if (in_subset(frame, vr.sample_rate)) {
    // Record the gate's sampling rate in the frame: egress consumers divide
    // delivered counts by the recorded rate to bias-correct them back to
    // offered counts (DESIGN.md §13).
    frame.admit_rate = vr.sample_rate;
    return false;
  }
  // The reject runs *after* the cheap source-prefix classification, so the
  // offered tally stays exact even while the gate drops at ingress — unlike
  // a NIC-ring overflow, which loses frames before anything knows which VR
  // they belonged to.
  vr.offered_estimate += 1.0;
  note_drop(frame, DropCause::kAdmissionReject);
  return true;
}

bool LvrmSystem::maybe_sample_shed(VrState& vr, VriSlot& slot,
                                   net::FrameMeta& f) {
  ++vr.win_frames;
  if (pressured(*slot.data_in)) ++vr.win_pressured;
  // Every frame the sampler inspects is tallied before the shed decision:
  // level-1 drops happen with the frame in hand, so — together with the
  // admission gate's exact reject tally — the per-VR offered count stays
  // reconstructible to well under the Exp 6 five-percent bar no matter how
  // hard the ladder sheds.
  vr.offered_estimate += 1.0;
  if (vr.level == OverloadLevel::kNormal) return false;
  if (in_subset(f, vr.sample_rate)) {
    // Survivors record their end-to-end sampling rate: the hash subsets
    // nest (subset(r1) ∩ subset(r2) == subset(min(r1, r2))), so the min of
    // the admission-gate rate stamped at ingress and the current rate is
    // this frame's exact survival probability. Dividing per-flow delivered
    // counts by the recorded rate bias-corrects them back to offered
    // counts, however the ladder moved while the frame sat in a ring.
    f.admit_rate = std::min(f.admit_rate, vr.sample_rate);
    return false;
  }
  note_drop(f, DropCause::kSampledShed);
  return true;
}

void LvrmSystem::overload_tick(VrState& vr, Nanos now) {
  if (vr.win_start < 0) {
    vr.win_start = now;
    return;
  }
  if (now - vr.win_start < kAdaptPeriod) return;
  // An empty window is calm, not unknown: at a deep admission rung every
  // active flow can fall outside the subset, so no frame ever reaches the
  // sampler again — holding the rung on silence would deadlock the ladder.
  const double pressure = vr.win_frames == 0
                              ? 0.0
                              : static_cast<double>(vr.win_pressured) /
                                    static_cast<double>(vr.win_frames);
  if (pressure >= obs::kEscalatePressure) {
    ++vr.escalations;
    const double next = std::max(kMinSampleRate, vr.sample_rate * 0.5);
    const OverloadLevel level = vr.escalations >= kAdmissionAfter
                                    ? OverloadLevel::kAdmission
                                    : OverloadLevel::kSampling;
    if (level != vr.level || next != vr.sample_rate)
      set_overload_state(vr, level, next, pressure);
  } else if (pressure <= obs::kRelaxPressure) {
    vr.escalations = 0;
    if (vr.level == OverloadLevel::kAdmission) {
      // Step down one rung at a time: admission releases first, the
      // sampling rate recovers on the following calm windows.
      set_overload_state(vr, OverloadLevel::kSampling, vr.sample_rate,
                         pressure);
    } else if (vr.level == OverloadLevel::kSampling) {
      const double next = std::min(1.0, vr.sample_rate * 2.0);
      set_overload_state(vr,
                         next >= 1.0 ? OverloadLevel::kNormal
                                     : OverloadLevel::kSampling,
                         next, pressure);
    }
  } else {
    // Plateau: hold the rung; consecutive-escalation streak is broken.
    vr.escalations = 0;
  }
  vr.win_start = now;
  vr.win_frames = 0;
  vr.win_pressured = 0;
}

void LvrmSystem::set_overload_state(VrState& vr, OverloadLevel level,
                                    double rate, double pressure) {
  const OverloadLevel before = vr.level;
  if (level == OverloadLevel::kNormal) rate = 1.0;
  // The ingress admission gate stays zero-cost while no VR is at kAdmission.
  if (before != OverloadLevel::kAdmission &&
      level == OverloadLevel::kAdmission) {
    ++admission_active_;
    // §15 black box: the ladder reaching admission is an incident — dump
    // the flight recorders before the gate starts erasing the evidence.
    if (tracer_)
      trace_flight_dump(obs::FlightDumpCause::kAdmission, /*shard=*/-1,
                        vr.id, /*vri=*/-1);
  }
  if (before == OverloadLevel::kAdmission &&
      level != OverloadLevel::kAdmission)
    --admission_active_;
  vr.level = level;
  vr.sample_rate = rate;
  LVRM_CLOG(kShed, kInfo) << "vr=" << vr.id << " overload "
                          << to_string(before) << " -> " << to_string(level)
                          << " rate=" << rate << " pressure=" << pressure;
  if (telemetry_) {
    obs::AuditEvent e;
    e.time = sim_.now();
    e.until = e.time;
    e.kind = obs::AuditKind::kOverloadLevel;
    e.vr = static_cast<std::int16_t>(vr.id);
    e.rate = rate;
    e.threshold = pressure;
    e.a = static_cast<std::uint64_t>(level);
    e.b = static_cast<std::uint64_t>(before);
    e.c = vr.drops[static_cast<std::size_t>(DropCause::kSampledShed)] +
          vr.drops[static_cast<std::size_t>(DropCause::kAdmissionReject)];
    telemetry_->audit().record(e);
  }
}

// --- control events -------------------------------------------------------------------

void LvrmSystem::send_control(int vr_id, int src_vri, int dst_vri,
                              std::size_t bytes,
                              std::function<void(Nanos)> on_delivered,
                              net::FrameKind kind) {
  VrState& vr = *vrs_.at(static_cast<std::size_t>(vr_id));
  VriSlot& src = *vr.slots.at(static_cast<std::size_t>(src_vri));
  net::FrameMeta f;
  f.kind = kind;
  f.id = next_control_id_++;
  f.wire_bytes = static_cast<int>(bytes);
  f.created_at = sim_.now();
  f.dispatch_vr = static_cast<std::int16_t>(vr_id);
  f.dispatch_vri = static_cast<std::int16_t>(dst_vri);
  control_cbs_.emplace(f.id, std::move(on_delivered));
  if (!src.ctrl_out->push(f)) control_cbs_.erase(f.id);
}

void LvrmSystem::broadcast_route_update(int vr_id, int src_vri,
                                        const route::RouteUpdate& update,
                                        std::function<void(Nanos)> on_synced) {
  VrState& vr = *vrs_.at(static_cast<std::size_t>(vr_id));

  // The originator applies immediately; inactive siblings are updated in
  // place so a later activation starts from consistent state.
  for (auto& slot : vr.slots) {
    if (slot->index == src_vri || !slot->active)
      slot->router->apply_route_update(update);
  }

  // Logged so a respawned (fresh-process) VRI can replay every update it
  // would otherwise have missed — part of the Sec 2.1 routing-state sync.
  vr.route_log.push_back(update);

  sync_siblings(
      vr, src_vri, route::kRouteUpdateWireSize + 16,  // + header
      [update](VriSlot& sib) { sib.router->apply_route_update(update); },
      std::move(on_synced));
}

void LvrmSystem::sync_siblings(VrState& vr, int src, std::size_t bytes,
                               std::function<void(VriSlot&)> on_ack,
                               std::function<void(Nanos)> done) {
  struct Pending {
    int acks = 0;
    Nanos worst = 0;
    std::function<void(VriSlot&)> on_ack;
    std::function<void(Nanos)> done;
  };
  auto pending = std::make_shared<Pending>();
  for (const int idx : vr.active_order)
    if (idx != src) ++pending->acks;
  if (pending->acks == 0) {
    if (done) done(0);
    return;
  }
  pending->on_ack = std::move(on_ack);
  pending->done = std::move(done);
  for (const int idx : vr.active_order) {
    if (idx == src) continue;
    VriSlot* sib = vr.slots[static_cast<std::size_t>(idx)].get();
    send_control(vr.id, src, idx, bytes, [sib, pending](Nanos latency) {
      if (pending->on_ack) pending->on_ack(*sib);
      pending->worst = std::max(pending->worst, latency);
      if (--pending->acks == 0 && pending->done) pending->done(pending->worst);
    });
  }
}

// --- state replication (DESIGN.md §16) ----------------------------------------------

int LvrmSystem::maybe_spray(VrState& vr, DispatchShard& shard,
                            net::FrameMeta& f, std::span<const VriView> views,
                            int chosen, Nanos now) {
  // Spraying needs a flow pin to relax and a sibling to spray to.
  if (config_.granularity != BalancerGranularity::kFlow || chosen < 0)
    return chosen;
  const auto tuple = net::FiveTuple::from_frame(f);

  const auto it = vr.sprays.find(tuple);
  if (it != vr.sprays.end()) {
    VrState::SprayState& sp = it->second;
    // Stamp every frame from the promotion decision onward — including the
    // Pending phase, where the flow is still pinned to its owner. Every
    // unstamped frame of the flow is FIFO-ahead of the first stamped one in
    // the owner's queue, so the pin-to-spray transition cannot reorder.
    f.sprayed = 1;
    f.spray_flow = sp.id;
    f.spray_seq = sp.next_seq++;
    ++sp.frames;
    sp.last_frame = now;
    ++sprayed_frames_;
    if (sp.phase != VrState::SprayState::Phase::kActive) return chosen;
    // Active: per-frame min-load pick over the non-suspect candidates (the
    // replicated state makes every sibling a valid target).
    int best = chosen;
    double best_load = std::numeric_limits<double>::infinity();
    for (const VriView& v : views) {
      if (v.suspect) continue;
      if (v.load < best_load) {
        best_load = v.load;
        best = v.index;
      }
    }
    return best;
  }

  // Heavy-hitter detection: count the flow in its current window slot. A
  // hash collision can only over-count (promote a mouse early — harmless,
  // it just gets replicated too), never miss a true elephant.
  if (views.size() < 2) return chosen;
  const std::size_t slot = static_cast<std::size_t>(
      net::hash_tuple(tuple) & (VrState::kHhSlots - 1));
  const auto win = static_cast<std::uint64_t>(now / kDetectWindow);
  if (vr.hh_window[slot] != win) {
    vr.hh_window[slot] = win;
    vr.hh_counts[slot] = 0;
  }
  const std::uint64_t count = ++vr.hh_counts[slot];
  const double window_sec = to_seconds(kDetectWindow);
  const double threshold_frames =
      std::max(static_cast<double>(kMinElephantFrames),
               kElephantFraction * kPerVriCapacityFps * window_sec);
  if (static_cast<double>(count) < threshold_frames) return chosen;

  // Promotion: enter Pending (still pinned), start the snapshot handshake,
  // and stamp this frame as the flow's first sprayed frame.
  VrState::SprayState sp;
  sp.id = next_spray_flow_++;
  sp.owner = chosen;
  sp.shard = shard.id;
  sp.rate_fps = static_cast<double>(count) / window_sec;
  sp.last_frame = now;
  f.sprayed = 1;
  f.spray_flow = sp.id;
  f.spray_seq = sp.next_seq++;
  sp.frames = 1;
  ++sprayed_frames_;
  const double threshold_fps = threshold_frames / window_sec;
  vr.sprays.emplace(tuple, sp);
  start_spray_handshake(vr, shard.id, chosen, tuple, sp.rate_fps,
                        threshold_fps);
  return chosen;
}

void LvrmSystem::start_spray_handshake(VrState& vr, int shard, int owner,
                                       const net::FiveTuple& tuple,
                                       double rate_fps, double threshold_fps) {
  // Snapshot the owner's state for this flow and copy it to every active
  // sibling over the control rings (sync_siblings).
  // The spray goes Active only when the slowest sibling has acked — until
  // then frames stay pinned, so a sibling never sees a mid-flow frame
  // before the snapshot that explains it.
  VriSlot& own = *vr.slots.at(static_cast<std::size_t>(owner));
  net::StateDelta snap;
  const bool have_state =
      own.router->stateful() && own.router->export_flow_state(tuple, snap);

  const Nanos started = sim_.now();
  VrState* vrp = &vr;
  auto activate = [this, vrp, tuple, shard, owner, rate_fps, threshold_fps,
                   started](Nanos worst) {
    const auto it = vrp->sprays.find(tuple);
    if (it == vrp->sprays.end()) return;  // idle-expired mid-handshake
    it->second.phase = VrState::SprayState::Phase::kActive;
    ++spray_activations_;
    LVRM_CLOG(kDispatch, kInfo)
        << "vr=" << vrp->id << " flow sprayed: rate=" << rate_fps
        << " fps >= threshold=" << threshold_fps << " fps, fanout="
        << vrp->active_order.size() << ", handshake=" << worst << " ns";
    if (telemetry_) {
      obs::AuditEvent e;
      e.time = started;
      e.until = sim_.now();
      e.kind = obs::AuditKind::kFlowSpray;
      e.vr = static_cast<std::int16_t>(vrp->id);
      e.vri = static_cast<std::int16_t>(owner);
      e.shard = static_cast<std::int16_t>(shard);
      e.rate = rate_fps;
      e.threshold = threshold_fps;
      e.a = vrp->active_order.size();
      e.b = it->second.id;
      e.c = static_cast<std::uint64_t>(worst);
      telemetry_->audit().record(e);
    }
  };
  // A lost handshake leg (injected control loss) means `activate` never
  // runs: the spray then stays Pending — i.e. pinned — forever. Safe by
  // construction; never wrong, only not faster.
  sync_siblings(
      vr, owner, net::StateDelta::kWireBytes + 16,
      [snap, have_state](VriSlot& sib) {
        if (have_state && sib.active && !sib.crashed)
          sib.router->apply_delta(snap);
      },
      std::move(activate));
}

std::size_t LvrmSystem::relay_deltas(VrState& vr, VriSlot& slot) {
  net::StateDelta d;
  std::size_t drained = 0;
  while (slot.router->take_delta(d)) {
    ++drained;
    for (const int idx : vr.active_order) {
      if (idx == slot.index) continue;
      VriSlot* sib = vr.slots[static_cast<std::size_t>(idx)].get();
      ++deltas_sent_;
      // The callback runs when the sibling consumes the delta from its
      // ctrl_in (charged at the §16 delta-apply cost, not the full control
      // cost). Re-read the slot's router at delivery — a respawn may have
      // replaced it. A lost delta (ctrl loss) erases the callback: safe
      // loss, the next relayed delta for the flow carries absolute state.
      send_control(
          vr.id, slot.index, idx, net::StateDelta::kWireBytes,
          [this, sib, d](Nanos) {
            if (!sib->active || sib->crashed) return;
            if (sib->router->apply_delta(d)) ++deltas_applied_;
          },
          net::FrameKind::kStateDelta);
    }
  }
  return drained;
}

void LvrmSystem::finish_tx(VrState& vr, net::FrameMeta&& f) {
  ++vr.slots[static_cast<std::size_t>(f.dispatch_vri)]->forwarded;
  ++shards_[static_cast<std::size_t>(f.dispatch_shard)].tx_frames;
  if (tracer_) {
    tracer_->record(f.dispatch_shard, obs::TraceHop::kTxDrain, f.id,
                    f.dispatch_vr, f.dispatch_vri, f.gw_out_at, 0,
                    f.obs_sampled != 0);
    // A delivered sample's hop timeline is complete here: collect the span
    // (terminal 0 = egressed).
    if (f.obs_sampled) tracer_->add_span(span_of(f, 0));
  }
  if (telemetry_ && f.obs_sampled)
    telemetry_->record_latency(f.obs_svc_at - f.obs_enq_at,
                               f.obs_done_at - f.obs_svc_at,
                               f.gw_out_at - f.gw_in_at);
  if (egress_) egress_(std::move(f));
}

void LvrmSystem::seq_release_run(VrState& vr, SeqOut& so) {
  auto it = so.held.find(so.next);
  while (it != so.held.end()) {
    if (it->second) {
      --so.live;
      finish_tx(vr, std::move(*it->second));
    }
    so.held.erase(it);
    ++so.next;
    it = so.held.find(so.next);
  }
}

void LvrmSystem::sequence_tx(VrState& vr, net::FrameMeta&& f) {
  SeqOut& so = vr.seq_out[f.spray_flow];
  so.last_activity = sim_.now();
  if (f.spray_seq < so.next) {
    // Behind the release cursor: its position was force-released by a
    // window overflow (or tombstoned then superseded). Let it through late
    // rather than hold it forever.
    finish_tx(vr, std::move(f));
    return;
  }
  if (f.spray_seq == so.next) {
    ++so.next;
    finish_tx(vr, std::move(f));
    seq_release_run(vr, so);
    return;
  }
  // Ahead of the cursor: park until the gap fills (or tombstones).
  ++seq_holds_;
  const std::uint32_t seq = f.spray_seq;
  const auto [it, inserted] =
      so.held.emplace(seq, std::optional<net::FrameMeta>());
  if (!inserted) {  // duplicate position (cannot happen by construction)
    finish_tx(vr, std::move(f));
    return;
  }
  it->second = std::move(f);
  ++so.live;
  while (so.live > kReorderWindow) {
    // Overflow: more FRAMES held than the window allows — force-release
    // from the oldest held position. This is the one case external order
    // can be violated, and it is counted.
    ++seq_window_overflows_;
    auto first = so.held.begin();
    so.next = first->first + 1;
    if (first->second) {
      --so.live;
      finish_tx(vr, std::move(*first->second));
    }
    so.held.erase(first);
    seq_release_run(vr, so);
  }
}

void LvrmSystem::seq_skip(const net::FrameMeta& f) {
  if (f.dispatch_vr < 0 ||
      f.dispatch_vr >= static_cast<std::int16_t>(vrs_.size()))
    return;
  VrState& vr = *vrs_[static_cast<std::size_t>(f.dispatch_vr)];
  SeqOut& so = vr.seq_out[f.spray_flow];
  so.last_activity = sim_.now();
  if (f.spray_seq < so.next) return;  // cursor already passed this position
  ++seq_gap_skips_;
  if (f.spray_seq == so.next) {
    ++so.next;
    seq_release_run(vr, so);
    return;
  }
  so.held.emplace(f.spray_seq, std::nullopt);  // tombstone the hole
}

void LvrmSystem::spray_gc(Nanos now) {
  if (now - last_spray_gc_ < sec(1)) return;
  last_spray_gc_ = now;
  constexpr Nanos idle = std::max<Nanos>(sec(1), 2 * kDetectWindow);
  for (auto& vrp : vrs_) {
    VrState& vr = *vrp;
    for (auto it = vr.sprays.begin(); it != vr.sprays.end();) {
      const VrState::SprayState& sp = it->second;
      if (now - sp.last_frame < idle) {
        ++it;
        continue;
      }
      if (telemetry_) {
        obs::AuditEvent e;
        e.time = now;
        e.until = now;
        e.kind = obs::AuditKind::kFlowSprayEnd;
        e.vr = static_cast<std::int16_t>(vr.id);
        e.shard = static_cast<std::int16_t>(sp.shard);
        e.a = sp.frames;
        e.b = sp.id;
        telemetry_->audit().record(e);
      }
      it = vr.sprays.erase(it);
    }
    // Idle sequencers retire too. One still holding frames had a gap that
    // will never fill (its frame is gone for good) — flush the stragglers
    // in positional order rather than leak them.
    for (auto it = vr.seq_out.begin(); it != vr.seq_out.end();) {
      SeqOut& so = it->second;
      if (now - so.last_activity < idle) {
        ++it;
        continue;
      }
      for (auto& [seq, frame] : so.held)
        if (frame) finish_tx(vr, std::move(*frame));
      it = vr.seq_out.erase(it);
    }
  }
}

void LvrmSystem::bump_pool_generation(VrState& vr) {
  ++vr.pool_generation;
  for (auto& d : vr.dispatchers) d->set_pool_generation(vr.pool_generation);
}

// ---------------------------------------------------------------------------
// §17 MPMC fabric + work stealing
// ---------------------------------------------------------------------------

bool LvrmSystem::spray_is_active(const VrState& vr,
                                 const net::FrameMeta& f) const {
  // Ingress frames have not run the stateful step yet, so the 5-tuple is
  // still the dispatch-side one the spray map is keyed by.
  const auto it = vr.sprays.find(net::FiveTuple::from_frame(f));
  return it != vr.sprays.end() &&
         it->second.phase == VrState::SprayState::Phase::kActive;
}

bool LvrmSystem::try_vri_steal(VrState& vr, VriSlot& thief) {
  if (!stealing_) return false;
  if (!thief.active || thief.crashed || thief.draining || thief.hung)
    return false;
  for (const int idx : vr.active_order) {
    VriSlot& victim = *vr.slots[static_cast<std::size_t>(idx)];
    if (&victim == &thief) continue;
    if (victim.crashed || victim.hung || victim.draining) continue;
    if (victim.data_in->size() < kStealMinBacklog) continue;
    std::size_t moved = 0;
    const std::size_t want =
        std::min<std::size_t>(config_.poll_batch, victim.data_in->size());
    while (moved < want && !victim.data_in->empty()) {
      // Steal-only-unpinned: frame-granularity frames carry no per-flow
      // FIFO promise, and Active-sprayed frames are re-sequenced at TX
      // (§16). Anything else is pinned — stop at the first pinned head so
      // a pinned flow's in-queue order is never split across VRIs.
      const net::FrameMeta& head = victim.data_in->front();
      const bool unpinned =
          config_.granularity == BalancerGranularity::kFrame ||
          (head.sprayed != 0 && spray_is_active(vr, head));
      if (!unpinned) break;
      if (thief.data_in->size() >= thief.data_in->capacity()) break;
      net::FrameMeta f = victim.data_in->pop();
      // Re-stamp the dispatch decision: service accounting and NUMA
      // costing key off the executing VRI.
      f.dispatch_vri = static_cast<std::int16_t>(thief.index);
      thief.data_in->push(std::move(f));
      ++moved;
    }
    if (moved == 0) continue;
    victim.server->repair_hint(victim.data_in_input);
    ++vri_steals_;
    vri_steal_frames_ += moved;
    audit_steal(thief.index, victim, moved);
    return true;
  }
  // Nothing stealable right now. If a live sibling still holds backlog the
  // heads may unpin later (a spray going Active, pinned frames draining) —
  // re-poll; otherwise let the timer die so an idle sim can drain.
  arm_steal_timer(vr, thief);
  return false;
}

void LvrmSystem::arm_steal_timer(VrState& vr, VriSlot& thief) {
  if (thief.steal_timer_armed) return;
  bool backlog = false;
  for (const int idx : vr.active_order) {
    const VriSlot& s = *vr.slots[static_cast<std::size_t>(idx)];
    if (&s == &thief || s.crashed || s.hung) continue;
    if (s.data_in->size() >= kStealMinBacklog) {
      backlog = true;
      break;
    }
  }
  if (!backlog) return;
  thief.steal_timer_armed = true;
  VrState* v = &vr;
  VriSlot* t = &thief;
  sim_.after(kStealPollPeriod, [this, v, t] {
    t->steal_timer_armed = false;
    if (!stealing_ || !t->active || t->crashed || t->server->busy()) return;
    // Re-run the idle scan (which re-arms this timer while backlog holds).
    t->server->maybe_serve();
  });
}

void LvrmSystem::audit_steal(int thief, const VriSlot& victim,
                             std::size_t burst) {
  if (!telemetry_) return;
  const Nanos now = sim_.now();
  // Rate-limited: at most one event per sim second — the counters stay
  // exact, the bounded trail stays unflooded.
  if (last_steal_audit_ >= 0 && now - last_steal_audit_ < sec(1)) return;
  last_steal_audit_ = now;
  obs::AuditEvent e;
  e.time = e.until = now;
  e.kind = obs::AuditKind::kVriSteal;
  e.vr = static_cast<std::int16_t>(victim.vr_id);
  e.vri = static_cast<std::int16_t>(thief);
  e.service = static_cast<double>(victim.index);
  e.a = burst;
  e.b = vri_steals_;
  e.c = vri_steal_frames_;
  telemetry_->audit().record(e);
}

std::size_t LvrmSystem::mesh_ring_count() const {
  // The SPSC mesh the fabric replaces: with S dispatch shards every slot
  // needs a per-(shard, slot) ring in EACH direction (any shard may dispatch
  // to any slot; any slot's egress is drained by its producer shard — §11's
  // per-shard TX drains) plus its two control rings, and each shard has its
  // RX ring. rings = Σ_slots (2S + 2) + S.
  const std::size_t S = shards_.size();
  std::size_t slots = 0;
  for (const auto& vr : vrs_) slots += vr->slots.size();
  return slots * (2 * S + 2) + S;
}

std::size_t LvrmSystem::fabric_ring_count() const {
  // The fabric: one MPMC ingress link per slot (all shards produce into
  // it), two control rings per slot, one MPMC TX link per shard (all of the
  // shard's homed slots produce into it) plus the shard's RX ring.
  const std::size_t S = shards_.size();
  std::size_t slots = 0;
  for (const auto& vr : vrs_) slots += vr->slots.size();
  return slots * 3 + 2 * S;
}

std::size_t LvrmSystem::mesh_ring_bytes() const {
  // Closed form for the SPSC mesh the fabric replaces: every ring, control
  // rings included, sized at the data capacity. RX rings are identical
  // under both topologies and excluded from both sides.
  const std::size_t S = shards_.size();
  std::size_t slots = 0;
  for (const auto& vr : vrs_) slots += vr->slots.size();
  const std::size_t data = costs::kDataQueueCapacity * sizeof(net::FrameMeta);
  return slots * (2 * S * data + 2 * data);
}

std::size_t LvrmSystem::fabric_ring_bytes() const {
  // Mirrors what the arena actually reserves: per slot one ingress link +
  // two control rings at the control capacity; per shard one TX link.
  const std::size_t S = shards_.size();
  std::size_t slots = 0;
  for (const auto& vr : vrs_) slots += vr->slots.size();
  const std::size_t link = costs::kDataQueueCapacity * sizeof(net::FrameMeta);
  const std::size_t ctrl =
      costs::kControlQueueCapacity * sizeof(net::FrameMeta);
  return slots * (link + 2 * ctrl) + S * link;
}

std::size_t LvrmSystem::spray_active_flows() const {
  std::size_t n = 0;
  for (const auto& vr : vrs_) n += vr->sprays.size();
  return n;
}

std::size_t LvrmSystem::seq_held_frames() const {
  std::size_t n = 0;
  for (const auto& vr : vrs_)
    for (const auto& [id, so] : vr->seq_out) n += so.live;  // frames, not tombstones
  return n;
}

// --- core allocation --------------------------------------------------------------------

void LvrmSystem::inject_vri_crash(int vr_id, int vri) {
  VrState& vr = *vrs_.at(static_cast<std::size_t>(vr_id));
  VriSlot& slot = *vr.slots.at(static_cast<std::size_t>(vri));
  if (!slot.active) return;
  slot.crashed = true;
  slot.server->stop();  // the process is gone; its queues go stale
}

void LvrmSystem::inject_vri_hang(int vr_id, int vri) {
  VrState& vr = *vrs_.at(static_cast<std::size_t>(vr_id));
  VriSlot& slot = *vr.slots.at(static_cast<std::size_t>(vri));
  if (!slot.active || slot.crashed) return;
  slot.hung = true;
  slot.server->stop();  // alive but frozen; queues keep filling
}

void LvrmSystem::clear_vri_hang(int vr_id, int vri) {
  VrState& vr = *vrs_.at(static_cast<std::size_t>(vr_id));
  VriSlot& slot = *vr.slots.at(static_cast<std::size_t>(vri));
  // If the health layer already quarantined and respawned the slot, the
  // stall is over anyway and there is nothing to resume.
  if (!slot.active || !slot.hung) return;
  slot.hung = false;
  slot.server->start();
}

void LvrmSystem::inject_vri_slowdown(int vr_id, int vri, double multiplier) {
  VrState& vr = *vrs_.at(static_cast<std::size_t>(vr_id));
  VriSlot& slot = *vr.slots.at(static_cast<std::size_t>(vri));
  if (!slot.active) return;
  slot.degrade = multiplier > 0.0 ? multiplier : 1.0;
}

void LvrmSystem::inject_control_loss(int vr_id, int vri,
                                     double drop_probability) {
  VrState& vr = *vrs_.at(static_cast<std::size_t>(vr_id));
  VriSlot& slot = *vr.slots.at(static_cast<std::size_t>(vri));
  if (!slot.active) return;
  slot.ctrl_loss_prob = drop_probability;
}

void LvrmSystem::inject_overload_burst(int vr_id, double fps, Nanos duration) {
  if (fps <= 0.0 || duration <= 0) return;
  const Nanos gap = std::max<Nanos>(1, static_cast<Nanos>(1e9 / fps));
  burst_step(vr_id, gap, sim_.now() + duration);
}

void LvrmSystem::burst_step(int vr_id, Nanos gap, Nanos until) {
  if (sim_.now() > until) return;
  const VrState& vr = *vrs_.at(static_cast<std::size_t>(vr_id));
  const net::Prefix& p = vr.cfg.subnets.front();
  ++burst_seq_;
  net::FrameMeta f;
  // High id bit-space keeps burst frames distinguishable from a workload
  // generator's ids in traces without any coordination.
  f.id = 0x4000000000000000ull + burst_seq_;
  f.kind = net::FrameKind::kUdp;
  f.protocol = 17;
  f.wire_bytes = 84;
  // 64 synthetic flows inside the VR's own first subnet: they classify to
  // the target VR, route under its own prefix, and compete with real
  // traffic for the same rings and queues the ladder protects.
  f.src_ip = p.network + 2 + static_cast<net::Ipv4Addr>(burst_seq_ % 64);
  f.dst_ip = p.network + 1;
  f.src_port = static_cast<std::uint16_t>(40000 + burst_seq_ % 64);
  f.dst_port = 9;
  f.created_at = sim_.now();
  ingress(std::move(f));  // its drops are counted like any other ingress
  sim_.after(gap, [this, vr_id, gap, until] { burst_step(vr_id, gap, until); });
}

bool LvrmSystem::decommission_vri(int vr_id, int vri) {
  VrState& vr = *vrs_.at(static_cast<std::size_t>(vr_id));
  VriSlot& slot = *vr.slots.at(static_cast<std::size_t>(vri));
  if (!slot.active || slot.crashed || slot.draining) return false;
  drain_slot(vr, slot, DrainCause::kDecommission);
  return true;
}

void LvrmSystem::drain_slot(VrState& vr, VriSlot& slot, DrainCause cause,
                            std::function<void(const DrainEvent&)> done) {
  if (slot.draining) return;  // a quiesce is already in flight
  slot.draining = true;
  // Stop cleanly: the in-service frame (if any) completes and drains out
  // through data_out as usual; nothing new is popped afterwards. Until it
  // has, the slot stays active and pinned so same-flow arrivals keep
  // queueing FIFO behind the backlog — migrating the backlog while a frame
  // is still in service would let its redispatched successors overtake it
  // through a shorter sibling queue. Slot pointers are heap-stable
  // (vector<unique_ptr>), so the deferred references stay valid.
  slot.server->quiesce([this, &vr, &slot, cause, done = std::move(done)] {
    finish_drain(vr, slot, cause, done);
  });
}

void LvrmSystem::finish_drain(
    VrState& vr, VriSlot& slot, DrainCause cause,
    const std::function<void(const DrainEvent&)>& done) {
  // Aborted while quiescing (a crash + reap can beat the in-service
  // completion): the crash path already disposed of the backlog and pins.
  if (!slot.draining || !slot.active || slot.crashed) return;

  const Nanos now = sim_.now();
  DrainEvent ev;
  ev.time = now;
  ev.vr = vr.id;
  ev.vri = slot.index;
  ev.cause = cause;

  // retire_slot pops the backlog in FIFO order before it evicts the flow
  // pins, so the redispatch below re-pins every live flow exactly once at
  // its new home and same-flow frames stay in arrival order end to end.
  std::vector<net::FrameMeta> live;
  ev.flows_evicted = retire_slot(vr, slot, /*from_recovery=*/false, live);
  flows_migrated_ += ev.flows_evicted;
  // Reset-free: needs_rebuild stays false — the router keeps its applied
  // route state (broadcast_route_update also updates inactive slots), so a
  // later activation skips the fork and the route-log replay entirely.

  ev.migrated = settle_backlog(vr, live, /*rescue=*/true);
  ev.dropped = live.size() - ev.migrated;
  LVRM_CLOG(kAlloc, kInfo) << "vr=" << vr.id << " vri=" << slot.index
                           << " drained (" << to_string(cause)
                           << "): migrated=" << ev.migrated
                           << " dropped=" << ev.dropped
                           << " flows_evicted=" << ev.flows_evicted;

  // Charon-style ownership handoff: each surviving sibling learns over the
  // control rings that it now owns part of the drained slot's flows; the
  // drain event records the slowest sibling's apply latency.
  const std::size_t di = drain_log_.size();
  drain_log_.push_back(ev);
  sync_siblings(vr, slot.index, /*bytes=*/80, {}, [this, di](Nanos worst) {
    drain_log_[di].handoff_latency = worst;
  });

  if (telemetry_) {
    obs::AuditEvent ae;
    ae.time = now;
    ae.until = now;
    ae.kind = obs::AuditKind::kVriDrain;
    ae.vr = static_cast<std::int16_t>(vr.id);
    ae.vri = static_cast<std::int16_t>(slot.index);
    ae.cause = static_cast<std::uint8_t>(cause);
    ae.rate = arrival_rate_estimate(vr.id);
    ae.service = measured_service_rate(vr);
    ae.a = ev.migrated;
    ae.b = ev.flows_evicted;
    ae.c = ev.dropped;
    telemetry_->audit().record(ae);
  }
  if (done) done(ev);
}

void LvrmSystem::reap_crashed() {
  for (auto& vrp : vrs_) {
    VrState& vr = *vrp;
    std::vector<net::FrameMeta> stranded;
    for (std::size_t i = 0; i < vr.active_order.size();) {
      VriSlot& slot = *vr.slots[static_cast<std::size_t>(vr.active_order[i])];
      if (!slot.crashed) {
        ++i;
        continue;
      }
      // §15 black box: snapshot the flight recorders before the rescue path
      // rewrites the dead incarnation's queues — the dump is the record of
      // what was in flight when the crash was noticed.
      if (tracer_)
        trace_flight_dump(obs::FlightDumpCause::kVriCrash, slot.home_shard,
                          vr.id, slot.index);
      LVRM_CLOG(kHealth, kWarn) << "vr=" << vr.id << " vri=" << slot.index
                                << " reaped after crash";
      // waitpid()-style reaping: free the core, take the dead process'
      // queued frames (rescued below with the health layer on, else
      // dropped), drop its flow pins. A crash mid-quiesce aborts the drain.
      retire_slot(vr, slot, /*from_recovery=*/true, stranded);
      bury_process(slot);
      ++crashes_reaped_;
    }
    // The fixed allocator promised a fixed core set: respawn replacements.
    if (allocator_->kind() == AllocatorKind::kFixed) {
      while (static_cast<int>(vr.active_order.size()) <
             std::max(1, vr.cfg.initial_vris))
        activate_vri(vr, /*from_recovery=*/true);
    }
    settle_backlog(vr, stranded, /*rescue=*/health_ != nullptr);
  }
}

std::size_t LvrmSystem::retire_slot(VrState& vr, VriSlot& slot,
                                    bool from_recovery,
                                    std::vector<net::FrameMeta>& backlog) {
  slot.server->stop();
  while (!slot.data_in->empty()) backlog.push_back(slot.data_in->pop());
  slot.active = false;
  slot.draining = false;
  std::erase(vr.active_order, slot.index);
  bump_pool_generation(vr);
  if (slot.migration_event != sim::kInvalidEvent) {
    sim_.cancel(slot.migration_event);
    slot.migration_event = sim::kInvalidEvent;
  }
  std::size_t evicted = 0;
  for (auto& d : vr.dispatchers) evicted += d->on_vri_destroyed(slot.index);
  audit_vri_change(vr, slot, /*create=*/false, from_recovery);
  release_core(slot.core_id);
  slot.core_id = sim::kNoCore;
  // The slot's next process starts with no strikes and no steering mark.
  if (health_) health_->forget(vr.id, slot.index);
  slot.suspect = false;
  return evicted;
}

void LvrmSystem::bury_process(VriSlot& slot) {
  // The dead incarnation's control queues die with it (fresh segments are
  // allocated at respawn): in-flight events are lost, and their delivery
  // callbacks with them, so their senders never see them acked.
  for (FrameQueue* q : {slot.ctrl_in.get(), slot.ctrl_out.get()})
    while (!q->empty()) control_cbs_.erase(q->pop().id);
  // The sickness dies with the process.
  slot.crashed = false;
  slot.hung = false;
  slot.degrade = 1.0;
  slot.ctrl_loss_prob = 0.0;
  slot.needs_rebuild = true;  // a replacement is a fresh fork
}

std::size_t LvrmSystem::settle_backlog(VrState& vr,
                                       std::vector<net::FrameMeta>& frames,
                                       bool rescue) {
  if (frames.empty()) return 0;
  if (!rescue || vr.active_order.empty()) {
    for (const net::FrameMeta& f : frames)
      note_drop(f, DropCause::kVriDestroyed);
    return 0;
  }
  const Nanos now = sim_.now();
  std::vector<VriView> views;
  views.reserve(vr.active_order.size());
  for (int idx : vr.active_order) {
    VriSlot& s = *vr.slots[static_cast<std::size_t>(idx)];
    views.push_back(VriView{idx, s.estimator->load_at(now), s.suspect});
  }
  std::size_t admitted = 0;
  for (net::FrameMeta& f : frames) {
    // Re-dispatch through the frame's own shard's dispatcher so flow pins
    // stay consistent within the shard that owns the flow.
    const std::size_t shard =
        f.dispatch_shard >= 0 ? static_cast<std::size_t>(f.dispatch_shard) : 0;
    const int chosen = vr.dispatchers[shard]->dispatch(f, views, now);
    f.dispatch_vri = static_cast<std::int16_t>(chosen);
    VriSlot& target = *vr.slots[static_cast<std::size_t>(chosen)];
    // Survivors saturated: the overflow tail-drops.
    if (push_or_note(*target.data_in, f, DropCause::kQueueFull)) {
      target.estimator->on_dispatch(target.data_in->size(), now);
      ++admitted;
    }
  }
  lvrm_core().charge(
      static_cast<Nanos>(frames.size()) * costs::kRedispatchPerFrame,
      CostCategory::kSystem);
  redispatched_ += admitted;
  return admitted;
}

void LvrmSystem::maybe_allocate() {
  const Nanos now = sim_.now();
  if (now - last_alloc_pass_ < config_.realloc_period) return;
  last_alloc_pass_ = now;
  reap_crashed();
  // §16: idle-expire sprayed flows and drained sequencers (1 s cadence).
  if (replication_) spray_gc(now);
  // Audit: per-VR balancer summaries ride the allocation pass (the
  // decision cadence of the whole system).
  if (telemetry_) audit_balance(now);
  if (allocator_->kind() == AllocatorKind::kFixed) return;

  const Nanos iterate =
      costs::kAllocIterateBase +
      costs::kAllocIteratePerVri * total_active_vris();

  for (auto& vrp : vrs_) {
    VrState& vr = *vrp;
    const VrAllocView view = alloc_view(vr);
    const AllocDecision decision = allocator_->decide(view);

    const double jitter =
        1.0 + costs::kAllocJitter * (rng_.uniform01() * 2.0 - 1.0);

    if (decision == AllocDecision::kCreate &&
        view.active_vris < config_.max_vris_per_vr) {
      LVRM_CLOG(kAlloc, kInfo)
          << "vr=" << vr.id << " create: arrival=" << view.arrival_rate_fps
          << " fps >= capacity=" << allocator_->capacity_fps(view)
          << " fps (" << view.active_vris << " vris)";
      activate_vri(vr);
      const Nanos reaction = static_cast<Nanos>(
          static_cast<double>(iterate + costs::kAllocateBase +
                              costs::kAllocatePerVri * total_active_vris()) *
          jitter);
      lvrm_core().charge(reaction, CostCategory::kSystem);  // vfork + setup
      alloc_log_.push_back(AllocationEvent{
          now, vr.id, true, reaction,
          static_cast<int>(vr.active_order.size()), total_active_vris()});
      return;  // Fig 3.2: one action per pass
    }
    if (decision == AllocDecision::kDestroy && view.active_vris > 1) {
      LVRM_CLOG(kAlloc, kInfo)
          << "vr=" << vr.id << " destroy: arrival=" << view.arrival_rate_fps
          << " fps under capacity=" << allocator_->capacity_fps(view)
          << " fps (" << view.active_vris << " vris)";
      deactivate_vri(vr);
      const Nanos reaction = static_cast<Nanos>(
          static_cast<double>(iterate + costs::kDeallocateBase +
                              costs::kDeallocatePerVri * total_active_vris()) *
          jitter);
      lvrm_core().charge(reaction, CostCategory::kSystem);  // kill + teardown
      alloc_log_.push_back(AllocationEvent{
          now, vr.id, false, reaction,
          static_cast<int>(vr.active_order.size()), total_active_vris()});
      return;
    }
  }
}

// --- health monitoring & recovery -------------------------------------------------

void LvrmSystem::maybe_health_probe() {
  if (!health_) return;
  const Nanos now = sim_.now();
  if (now - last_health_probe_ < kHealthProbePeriod) return;
  last_health_probe_ = now;
  // The probe itself: LVRM reads each VRI's progress counter and queue
  // depth out of the shared segments — cheap, hence the short period.
  lvrm_core().charge(costs::kHealthProbeBase +
                         costs::kHealthProbePerVri * total_active_vris(),
                     CostCategory::kSystem);

  for (auto& vrp : vrs_) {
    VrState& vr = *vrp;
    if (vr.active_order.empty()) continue;
    std::vector<VriProbe> probes;
    probes.reserve(vr.active_order.size());
    for (int idx : vr.active_order) {
      VriSlot& s = *vr.slots[static_cast<std::size_t>(idx)];
      probes.push_back(VriProbe{idx, !s.crashed, s.server->served(),
                                s.data_in->size(), vri_departure_rate(s)});
    }
    const auto verdicts = health_->probe(vr.id, probes, now);
    for (const HealthVerdict& v : verdicts)
      recover_slot(vr, *vr.slots[static_cast<std::size_t>(v.vri)], v.state,
                   v.stalled_for);
    // Refresh the grace-window marks the dispatcher steers around. Only an
    // actual flip invalidates the cached healthy pool.
    bool suspicion_changed = false;
    for (int idx : vr.active_order) {
      VriSlot& s = *vr.slots[static_cast<std::size_t>(idx)];
      const bool suspect = health_->is_suspect(vr.id, idx);
      if (suspect != s.suspect) {
        s.suspect = suspect;
        suspicion_changed = true;
      }
    }
    if (suspicion_changed) bump_pool_generation(vr);
  }
}

void LvrmSystem::recover_slot(VrState& vr, VriSlot& slot, VriHealth reason,
                              Nanos stalled_for) {
  if (slot.draining) return;  // a reset-free drain is already quiescing it
  const Nanos now = sim_.now();
  RecoveryEvent ev;
  ev.time = now;
  ev.vr = vr.id;
  ev.vri = slot.index;
  ev.reason = reason;
  ev.stalled_for = stalled_for;
  ev.stranded = slot.data_in->size();

  if (reason == VriHealth::kFailSlow && config_.overload_control.enabled &&
      vr.active_order.size() > 1) {
    // Reset-free quarantine (DESIGN.md §13): a fail-slow process is alive —
    // it can be stopped cleanly and its backlog migrated over the normal
    // dispatch path, so nothing is lost and the router state stays warm.
    // The injected degrade stays with the process (it was never killed);
    // only the suspicion marks are cleared so a later reactivation is not
    // penalized by stale dispatch steering.
    slot.hung = false;
    slot.suspect = false;
    // §15: a fail-slow quarantine is an incident even when it drains
    // reset-free — dump before the migration rewrites the queues.
    if (tracer_)
      trace_flight_dump(obs::FlightDumpCause::kQuarantine, slot.home_shard,
                        vr.id, slot.index);
    // The quiesce may outlive this call (the slow in-service frame has to
    // egress first), so the recovery record lands when the drain completes.
    drain_slot(vr, slot, DrainCause::kFailSlow,
               [this, &vr, ev, stalled_for](const DrainEvent& dev) mutable {
                 ev.redispatched = dev.migrated;
                 recovery_log_.push_back(ev);
                 if (telemetry_) {
                   obs::AuditEvent ae;
                   ae.time = ev.time;
                   ae.until = dev.time;
                   ae.kind = obs::AuditKind::kHealthFailSlow;
                   ae.vr = static_cast<std::int16_t>(ev.vr);
                   ae.vri = static_cast<std::int16_t>(ev.vri);
                   ae.rate = static_cast<double>(stalled_for);
                   ae.threshold = static_cast<double>(kHeartbeatTimeout);
                   ae.service = measured_service_rate(vr);
                   ae.a = ev.stranded;
                   ae.b = ev.redispatched;
                   ae.c = 0;  // reset-free: no respawn, stays warm
                   telemetry_->audit().record(ae);
                 }
               });
    return;
  }

  // §15 black box: the health monitor quarantining a VRI is an incident —
  // the dump captures what the pipeline was doing in the milliseconds
  // before the verdict, including this VRI's in-flight frames.
  if (tracer_)
    trace_flight_dump(obs::FlightDumpCause::kQuarantine, slot.home_shard,
                      vr.id, slot.index);

  LVRM_CLOG(kHealth, kWarn)
      << "vr=" << vr.id << " vri=" << slot.index << " quarantined ("
      << to_string(reason) << "), stalled_for=" << stalled_for << " ns, "
      << ev.stranded << " stranded";
  // Quarantine: kill the incarnation (hung/slow processes get SIGKILL; a
  // dead one needs no kill), take it out of the dispatch set, and rescue
  // the frames stranded in its incoming queue.
  std::vector<net::FrameMeta> stranded;
  retire_slot(vr, slot, /*from_recovery=*/true, stranded);
  bury_process(slot);

  // Respawn policy: the fixed allocator promised a fixed set; the dynamic
  // allocators respawn when the arrival rate still demands the lost
  // capacity (else the Fig 3.2 pass regrows on its own schedule). A VR is
  // never left with zero VRIs.
  bool respawn = vr.active_order.empty();
  if (allocator_->kind() == AllocatorKind::kFixed) {
    respawn = respawn || static_cast<int>(vr.active_order.size()) <
                             std::max(1, vr.cfg.initial_vris);
  } else {
    const VrAllocView view = alloc_view(vr);
    respawn =
        respawn || view.arrival_rate_fps > allocator_->capacity_fps(view);
  }
  if (respawn) {
    activate_slot(vr, slot, /*from_recovery=*/true);
    const Nanos reaction =
        costs::kAllocateBase + costs::kAllocatePerVri * total_active_vris() +
        static_cast<Nanos>(vr.route_log.size()) * costs::kRouteReplayPerUpdate;
    lvrm_core().charge(reaction, CostCategory::kSystem);  // vfork + replay
    ev.respawned = true;
  }

  // Re-dispatch rescued frames across the (possibly regrown) active set.
  ev.redispatched = settle_backlog(vr, stranded, /*rescue=*/true);
  recovery_log_.push_back(ev);

  if (telemetry_) {
    obs::AuditEvent ae;
    ae.time = now;
    ae.until = now;
    switch (reason) {
      case VriHealth::kDead: ae.kind = obs::AuditKind::kHealthDead; break;
      case VriHealth::kHung: ae.kind = obs::AuditKind::kHealthHung; break;
      default: ae.kind = obs::AuditKind::kHealthFailSlow; break;
    }
    ae.vr = static_cast<std::int16_t>(vr.id);
    ae.vri = static_cast<std::int16_t>(slot.index);
    ae.rate = static_cast<double>(stalled_for);
    ae.threshold = static_cast<double>(kHeartbeatTimeout);
    ae.service = measured_service_rate(vr);
    ae.a = ev.stranded;
    ae.b = ev.redispatched;
    ae.c = ev.respawned ? 1 : 0;
    telemetry_->audit().record(ae);
  }
}

void LvrmSystem::activate_vri(VrState& vr, bool from_recovery) {
  // First inactive slot.
  VriSlot* slot = nullptr;
  for (auto& s : vr.slots) {
    if (!s->active) {
      slot = s.get();
      break;
    }
  }
  if (!slot) return;  // every slot already active
  activate_slot(vr, *slot, from_recovery);
}

void LvrmSystem::activate_slot(VrState& vr, VriSlot& slot,
                               bool from_recovery) {
  // A slot whose previous incarnation died is a *fresh fork*: it starts
  // from the VR's static configuration, so the dynamic route updates
  // applied since start are replayed into it before it serves traffic.
  if (slot.needs_rebuild) rebuild_router(vr, slot);
  // Anchor placement at the slot's home shard: its LVRM-side queue ends
  // live there, so that is the socket worth staying close to.
  const NumaPick pick =
      pick_core(shards_[static_cast<std::size_t>(slot.home_shard)].core_id);
  const sim::CoreId core_id = pick.core;
  slot.core_id = core_id;
  slot.numa_tier = pick.tier;
  slot.server->migrate(core(core_id), 0);
  slot.estimator->reset();
  slot.service_time.reset();
  slot.active = true;
  vr.active_order.push_back(slot.index);
  bump_pool_generation(vr);
  slot.server->start();
  LVRM_CLOG(kAlloc, kDebug) << "vr=" << vr.id << " vri=" << slot.index
                            << " activated on core=" << core_id
                            << (from_recovery ? " (respawn)" : "");
  audit_vri_change(vr, slot, /*create=*/true, from_recovery);
  if (config_.affinity == AffinityPolicy::kDefault) schedule_migration(slot);
}

void LvrmSystem::rebuild_router(VrState& vr, VriSlot& slot) {
  // Same factory seam as add_vr: a respawn rebuilds exactly what the slot
  // started with, stateful wrapper included (its flow state starts empty —
  // a fresh fork remembers nothing; §16 deltas repopulate it as siblings
  // keep replicating).
  slot.router = make_configured_vr(vr.cfg, vr.cfg.route_map);
  // Routing-state resync (Sec 2.1): replay the dynamic updates the previous
  // incarnation had applied, so the replacement matches its siblings.
  for (const route::RouteUpdate& u : vr.route_log)
    slot.router->apply_route_update(u);
  // Fresh shared-memory segments for the new process' queues (Sec 3.8).
  for (const queue::SegmentId id : slot.shm_ids) arena_.destroy(id);
  create_slot_segments(slot);
  slot.needs_rebuild = false;
}

void LvrmSystem::create_slot_segments(VriSlot& slot) {
  // One shared-memory segment per VRI-side queue, as in Sec 3.8: the
  // identifiers are what a forked VRI would receive via its main()
  // arguments. §17 fabric layout: the MPMC ingress link every shard feeds,
  // then two control rings sized to the control capacity. There is no
  // per-slot TX segment: egress rides the home shard's tx_link_shm.
  slot.shm_ids[0] =
      arena_.create(costs::kDataQueueCapacity * sizeof(net::FrameMeta));
  for (int q = 1; q < 3; ++q)
    slot.shm_ids[q] =
        arena_.create(costs::kControlQueueCapacity * sizeof(net::FrameMeta));
}

void LvrmSystem::deactivate_vri(VrState& vr) {
  if (vr.active_order.empty()) return;
  const int idx = vr.active_order.back();
  VriSlot& slot = *vr.slots[static_cast<std::size_t>(idx)];
  if (slot.draining) return;  // quiescing already; retry next pass
  if (config_.overload_control.enabled && vr.active_order.size() > 1) {
    // Reset-free destroy (DESIGN.md §13): the allocator's scale-down stops
    // the VRI but migrates its backlog and flow pins to the survivors —
    // Fig 3.2's semantics without the frame loss.
    drain_slot(vr, slot, DrainCause::kAllocatorDestroy);
    return;
  }
  LVRM_CLOG(kAlloc, kDebug) << "vr=" << vr.id << " vri=" << idx
                            << " deactivated, core=" << slot.core_id
                            << " released";
  // Fig 3.2 "destroy": the process is killed and its queues destroyed, so
  // queued frames are lost and a later create forks a fresh process.
  std::vector<net::FrameMeta> lost;
  retire_slot(vr, slot, /*from_recovery=*/false, lost);
  bury_process(slot);
  settle_backlog(vr, lost, /*rescue=*/false);
}

NumaPick LvrmSystem::pick_core(sim::CoreId anchor) {
  auto first_free = [this](const std::vector<sim::CoreId>& candidates) {
    for (sim::CoreId c : candidates)
      if (!core_used_[static_cast<std::size_t>(c)]) return c;
    return sim::kNoCore;
  };

  sim::CoreId chosen = sim::kNoCore;
  switch (config_.affinity) {
    case AffinityPolicy::kSibling:
      // Two-level preference (DESIGN.md §11): same socket as the anchoring
      // shard, then same machine, then remote. On a single machine this is
      // exactly the paper's sibling-then-non-sibling order.
      chosen = pick_numa_core(topo_, core_used_, anchor).core;
      break;
    case AffinityPolicy::kNonSibling:
      chosen = first_free(topo_.non_siblings_of(anchor));
      if (chosen == sim::kNoCore)
        chosen = first_free(topo_.siblings_of(anchor));
      break;
    case AffinityPolicy::kSame:
      return NumaPick{anchor, NumaTier::kSameSocket};
    case AffinityPolicy::kDefault: {
      std::vector<sim::CoreId> free_cores;
      for (sim::CoreId c = 0; c < topo_.total_cores(); ++c)
        if (!core_used_[static_cast<std::size_t>(c)]) free_cores.push_back(c);
      if (!free_cores.empty())
        chosen = free_cores[rng_.uniform(free_cores.size())];
      break;
    }
  }
  if (chosen == sim::kNoCore) {
    // Over-commit: the VRI lands on its home shard's core and time-shares
    // it (the contention Exp 2b observes past the available core count).
    return NumaPick{anchor, NumaTier::kNone};
  }
  core_used_[static_cast<std::size_t>(chosen)] = true;
  return NumaPick{chosen, numa_tier_of(topo_, anchor, chosen)};
}

sim::CoreId LvrmSystem::pick_shard_core(int shard) {
  // Spread shards round-robin across sockets, first free core of the
  // preferred socket; any free core otherwise. A plane wider than the
  // machine time-shares the LVRM core (documented over-commit).
  const int preferred =
      (topo_.socket_of(config_.lvrm_core) + shard) % topo_.sockets();
  sim::CoreId fallback = sim::kNoCore;
  for (sim::CoreId c = 0; c < topo_.total_cores(); ++c) {
    if (core_used_[static_cast<std::size_t>(c)]) continue;
    if (topo_.socket_of(c) == preferred) {
      core_used_[static_cast<std::size_t>(c)] = true;
      return c;
    }
    if (fallback == sim::kNoCore) fallback = c;
  }
  if (fallback != sim::kNoCore) {
    core_used_[static_cast<std::size_t>(fallback)] = true;
    return fallback;
  }
  return config_.lvrm_core;
}

void LvrmSystem::release_core(sim::CoreId id) {
  if (id == sim::kNoCore) return;
  for (const auto& sh : shards_)
    if (id == sh.core_id) return;  // dispatcher cores are never released
  core_used_[static_cast<std::size_t>(id)] = false;
}

void LvrmSystem::schedule_migration(VriSlot& slot) {
  const auto gap = static_cast<Nanos>(rng_.exponential(
      static_cast<double>(costs::kMigrationMeanPeriod)));
  slot.migration_event = sim_.after(std::max<Nanos>(gap, usec(50)), [this,
                                                                     &slot] {
    slot.migration_event = sim::kInvalidEvent;
    if (!slot.active) return;
    // The kernel rebalances the VRI onto some other free core when one
    // exists; either way caches are cold afterwards.
    std::vector<sim::CoreId> free_cores;
    for (sim::CoreId c = 0; c < topo_.total_cores(); ++c)
      if (!core_used_[static_cast<std::size_t>(c)] && c != slot.core_id)
        free_cores.push_back(c);
    if (!free_cores.empty()) {
      const sim::CoreId next = free_cores[rng_.uniform(free_cores.size())];
      release_core(slot.core_id);
      core_used_[static_cast<std::size_t>(next)] = true;
      slot.server->migrate(core(next), costs::kMigrationPenalty);
      slot.core_id = next;
    } else {
      core(slot.core_id).charge(costs::kMigrationPenalty,
                                CostCategory::kSystem);
    }
    slot.cold_until = sim_.now() + costs::kColdCacheWindow;
    schedule_migration(slot);
  });
}

// --- helpers / accessors ------------------------------------------------------------------

bool LvrmSystem::cross_socket(sim::CoreId a, sim::CoreId b) const {
  return a != sim::kNoCore && b != sim::kNoCore && !topo_.siblings(a, b);
}

int LvrmSystem::total_active_vris() const {
  int total = 0;
  for (const auto& vr : vrs_) total += static_cast<int>(vr->active_order.size());
  return total;
}

double LvrmSystem::measured_service_rate(const VrState& vr) const {
  double sum = 0.0;
  int n = 0;
  for (int idx : vr.active_order) {
    const VriSlot& s = *vr.slots[static_cast<std::size_t>(idx)];
    if (s.service_time.valid() && s.service_time.value() > 0.0) {
      sum += 1e9 / s.service_time.value();
      ++n;
    }
  }
  return n ? sum / n : 0.0;
}

double LvrmSystem::vri_departure_rate(const VriSlot& slot) const {
  if (!slot.service_time.valid() || slot.service_time.value() <= 0.0)
    return 0.0;
  return 1e9 / slot.service_time.value();
}

VrAllocView LvrmSystem::alloc_view(const VrState& vr) const {
  VrAllocView view;
  view.active_vris = static_cast<int>(vr.active_order.size());
  view.arrival_rate_fps = arrival_rate_estimate(vr.id);
  view.service_rate_per_vri = measured_service_rate(vr);
  return view;
}

int LvrmSystem::active_vris(int vr) const {
  return static_cast<int>(
      vrs_.at(static_cast<std::size_t>(vr))->active_order.size());
}

std::vector<sim::CoreId> LvrmSystem::vri_cores(int vr) const {
  std::vector<sim::CoreId> out;
  const VrState& v = *vrs_.at(static_cast<std::size_t>(vr));
  for (int idx : v.active_order)
    out.push_back(v.slots[static_cast<std::size_t>(idx)]->core_id);
  return out;
}

double LvrmSystem::arrival_rate_estimate(int vr) const {
  const VrState& v = *vrs_.at(static_cast<std::size_t>(vr));
  if (!v.arrival_gap.valid() || v.arrival_gap.value() <= 0.0) return 0.0;
  return 1e9 / v.arrival_gap.value();
}

double LvrmSystem::service_rate_estimate(int vr) const {
  return measured_service_rate(*vrs_.at(static_cast<std::size_t>(vr)));
}

std::uint64_t LvrmSystem::forwarded() const {
  std::uint64_t total = 0;
  for (const auto& sh : shards_) total += sh.tx_frames;
  return total;
}

std::uint64_t LvrmSystem::vr_forwarded(int vr) const {
  std::uint64_t total = 0;
  for (const auto& slot : vrs_.at(static_cast<std::size_t>(vr))->slots)
    total += slot->forwarded;
  return total;
}

std::uint64_t LvrmSystem::vri_forwarded(int vr, int vri) const {
  return vrs_.at(static_cast<std::size_t>(vr))
      ->slots.at(static_cast<std::size_t>(vri))
      ->forwarded;
}

std::uint64_t LvrmSystem::vr_drops(int vr, DropCause cause) const {
  return vrs_.at(static_cast<std::size_t>(vr))
      ->drops[static_cast<std::size_t>(cause)];
}

std::uint64_t LvrmSystem::queue_drops(const DropTally& t) {
  return t[static_cast<std::size_t>(DropCause::kQueueFull)] +
         t[static_cast<std::size_t>(DropCause::kVriInactive)] +
         t[static_cast<std::size_t>(DropCause::kVriDestroyed)];
}

OverloadLevel LvrmSystem::overload_level(int vr) const {
  return vrs_.at(static_cast<std::size_t>(vr))->level;
}

double LvrmSystem::sample_rate(int vr) const {
  return vrs_.at(static_cast<std::size_t>(vr))->sample_rate;
}

std::uint64_t LvrmSystem::vr_frames_in(int vr) const {
  return vrs_.at(static_cast<std::size_t>(vr))->frames_in;
}

double LvrmSystem::vr_offered_estimate(int vr) const {
  return vrs_.at(static_cast<std::size_t>(vr))->offered_estimate;
}

double LvrmSystem::capacity_estimate(int vr) const {
  return allocator_->capacity_fps(
      alloc_view(*vrs_.at(static_cast<std::size_t>(vr))));
}

const Dispatcher& LvrmSystem::dispatcher(int vr) const {
  return *vrs_.at(static_cast<std::size_t>(vr))->dispatchers.front();
}

const Dispatcher& LvrmSystem::dispatcher(int vr, int shard) const {
  return *vrs_.at(static_cast<std::size_t>(vr))
              ->dispatchers.at(static_cast<std::size_t>(shard));
}

void LvrmSystem::reset_accounting() {
  for (auto& c : cores_) c->reset_accounting();
}

Nanos LvrmSystem::vr_pipeline_latency(int vr) const {
  return vrs_.at(static_cast<std::size_t>(vr))->pipeline_latency;
}

// --- telemetry (DESIGN.md §10) ------------------------------------------------------

void LvrmSystem::audit_vri_change(VrState& vr, VriSlot& slot, bool create,
                                  bool from_recovery) {
  if (!telemetry_) return;
  // The cause fields capture the allocator's picture at decision time, so
  // the trail answers "why" without re-running the estimator. The threshold
  // is the capacity the rate was compared against, i.e. at the PRE-change
  // VRI count (alloc_view already reflects the change).
  VrAllocView view = alloc_view(vr);
  obs::AuditEvent e;
  e.time = sim_.now();
  e.until = e.time;
  e.kind = create ? obs::AuditKind::kVriCreate : obs::AuditKind::kVriDestroy;
  e.vr = static_cast<std::int16_t>(vr.id);
  e.vri = static_cast<std::int16_t>(slot.index);
  e.shard = static_cast<std::int16_t>(slot.home_shard);
  e.numa_tier = static_cast<std::int8_t>(slot.numa_tier);
  e.rate = view.arrival_rate_fps;
  view.active_vris += create ? -1 : 1;
  e.threshold = allocator_->capacity_fps(view);
  e.service = view.service_rate_per_vri;
  e.a = vr.active_order.size();  // VRI count after the change
  e.b = slot.core_id == sim::kNoCore
            ? ~std::uint64_t{0}
            : static_cast<std::uint64_t>(slot.core_id);
  e.c = from_recovery ? 1 : 0;
  telemetry_->audit().record(e);
}

obs::PathSpan LvrmSystem::span_of(const net::FrameMeta& f,
                                  std::uint8_t terminal) const {
  obs::PathSpan s;
  s.frame_id = f.id;
  s.vr = f.dispatch_vr;
  s.vri = f.dispatch_vri;
  s.shard = f.dispatch_shard;
  s.gw_in = f.gw_in_at;
  s.rx_serve = f.obs_rx_at;
  s.enq = f.obs_enq_at;
  s.svc_start = f.obs_svc_at;
  s.svc_end = f.obs_done_at;
  s.gw_out = f.gw_out_at;
  s.terminal = terminal;
  return s;
}

void LvrmSystem::note_drop(const net::FrameMeta& f, DropCause cause) {
  const auto c = static_cast<std::size_t>(cause);
  ++drops_[c];
  if (f.dispatch_vr >= 0 && f.dispatch_vr < vr_count())
    ++vrs_[static_cast<std::size_t>(f.dispatch_vr)]->drops[c];
  // §16: a sprayed frame that dies anywhere leaves a hole in its spray
  // sequence — tombstone it so the TX sequencer can release past it
  // instead of stalling until the reorder window overflows.
  if (replication_ && f.sprayed) seq_skip(f);
  if (tracer_) trace_drop(f, cause);
  if (drop_hook_) drop_hook_(f, cause);
}

void LvrmSystem::trace_drop(const net::FrameMeta& f, DropCause cause) {
  // Every drop/shed/quarantine exit funnels through note_drop, so this one
  // hook gives the flight recorder (and sampled spans) the terminal hop of
  // every frame that never reached TX.
  const Nanos t = sim_.now();
  tracer_->record(f.dispatch_shard, obs::TraceHop::kDrop, f.id, f.dispatch_vr,
                  f.dispatch_vri, t, static_cast<std::uint32_t>(cause),
                  f.obs_sampled != 0);
  if (f.obs_sampled)
    tracer_->add_span(
        span_of(f, static_cast<std::uint8_t>(static_cast<int>(cause) + 1)));
}

void LvrmSystem::trace_flight_dump(obs::FlightDumpCause cause, int shard,
                                   int vr, int vri) {
  const std::uint64_t seq = tracer_->dump(sim_.now(), cause, shard, vr, vri);
  if (!telemetry_) return;
  obs::AuditEvent e;
  e.time = sim_.now();
  e.until = e.time;
  e.kind = obs::AuditKind::kFlightDump;
  e.vr = static_cast<std::int16_t>(vr);
  e.vri = static_cast<std::int16_t>(vri);
  e.shard = static_cast<std::int16_t>(shard);
  e.cause = static_cast<std::uint8_t>(cause);
  e.a = tracer_->last_dump_records();
  e.b = seq;
  e.c = tracer_->records_total();
  telemetry_->audit().record(e);
}

void LvrmSystem::audit_balance(Nanos now) {
  for (auto& vrp : vrs_) {
    VrState& vr = *vrp;
    const DispatchStats stats = vr.dispatch_stats();
    const std::uint64_t decisions = stats.decisions;
    const std::uint64_t hits = stats.flow_hits;
    if (decisions != vr.summary_decisions) {
      obs::AuditEvent e;
      e.time = now;
      e.until = now;
      e.kind = obs::AuditKind::kBalanceSummary;
      e.vr = static_cast<std::int16_t>(vr.id);
      e.rate = arrival_rate_estimate(vr.id);
      e.service = measured_service_rate(vr);
      e.a = decisions - vr.summary_decisions;
      e.b = hits - vr.summary_hits;
      e.c = vr.active_order.size();
      telemetry_->audit().record(e);
      vr.summary_decisions = decisions;
      vr.summary_hits = hits;
    }
  }
}

void LvrmSystem::register_metrics() {
  // The one registration block: every series reads, at snapshot time, a
  // tally or estimate the system keeps anyway, so the data path pays
  // nothing for it. A family whose feature is off is never registered, and
  // the per-shard families exist only on a sharded plane, so such exports
  // stay byte-identical to the builds before that feature. Each kind is
  // exported in registration order.
  obs::MetricsRegistry& m = telemetry_->metrics();
  const auto tally = [](const std::uint64_t& v) { return [&v] { return v; }; };
  const auto gauge = [&m](const char* name, const std::string& labels,
                          auto read) {
    m.gauge(name, labels, [read] { return static_cast<double>(read()); });
  };
  const auto label = [](const char* key, int id) {
    return std::string(key) + "=\"" + std::to_string(id) + "\"";
  };
  const auto over_shards = [this](auto per_shard) {
    return [this, per_shard] {
      std::uint64_t total = 0;
      for (const DispatchShard& sh : shards_) total += per_shard(sh);
      return total;
    };
  };
  const auto cause = [](DropCause c) { return static_cast<std::size_t>(c); };
  const bool sharded = shards_.size() > 1;

  m.counter("lvrm_rx_frames_total", {},
            over_shards([](const DispatchShard& sh) { return sh.rx_served; }));
  m.counter("lvrm_tx_frames_total", {}, [this] { return forwarded(); });
  if (sharded) {
    for (const DispatchShard& sh : shards_) {
      const std::string l = label("shard", sh.id);
      m.counter("lvrm_rx_frames_total", l, tally(sh.rx_served));
      m.counter("lvrm_tx_frames_total", l, tally(sh.tx_frames));
    }
  }
  if (config_.overload_control.enabled) {
    m.counter("lvrm_sampled_shed_total", {},
              tally(drops_[cause(DropCause::kSampledShed)]));
    m.counter("lvrm_admission_rejected_total", {},
              tally(drops_[cause(DropCause::kAdmissionReject)]));
  }
  if (replication_) {
    m.counter("lvrm_sprayed_frames_total", {}, tally(sprayed_frames_));
    m.counter("lvrm_spray_activations_total", {}, tally(spray_activations_));
    m.counter("lvrm_state_deltas_sent_total", {}, tally(deltas_sent_));
    m.counter("lvrm_state_deltas_applied_total", {}, tally(deltas_applied_));
    m.counter("lvrm_seq_holds_total", {}, tally(seq_holds_));
    m.counter("lvrm_seq_gap_skips_total", {}, tally(seq_gap_skips_));
    m.counter("lvrm_seq_window_overflow_total", {},
              tally(seq_window_overflows_));
  }
  if (stealing_) {
    m.counter("lvrm_vri_steals_total", {}, tally(vri_steals_));
    m.counter("lvrm_vri_steal_frames_total", {}, tally(vri_steal_frames_));
  }

  gauge("lvrm_rx_ring_depth", {}, over_shards([](const DispatchShard& sh) {
          return sh.rx_ring->size();
        }));
  gauge("lvrm_rx_ring_drops", {}, [this] { return rx_ring_drops(); });
  gauge("lvrm_poll_serve_events", {}, over_shards([](const DispatchShard& sh) {
          return sh.server->served();
        }));
  if (sharded) {
    for (const DispatchShard& sh : shards_) {
      const std::string l = label("shard", sh.id);
      gauge("lvrm_rx_ring_depth", l, [&sh] { return sh.rx_ring->size(); });
      gauge("lvrm_rx_ring_drops", l, [&sh] { return sh.rx_ring->drops(); });
      gauge("lvrm_poll_serve_events", l,
            [&sh] { return sh.server->served(); });
      gauge("lvrm_shard_rx_admitted", l, tally(sh.rx_admitted));
      gauge("lvrm_shard_core", l, [&sh] { return sh.core_id; });
    }
  }
  if (tracer_) {
    const obs::Tracer& t = *tracer_;
    gauge("lvrm_trace_sample_every", {}, [&t] { return t.sample_every(); });
    gauge("lvrm_trace_adaptations", {}, [&t] { return t.adaptations(); });
    gauge("lvrm_trace_records_total", {}, [&t] { return t.records_total(); });
    gauge("lvrm_trace_spans", {}, [&t] { return t.spans().size(); });
    gauge("lvrm_trace_spans_dropped", {}, [&t] { return t.spans_dropped(); });
    gauge("lvrm_flight_dumps", {}, [&t] { return t.dumps_taken(); });
  }
  const obs::AuditTrail& audit = telemetry_->audit();
  gauge("lvrm_audit_events", {}, [&audit] { return audit.total(); });
  gauge("lvrm_audit_overwritten", {}, [&audit] { return audit.overwritten(); });
  if (replication_) {
    gauge("lvrm_spray_active_flows", {},
          [this] { return spray_active_flows(); });
    gauge("lvrm_seq_held_frames", {}, [this] { return seq_held_frames(); });
  }
  // §17 fabric inventory. Reclaimed headroom = what an SPSC mesh would have
  // reserved minus what the fabric actually reserves.
  gauge("lvrm_fabric_rings", {}, [this] { return fabric_ring_count(); });
  gauge("lvrm_mesh_rings", {}, [this] { return mesh_ring_count(); });
  gauge("lvrm_fabric_reclaimed_bytes", {}, [this] {
    const std::size_t mesh = mesh_ring_bytes();
    const std::size_t fabric = fabric_ring_bytes();
    return mesh > fabric ? mesh - fabric : 0;
  });
  if (stealing_) {
    gauge("lvrm_vri_steals", {}, tally(vri_steals_));
    gauge("lvrm_vri_steal_frames", {}, tally(vri_steal_frames_));
  }

  for (const auto& vrp : vrs_) {
    const VrState& vr = *vrp;
    const std::string l = label("vr", vr.id);
    gauge("lvrm_active_vris", l, [&vr] { return vr.active_order.size(); });
    gauge("lvrm_arrival_rate_fps", l,
          [this, &vr] { return arrival_rate_estimate(vr.id); });
    gauge("lvrm_service_rate_fps", l,
          [this, &vr] { return measured_service_rate(vr); });
    gauge("lvrm_capacity_fps", l,
          [this, &vr] { return allocator_->capacity_fps(alloc_view(vr)); });
    gauge("lvrm_frames_in", l, tally(vr.frames_in));
    gauge("lvrm_forwarded", l, [this, &vr] { return vr_forwarded(vr.id); });
    gauge("lvrm_data_queue_drops", l, [&vr] { return queue_drops(vr.drops); });
    gauge("lvrm_dispatch_decisions", l,
          [&vr] { return vr.dispatch_stats().decisions; });
    gauge("lvrm_flow_probes", l,
          [&vr] { return vr.dispatch_stats().flow_probes; });
    gauge("lvrm_flow_hits", l, [&vr] { return vr.dispatch_stats().flow_hits; });
    gauge("lvrm_data_queue_depth", l, [&vr] {
      std::size_t depth = 0;
      for (int idx : vr.active_order)
        depth += vr.slots[static_cast<std::size_t>(idx)]->data_in->size();
      return depth;
    });
    if (config_.overload_control.enabled) {
      gauge("lvrm_overload_level", l,
            [&vr] { return static_cast<int>(vr.level); });
      gauge("lvrm_overload_sample_rate", l, [&vr] { return vr.sample_rate; });
      gauge("lvrm_offered_estimate", l, [&vr] { return vr.offered_estimate; });
      gauge("lvrm_sampled_shed", l,
            tally(vr.drops[cause(DropCause::kSampledShed)]));
      gauge("lvrm_admission_rejected", l,
            tally(vr.drops[cause(DropCause::kAdmissionReject)]));
    }
  }
}

bool LvrmSystem::export_telemetry(const std::string& prefix) {
  return telemetry_ &&
         telemetry_->export_files(prefix, sim_.now(),
                                  tracer_ ? &tracer_->spans() : nullptr);
}

}  // namespace lvrm
