// system.hpp — LvrmSystem: the assembled load-aware virtual router monitor.
//
// This wires every Chapter 3 component into the Fig 3.1 hierarchy on top of
// the simulated gateway:
//
//   socket adapter -> [LVRM poll loop on its pinned core]
//        |   classify by source IP -> VR monitor (core allocation, Fig 3.2)
//        |   -> VRI monitor (load balancing, Fig 3.3)
//        |   -> VRI adapter (load estimation, Fig 3.4) -> data queue
//        v
//   [VRI poll loops, one per allocated core] -> outgoing data queues
//        -> LVRM TX -> socket adapter -> egress
//
// Control queues outrank data queues at both LVRM and the VRIs (Sec 2.1).
// Every queue carries an inline FrameMeta. Shared-memory segment ids are
// allocated through ShmArena following the shmget()-identifier protocol of
// Sec 3.8, in the §17 fabric layout: one ingress link and two control rings
// per VRI, one TX link per dispatcher shard.
//
// With `LvrmConfig::dispatch_shards` > 1 the dispatch plane itself is
// replicated (DESIGN.md §11): N dispatcher shards, each with its own socket
// adapter, RX ring, poll loop on its own core, and per-VR flow table +
// balancer. An RSS-style hash of the 5-tuple steers every frame of a flow
// to one shard at ingress, so flow affinity — and therefore per-flow frame
// ordering — is preserved end to end without any cross-shard locking.
// Shard 0 doubles as the management plane (core allocation, health,
// telemetry snapshots run off its sink); with one shard the system is
// bit-identical to the paper's single-dispatcher gateway.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "lvrm/config.hpp"
#include "lvrm/core_allocator.hpp"
#include "lvrm/health_monitor.hpp"
#include "lvrm/load_balancer.hpp"
#include "lvrm/load_estimator.hpp"
#include "lvrm/socket_adapter.hpp"
#include "lvrm/vri.hpp"
#include "net/frame.hpp"
#include "queue/shm_arena.hpp"
#include "sim/core.hpp"
#include "sim/poll_server.hpp"
#include "sim/queue.hpp"
#include "sim/simulator.hpp"
#include "sim/topology.hpp"

namespace lvrm {

/// One entry of the allocation log (drives Figs 4.10-4.13).
struct AllocationEvent {
  Nanos time = 0;
  int vr = -1;
  bool create = false;       // false = deallocation
  Nanos reaction = 0;        // begin-iterate .. end-create/destroy (Fig 4.11)
  int vr_vris_after = 0;     // VRIs of this VR after the action
  int total_vris_after = 0;  // VRIs across all VRs after the action
};

/// One reset-free VRI drain (DESIGN.md §13; drives Exp 6). Unlike the
/// crash path, the drained incarnation stays warm: its router keeps the
/// applied route state, so a later activation needs no fork and no
/// route-log replay.
struct DrainEvent {
  Nanos time = 0;
  int vr = -1;
  int vri = -1;
  DrainCause cause = DrainCause::kDecommission;
  std::size_t migrated = 0;       // queued frames moved to sibling VRIs
  std::size_t dropped = 0;        // overflow: the survivors were saturated
  std::size_t flows_evicted = 0;  // flow pins released for re-balancing
  /// Worst sibling's control-handoff apply latency (Charon-style ownership
  /// transfer over the control rings); 0 until the slowest sibling acks.
  Nanos handoff_latency = 0;
};

/// One health-monitor recovery action (drives the MTTR bench).
struct RecoveryEvent {
  Nanos time = 0;  // detection time (the health pass that fired the verdict)
  int vr = -1;
  int vri = -1;
  VriHealth reason = VriHealth::kHealthy;
  Nanos stalled_for = 0;        // progress-stall age at detection
  std::size_t stranded = 0;     // frames found in the dead incarnation's queue
  std::size_t redispatched = 0; // of those, rescued onto surviving VRIs
  bool respawned = false;       // a replacement incarnation was started
};

class LvrmSystem {
 public:
  LvrmSystem(sim::Simulator& sim, const sim::CpuTopology& topo,
             LvrmConfig config);
  ~LvrmSystem();
  LvrmSystem(const LvrmSystem&) = delete;
  LvrmSystem& operator=(const LvrmSystem&) = delete;

  /// Registers a VR before start(). Returns the VR id.
  int add_vr(VrConfig config);

  /// Activates initial VRIs and starts the LVRM poll loop.
  void start();

  /// Frame arrival at the gateway's input (from the NIC ring / RAM trace).
  /// Returns false when the adapter's RX ring is full (tail drop).
  bool ingress(net::FrameMeta frame);

  /// Invoked (at the TX completion time) for every forwarded frame.
  void set_egress(std::function<void(net::FrameMeta&&)> egress) {
    egress_ = std::move(egress);
  }

  /// Sends a control event from one VRI of `vr` to another through the
  /// control queues; `on_delivered` receives the end-to-end latency when the
  /// destination VRI consumes it (Exp 1e). `kind` selects the consumption
  /// cost at the destination: kControl pays the full control-event cost,
  /// kStateDelta pays only the §16 delta-apply cost — state deltas ride the
  /// same rings but arrive orders of magnitude more often.
  void send_control(int vr, int src_vri, int dst_vri, std::size_t bytes,
                    std::function<void(Nanos)> on_delivered,
                    net::FrameKind kind = net::FrameKind::kControl);

  /// Failure injection: the VRI process dies (as if it crashed or was
  /// OOM-killed). LVRM only notices at its next allocation pass — the same
  /// once-per-period loop that runs Fig 3.2 — which reaps the corpse, frees
  /// its core, evicts its flow pins, and (fixed allocator) respawns a
  /// replacement; the dynamic allocators regrow capacity on their own.
  /// Frames queued at the dead VRI are lost, as with Fig 3.2's destroy.
  void inject_vri_crash(int vr, int vri);

  /// Failure injection (fail-slow family; see fault_injector.hpp): the VRI
  /// process stalls but stays alive — waitpid() never reaps it, so only the
  /// health monitor's heartbeat can notice. clear_vri_hang models a
  /// transient stall (e.g. a long GC pause) resolving on its own.
  void inject_vri_hang(int vr, int vri);
  void clear_vri_hang(int vr, int vri);

  /// Multiplies the VRI incarnation's per-frame service cost (a sick
  /// process); 1.0 restores full speed. Cleared by a respawn.
  void inject_vri_slowdown(int vr, int vri, double multiplier);

  /// Control events relayed to this VRI are dropped with this probability
  /// (lossy control path); 0 restores reliability. Cleared by a respawn.
  void inject_control_loss(int vr, int vri, double drop_probability);

  /// Failure injection (FaultKind::kOverloadBurst): a synthetic flash crowd
  /// aimed at `vr` — `fps` extra frames per second pushed straight into
  /// ingress() for `duration`. The burst cycles 64 synthetic flows inside
  /// the VR's first subnet, so it competes with real traffic for the same
  /// rings and queues the ladder protects.
  void inject_overload_burst(int vr, double fps, Nanos duration);
  /// Synthetic frames the overload bursts have offered to ingress() so far.
  std::uint64_t burst_frames() const { return burst_seq_; }

  /// Reset-free decommission (DESIGN.md §13): stops the VRI, migrates its
  /// queued frames and flow pins to the surviving siblings through the
  /// normal dispatch path (per-flow order preserved), and hands ownership
  /// over via control events — no frames dropped unless the survivors are
  /// saturated, no route-log replay on a later reactivation. Returns false
  /// when the slot is not active (or has crashed — a corpse cannot drain).
  bool decommission_vri(int vr, int vri);

  /// Every reset-free drain so far (allocator destroy or fail-slow
  /// quarantine with `overload_control.enabled`, or explicit
  /// decommission_vri), in order.
  const std::vector<DrainEvent>& drain_log() const { return drain_log_; }
  /// Flow pins migrated to siblings across all drains.
  std::uint64_t flows_migrated() const { return flows_migrated_; }

  /// VRIs reaped after crashes, across all VRs.
  std::uint64_t crashed_vris_reaped() const { return crashes_reaped_; }

  /// Health-monitor recovery actions (empty unless config.health.enabled).
  const std::vector<RecoveryEvent>& recovery_log() const {
    return recovery_log_;
  }
  /// Frames rescued from dead/hung VRIs' queues and re-dispatched.
  std::uint64_t redispatched_frames() const { return redispatched_; }
  /// The health monitor, or nullptr when disabled.
  const HealthMonitor* health() const { return health_.get(); }

  /// Dynamic routing (Sec 3.7): `src_vri` of `vr` learns a route update,
  /// applies it locally, and synchronizes it to the sibling VRIs over the
  /// control queues (the Sec 2.1 routing-state sync). Inactive VRIs receive
  /// it directly so later activations start consistent. `on_synced` (may be
  /// empty) fires when the slowest sibling has applied it, with that
  /// worst-case latency.
  void broadcast_route_update(int vr, int src_vri,
                              const route::RouteUpdate& update,
                              std::function<void(Nanos)> on_synced = {});

  // --- introspection / statistics ------------------------------------------
  int vr_count() const { return static_cast<int>(vrs_.size()); }
  int active_vris(int vr) const;
  /// Core ids currently running this VR's VRIs, in activation order.
  std::vector<sim::CoreId> vri_cores(int vr) const;
  double arrival_rate_estimate(int vr) const;   // frames/s (EWMA)
  double service_rate_estimate(int vr) const;   // frames/s per VRI (measured)

  /// Frames egressed: the sum of the per-shard TX tallies, and of one VR's
  /// per-VRI tallies.
  std::uint64_t forwarded() const;
  std::uint64_t vr_forwarded(int vr) const;
  std::uint64_t vri_forwarded(int vr, int vri) const;
  /// Tail drops across every shard's RX ring (one ring with one shard). This
  /// reads the rings' own counts, so it checks the drop ledger below.
  std::uint64_t rx_ring_drops() const {
    std::uint64_t total = 0;
    for (const auto& sh : shards_) total += sh.rx_ring->drops();
    return total;
  }
  /// The drop ledger: frames dropped with `cause`, system-wide and per VR
  /// (the VR the frame was classified to). note_drop is the one place a
  /// drop is counted.
  std::uint64_t drops(DropCause cause) const {
    return drops_[static_cast<std::size_t>(cause)];
  }
  std::uint64_t vr_drops(int vr, DropCause cause) const;
  /// Drops at the VRIs' data queues: kQueueFull + kVriInactive +
  /// kVriDestroyed.
  std::uint64_t data_queue_drops() const { return queue_drops(drops_); }

  // --- overload ladder (DESIGN.md §13) --------------------------------------
  /// Floor of the ladder's per-flow sampling rate: even a worst-case flood
  /// keeps this fraction of flows fully monitored.
  static constexpr double kMinSampleRate = 1.0 / 64.0;
  /// The VR's current degradation-ladder level (kNormal unless
  /// `overload_control.enabled`).
  OverloadLevel overload_level(int vr) const;
  /// The VR's current per-flow sampling rate (1.0 at kNormal, never below
  /// kMinSampleRate).
  double sample_rate(int vr) const;
  /// Frames classified to this VR after ring admission (includes frames the
  /// sampling subset later shed) — the ground truth the bias-corrected
  /// estimate reconstructs.
  std::uint64_t vr_frames_in(int vr) const;
  /// Bias-corrected offered-load estimate: every frame admitted past the
  /// sampling subset adds 1/rate, so the sum is an unbiased reconstruction
  /// of `vr_frames_in + vr_drops(vr, DropCause::kAdmissionReject)` whatever
  /// the ladder did.
  double vr_offered_estimate(int vr) const;

  // --- state replication (DESIGN.md §16) ------------------------------------
  // All zero unless `config.state_replication.enabled`.
  /// Frames dispatched past their flow pin by the spray path.
  std::uint64_t sprayed_frames() const { return sprayed_frames_; }
  /// Flows promoted to spraying (one per completed snapshot handshake).
  std::uint64_t spray_activations() const { return spray_activations_; }
  /// Per-frame state deltas relayed to siblings / applied at delivery.
  std::uint64_t deltas_sent() const { return deltas_sent_; }
  std::uint64_t deltas_applied() const { return deltas_applied_; }
  /// TX sequencer activity: frames parked for an earlier sequence number,
  /// holes released by a drop tombstone, and force-releases when the reorder
  /// window overflowed (the only case external order can be violated).
  std::uint64_t seq_holds() const { return seq_holds_; }
  std::uint64_t seq_gap_skips() const { return seq_gap_skips_; }
  std::uint64_t seq_window_overflows() const { return seq_window_overflows_; }
  /// Flows currently in the spray set / frames parked in sequencers.
  std::size_t spray_active_flows() const;
  std::size_t seq_held_frames() const;

  /// Test/harness hook invoked once per dropped frame with its cause — the
  /// conservation check `delivered + every cause == offered` per flow
  /// class. Null (the default) costs the hot path one pointer check.
  using DropHook = std::function<void(const net::FrameMeta&, DropCause)>;
  void set_drop_hook(DropHook hook) { drop_hook_ = std::move(hook); }
  /// The allocator's aggregate capacity estimate for this VR (frames/s).
  double capacity_estimate(int vr) const;

  const std::vector<AllocationEvent>& allocation_log() const {
    return alloc_log_;
  }

  sim::Core& core(sim::CoreId id) { return *cores_.at(static_cast<std::size_t>(id)); }
  const sim::Core& core(sim::CoreId id) const {
    return *cores_.at(static_cast<std::size_t>(id));
  }
  sim::Core& lvrm_core() { return core(config_.lvrm_core); }
  const SocketAdapter& adapter() const { return *shards_.front().adapter; }
  const LvrmConfig& config() const { return config_; }
  const queue::ShmArena& shm() const { return arena_; }
  /// Shard 0's dispatcher for `vr` (the only one with dispatch_shards=1).
  const Dispatcher& dispatcher(int vr) const;
  /// A specific shard's dispatcher for `vr`.
  const Dispatcher& dispatcher(int vr, int shard) const;

  // --- sharded dispatch plane (DESIGN.md §11) -------------------------------
  int shard_count() const { return static_cast<int>(shards_.size()); }
  /// Core the given dispatcher shard's poll loop is pinned to.
  sim::CoreId shard_core(int shard) const {
    return shards_.at(static_cast<std::size_t>(shard)).core_id;
  }
  /// Frames admitted through this shard's RX ring since start.
  std::uint64_t shard_rx_admitted(int shard) const {
    return shards_.at(static_cast<std::size_t>(shard)).rx_admitted;
  }
  /// The shard the RSS-style flow hash steers this frame's 5-tuple to.
  int shard_of(const net::FrameMeta& frame) const;

  // --- MPMC fabric & work stealing (DESIGN.md §17) --------------------------
  // The fabric is the only layout the arena allocates: one MPMC ingress
  // link per VRI and one MPMC TX drain per home shard. The mesh figures are
  // the closed-form counterfactual over the *same* shard and VRI-slot
  // geometry: an SPSC mesh needs one ring per (shard, VRI) pair in each data
  // direction. Control rings and RX rings are common to both. These are the
  // numbers behind the `lvrm_fabric_*` gauges and `bench_exp9_fabric`.
  /// Data-plane rings an SPSC mesh would allocate for this geometry.
  std::size_t mesh_ring_count() const;
  /// Data-plane rings the MPMC fabric allocates for this geometry.
  std::size_t fabric_ring_count() const;
  /// Shared-memory bytes those rings pin (headroom), mesh vs fabric. The
  /// difference is the reclaimed-headroom gauge (satellite of §17).
  std::size_t mesh_ring_bytes() const;
  std::size_t fabric_ring_bytes() const;
  /// Work-stealing counters (both zero unless `work_stealing`): ingress
  /// bursts an idle VRI pulled from an overloaded sibling, and the frames
  /// they moved.
  std::uint64_t vri_steals() const { return vri_steals_; }
  std::uint64_t vri_steal_frames() const { return vri_steal_frames_; }

  /// Telemetry layer (DESIGN.md §10), or nullptr when
  /// `config.telemetry.enabled` is false.
  obs::Telemetry* telemetry() { return telemetry_.get(); }
  const obs::Telemetry* telemetry() const { return telemetry_.get(); }

  /// §15 tracer (path spans, per-shard flight recorders, load-adaptive
  /// sampling), or nullptr when `config.tracing.enabled` is false.
  obs::Tracer* tracer() { return tracer_.get(); }
  const obs::Tracer* tracer() const { return tracer_.get(); }

  /// Takes a final snapshot and writes `<prefix>.prom`, `<prefix>.csv` and
  /// `<prefix>.trace.json`. Returns false when telemetry is disabled or a
  /// file could not be opened.
  bool export_telemetry(const std::string& prefix);

  /// Zeroes all per-core accounting (for windowed CPU-usage measurements).
  void reset_accounting();

  /// Extra one-way latency of a given VR's implementation (Click pipeline).
  Nanos vr_pipeline_latency(int vr) const;

 private:
  struct VriSlot;
  struct VrState;
  struct SeqOut;  // §16 per-spray-flow TX sequencer state

  /// Every IPC queue carries the frame inline (DESIGN.md §12).
  using FrameQueue = sim::BoundedQueue<net::FrameMeta>;
  using FrameServer = sim::PollServer<net::FrameMeta>;
  // Queue hops copy frames (push_or_note); a trivially copyable FrameMeta
  // keeps each copy as cheap as a move.
  static_assert(std::is_trivially_copyable_v<net::FrameMeta>);

  /// One dispatcher shard: its own adapter instance, RX ring, and poll loop
  /// pinned to its own core. Shard 0 is the paper's LVRM process (owner 0,
  /// name "lvrm", pinned to config.lvrm_core); it also hosts the management
  /// plane and every VRI's control relay for shard-0-homed slots.
  struct DispatchShard {
    int id = 0;
    sim::CoreId core_id = sim::kNoCore;
    std::unique_ptr<SocketAdapter> adapter;
    std::unique_ptr<FrameQueue> rx_ring;
    std::unique_ptr<FrameServer> server;
    std::uint64_t rx_admitted = 0;  // frames accepted into this shard's ring
    std::uint64_t rx_served = 0;    // frames its poll loop served off the ring
    std::uint64_t tx_frames = 0;    // frames egressed that entered here
    // §17 fabric: this shard's shared TX drain segment (one MPMC link all
    // homed VRIs produce into).
    queue::SegmentId tx_link_shm = queue::kInvalidSegment;
  };

  /// One count per DropCause.
  using DropTally = std::array<std::uint64_t, kDropCauses>;
  static std::uint64_t queue_drops(const DropTally& t);

  /// Counts a drop in the ledger and reports it to the installed hook and
  /// (tracing on) the §15 flight recorder + span collector. Every
  /// drop/shed/quarantine exit point in the system funnels through here,
  /// which is what makes one ledger and one tracer hook cover them all.
  void note_drop(const net::FrameMeta& f, DropCause cause);
  /// Pushes a copy of `f`; when the queue refuses it, reports `f` as
  /// dropped with `cause`.
  bool push_or_note(FrameQueue& q, const net::FrameMeta& f, DropCause cause) {
    if (q.push(f)) return true;
    note_drop(f, cause);
    return false;
  }

  VrState& classify(net::FrameMeta& frame);
  Nanos rx_cost(net::FrameMeta& frame, DispatchShard& shard);
  void rx_sink(net::FrameMeta&& frame);
  void maybe_allocate();
  void reap_crashed();
  void activate_vri(VrState& vr, bool from_recovery = false);
  void activate_slot(VrState& vr, VriSlot& slot, bool from_recovery = false);
  void deactivate_vri(VrState& vr);
  /// Picks a core for a VRI anchored at its home shard's core, applying the
  /// affinity policy with the two-level NUMA preference (DESIGN.md §11).
  NumaPick pick_core(sim::CoreId anchor);
  void release_core(sim::CoreId id);
  void schedule_migration(VriSlot& slot);
  /// Whether a queue operation between these two cores crosses a socket.
  bool cross_socket(sim::CoreId a, sim::CoreId b) const;
  /// Core a dispatcher shard created after shard 0 gets pinned to.
  sim::CoreId pick_shard_core(int shard);
  int total_active_vris() const;
  double measured_service_rate(const VrState& vr) const;
  double vri_departure_rate(const VriSlot& slot) const;
  VrAllocView alloc_view(const VrState& vr) const;
  // Health monitoring & recovery.
  void maybe_health_probe();
  void recover_slot(VrState& vr, VriSlot& slot, VriHealth reason,
                    Nanos stalled_for);
  void rebuild_router(VrState& vr, VriSlot& slot);
  /// Allocates the slot's §17 arena segments (ingress link, control rings).
  void create_slot_segments(VriSlot& slot);
  /// The one step that takes a VRI out of service (destroy, drain, reap,
  /// quarantine): stops its loop, appends its backlog to `backlog` in FIFO
  /// order, leaves the dispatch set, cancels its migration timer, evicts
  /// its flow pins on every shard, audits, releases its core, forgets its
  /// health record and clears `suspect`. Returns the flow pins evicted.
  std::size_t retire_slot(VrState& vr, VriSlot& slot, bool from_recovery,
                          std::vector<net::FrameMeta>& backlog);
  /// The step after retire_slot when the process itself is gone (destroy,
  /// reap, quarantine): its in-flight control events die with it, the
  /// injected faults are cleared, and the next activation forks a fresh
  /// process.
  void bury_process(VriSlot& slot);
  /// Sends one control event of `bytes` from `src` to every other active
  /// VRI of `vr`. `on_ack` (may be empty) runs at each sibling as it
  /// consumes the event; `done` (may be empty) receives the worst latency
  /// when the slowest sibling has acked, at once with 0 when there is none.
  /// A lost leg (injected control loss) means `done` never fires.
  void sync_siblings(VrState& vr, int src, std::size_t bytes,
                     std::function<void(VriSlot&)> on_ack,
                     std::function<void(Nanos)> done);
  /// The one backlog step for a VRI leaving the dispatch set (drain,
  /// destroy, reap, quarantine): with `rescue` and a surviving VRI, the
  /// frames are re-dispatched in order (overflow tail-drops as kQueueFull);
  /// otherwise each is dropped through note_drop as kVriDestroyed. Returns
  /// the frames rescued.
  std::size_t settle_backlog(VrState& vr, std::vector<net::FrameMeta>& frames,
                             bool rescue);
  // Overload ladder (DESIGN.md §13; all no-ops unless
  // config.overload_control.enabled).
  /// Whether the frame's flow falls in the sampling subset at this rate.
  bool in_subset(const net::FrameMeta& f, double rate) const;
  /// Level-2 RX gate; true when the frame was rejected before the ring.
  bool admission_reject(net::FrameMeta& frame);
  /// Level-1 dispatch-time sampling shed (also feeds the window pressure
  /// accounting and the bias-corrected offered estimate).
  bool maybe_sample_shed(VrState& vr, VriSlot& slot, net::FrameMeta& f);
  /// Window adaptation: escalate / relax the VR's sampling rate and level.
  void overload_tick(VrState& vr, Nanos now);
  void set_overload_state(VrState& vr, OverloadLevel level, double rate,
                          double pressure);
  /// Reset-free drain, phase 1: quiesce the slot's server (the in-service
  /// frame completes and egresses; nothing new is popped) and run
  /// finish_drain once it is idle — synchronously when already idle. The
  /// slot stays dispatchable until then so pinned-flow arrivals queue FIFO
  /// behind the backlog instead of racing it to a sibling. `done` (optional)
  /// fires with the completed DrainEvent.
  void drain_slot(VrState& vr, VriSlot& slot, DrainCause cause,
                  std::function<void(const DrainEvent&)> done = {});
  /// Reset-free drain, phase 2: migrate the slot's live queue and flow pins
  /// to the surviving siblings, keep its router state warm for reactivation.
  void finish_drain(VrState& vr, VriSlot& slot, DrainCause cause,
                    const std::function<void(const DrainEvent&)>& done);
  /// One synthetic flash-crowd frame + reschedule (inject_overload_burst).
  void burst_step(int vr, Nanos gap, Nanos until);
  /// Registers every metric series with the telemetry registry (start(),
  /// telemetry on): each reads a tally or estimate kept here anyway.
  void register_metrics();
  // §15 tracing (all no-ops when tracing is disabled / tracer_ is null).
  /// Flight-record + (sampled frames) span-collect a drop exit.
  void trace_drop(const net::FrameMeta& f, DropCause cause);
  /// Snapshot the flight recorders on an incident and audit the dump.
  void trace_flight_dump(obs::FlightDumpCause cause, int shard, int vr,
                         int vri);
  /// The frame's hop timeline as a PathSpan (terminal: 0 = delivered).
  obs::PathSpan span_of(const net::FrameMeta& f, std::uint8_t terminal) const;
  void audit_vri_change(VrState& vr, VriSlot& slot, bool create,
                        bool from_recovery);
  void audit_balance(Nanos now);
  // State replication (DESIGN.md §16; all no-ops unless
  // config.state_replication.enabled → replication_).
  /// Heavy-hitter detection + spray override after the flow-pinned dispatch
  /// decision: counts the flow in its detection window, starts the snapshot
  /// handshake on promotion, stamps spray metadata, and — once the flow is
  /// Active — overrides `chosen` with a per-frame min-load pick.
  int maybe_spray(VrState& vr, DispatchShard& shard, net::FrameMeta& f,
                  std::span<const VriView> views, int chosen, Nanos now);
  /// Copies the flow's state from the owner to every active sibling over
  /// the control rings; the spray goes Active when the slowest acks.
  void start_spray_handshake(VrState& vr, int shard, int owner,
                             const net::FiveTuple& tuple, double rate_fps,
                             double threshold_fps);
  /// Drains the deltas a stateful router queued while processing a sprayed
  /// frame and relays each to the active siblings.
  /// Returns how many deltas were drained (the emit-cost multiplier).
  std::size_t relay_deltas(VrState& vr, VriSlot& slot);
  /// TX-side completion: counters, tracer/telemetry, egress. Split out of
  /// the TX sink so the sequencer can release held frames through it.
  void finish_tx(VrState& vr, net::FrameMeta&& f);
  /// Reorders a sprayed frame back into external arrival order; releases
  /// every in-order frame (and tombstoned hole) through finish_tx.
  void sequence_tx(VrState& vr, net::FrameMeta&& f);
  /// Records a dropped sprayed frame's sequence number as a hole.
  void seq_skip(const net::FrameMeta& f);
  /// Releases the run of consecutive held frames/tombstones at `so.next`.
  void seq_release_run(VrState& vr, SeqOut& so);
  /// Idle-expires spray entries and empty sequencers (1 s cadence, rides
  /// the allocation pass).
  void spray_gc(Nanos now);
  /// Invalidates every shard dispatcher's cached healthy pool for this VR;
  /// called whenever a slot's health/membership could have changed.
  void bump_pool_generation(VrState& vr);
  // §17 idle-VRI work stealing (no-ops unless `work_stealing`).
  /// Idle-VRI ingress steal from an overloaded same-VR sibling. Only
  /// unpinned heads move: frame-granularity frames carry no per-flow FIFO
  /// promise, and Active-sprayed frames are re-sequenced at TX (§16) —
  /// the scan stops at the first pinned head, so a pinned flow's FIFO is
  /// never broken. Returns true when frames were moved.
  bool try_vri_steal(VrState& vr, VriSlot& thief);
  /// Re-polls an idle thief while same-VR siblings still hold stealable
  /// backlog; the timer dies with the VR's queues so the sim can drain.
  void arm_steal_timer(VrState& vr, VriSlot& thief);
  /// Whether the frame's spray entry is Active (replicated state on every
  /// sibling); Pending-sprayed frames stay pinned and must not be stolen.
  bool spray_is_active(const VrState& vr, const net::FrameMeta& f) const;
  /// Rate-limited (1/sim-second) §17 steal audit event.
  void audit_steal(int thief, const VriSlot& victim, std::size_t burst);

  sim::Simulator& sim_;
  sim::CpuTopology topo_;
  LvrmConfig config_;
  Rng rng_;

  std::vector<std::unique_ptr<sim::Core>> cores_;
  std::vector<bool> core_used_;
  queue::ShmArena arena_;

  std::vector<DispatchShard> shards_;  // fixed at construction, never resized
  std::unique_ptr<CoreAllocator> allocator_;

  std::vector<std::unique_ptr<VrState>> vrs_;
  std::function<void(net::FrameMeta&&)> egress_;

  // Initialized so the first allocation pass happens one full period after
  // start ("after 1s or more from the previous core allocation process" —
  // VR start counts as the previous process), by which time the arrival
  // EWMA has real samples.
  Nanos last_alloc_pass_ = 0;
  std::vector<AllocationEvent> alloc_log_;

  std::unique_ptr<HealthMonitor> health_;
  Nanos last_health_probe_ = 0;
  std::vector<RecoveryEvent> recovery_log_;
  std::uint64_t redispatched_ = 0;

  // Overload-resilience layer (DESIGN.md §13).
  DropHook drop_hook_;
  std::vector<DrainEvent> drain_log_;
  std::uint64_t flows_migrated_ = 0;
  /// VRs currently at kAdmission: ingress pays the classify + subset check
  /// only while this is non-zero (one int compare otherwise).
  int admission_active_ = 0;
  std::uint64_t burst_seq_ = 0;  // synthetic overload-burst frame ids

  // RX scratch (reused per frame; no allocation after warm-up): the VriView
  // set that rx_cost hands to the dispatcher.
  std::vector<VriView> views_scratch_;

  // Telemetry layer; one null check gates every hot-path touch.
  std::unique_ptr<obs::Telemetry> telemetry_;

  // §15 tracing layer: per-shard flight recorders + the adaptive sampling
  // controller + the retained path spans. Null unless config.tracing is
  // enabled; every hot-path touch is gated on this one pointer.
  std::unique_ptr<obs::Tracer> tracer_;

  std::uint64_t crashes_reaped_ = 0;
  DropTally drops_{};
  std::uint64_t next_control_id_ = 1;
  std::unordered_map<std::uint64_t, std::function<void(Nanos)>> control_cbs_;

  // State replication (DESIGN.md §16). `replication_` caches the config
  // gate so the hot-path checks (note_drop, the TX sink) stay one bool test
  // with the feature off.
  bool replication_ = false;
  std::uint64_t sprayed_frames_ = 0;
  std::uint64_t spray_activations_ = 0;
  std::uint64_t deltas_sent_ = 0;
  std::uint64_t deltas_applied_ = 0;
  std::uint64_t seq_holds_ = 0;
  std::uint64_t seq_gap_skips_ = 0;
  std::uint64_t seq_window_overflows_ = 0;
  std::uint32_t next_spray_flow_ = 1;
  Nanos last_spray_gc_ = 0;

  // §17 work stealing. `stealing_` caches the config gate so hot-path
  // checks stay one bool.
  bool stealing_ = false;
  std::uint64_t vri_steals_ = 0;
  std::uint64_t vri_steal_frames_ = 0;
  Nanos last_steal_audit_ = -1;  // rate limit: one audit event per second

  bool started_ = false;
};

}  // namespace lvrm
