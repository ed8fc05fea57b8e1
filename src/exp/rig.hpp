// rig.hpp — LvrmRig: one LVRM world fed from RAM, the way the paper measures
// LVRM on its own ("LVRM reads the frames from RAM as fast as possible",
// Exp 1c/1d). The rig owns the simulator, topology, system, fault injector
// and an InvariantChecker fed by the drop hook and the egress callback, and
// it counts every frame it offers, so a caller reads per-flow FIFO, shard
// affinity and conservation from the checker instead of keeping its own
// maps. Traffic comes from sources the rig keeps: a paced emitter (offer),
// a refill burst that keeps the RX rings stocked (refill) and an
// elephant-and-mice credit generator (credit).
//
// The RAM-trace trials, their benches and the tests/lvrm suites build their
// worlds here. A trial reads its results, then drain() stops the sources,
// runs the simulator dry and returns the checker's conservation verdict.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "lvrm/fault_injector.hpp"
#include "lvrm/invariants.hpp"
#include "lvrm/system.hpp"
#include "sim/costs.hpp"

namespace lvrm::exp {

/// Builds the frame with id `n`.
using FrameMaker = std::function<net::FrameMeta(std::uint64_t n)>;

/// `flows` flows from 10.1.0.1 to 10.2.0.1 on source ports
/// 1000 + (n + 1) % flows.
FrameMaker port_flows(int flows = 32);

/// `flows` flows (flow = n % flows) from 10.1.0.1 + flow / 16, source port
/// 2000 + flow % 16, to 10.2.0.1: distinct 5-tuples for the RSS hash.
FrameMaker spread_flows(int flows = 64);

/// One portless flow from `src` to 10.2.0.1.
FrameMaker host_flow(net::Ipv4Addr src = net::ipv4(10, 1, 0, 1));

/// The RAM trace of Exp 1c/1d and 5: `flows` 5-tuples taken in turn
/// (flow = n % flows) from 10.1.0.1 + flow / 64, source port
/// 9000 + flow % 64, to port 9 of 10.2.0.1 + flow / 64; `bytes` on the wire.
FrameMaker trace_flows(int flows, int bytes = 84);

/// Frame `id` of the UDP flow on `src_port` from 10.1.0.1 to 10.2.0.1:9,
/// `bytes` on the wire.
net::FrameMeta port_frame(std::uint16_t src_port, std::uint64_t id,
                          int bytes = 84);

/// The trace-from-RAM gateway of Exp 1c: the memory socket adapter and a
/// fixed VRI set.
LvrmConfig ram_config();

struct LvrmRig {
  static constexpr Nanos kNever = std::numeric_limits<Nanos>::max();
  /// credit()'s elephant flow's source port; mouse m uses 9000 + m.
  static constexpr std::uint16_t kElephantPort = 7000;

  sim::Simulator sim;
  sim::CpuTopology topo;
  std::unique_ptr<LvrmSystem> sys;
  std::unique_ptr<FaultInjector> faults;
  InvariantChecker check;
  bool keep_egress = false;          // set before the run to fill `out`
  std::vector<net::FrameMeta> out;   // egressed frames, in egress order
  RunningStats latency_us;           // gateway in to egress, every frame
  /// Egress observer: sees every egressed frame after the checker.
  std::function<void(const net::FrameMeta&)> on_egress;
  std::uint64_t next_id = 0;         // id of the next frame offer() makes

  LvrmRig(const LvrmConfig& cfg, const std::vector<VrConfig>& vrs);

  /// One VR of `vris` initial VRIs, each frame costing `dummy_load` (1/60 ms
  /// by default: 60 Kfps per VRI).
  explicit LvrmRig(const LvrmConfig& cfg = {}, int vris = 1,
                   Nanos dummy_load = sim::costs::kDummyLoad);

  // The system's callbacks and the sources hold `this`.
  LvrmRig(const LvrmRig&) = delete;
  LvrmRig& operator=(const LvrmRig&) = delete;

  static VrConfig one_vr(int vris, Nanos dummy_load);

  /// Offers `f` to the system and counts it.
  bool ingress(const net::FrameMeta& f);

  /// Calls `step` at `from`, then again after each delay it returns, until
  /// it returns a negative delay or drain() is called. The source lives in
  /// the rig and reschedules itself through a reference to its own slot: a
  /// self-capturing shared_ptr would leak a cycle.
  void source(Nanos from, std::function<Nanos()> step);

  /// Offers `fps` frames per second of `make(next_id++)` over [from, until).
  void offer(double fps, Nanos until, FrameMaker make = port_flows(),
             Nanos from = 0);

  /// Frame `seq` of refill lane `lane`.
  using LaneMaker =
      std::function<net::FrameMeta(std::size_t lane, std::uint64_t seq)>;

  /// Every `every` from 0 until `until`, offers up to `burst` frames and
  /// stops at the first one an RX ring refuses. Attempts take the `lanes`
  /// lanes in turn, and a lane's sequence number advances only when its
  /// frame is accepted, so a refused frame is offered again on the lane's
  /// next turn.
  void refill(int burst, std::size_t lanes, LaneMaker make, Nanos every,
              Nanos until = kNever);
  /// One lane of `make(n)` every 50 us: the RX rings stay stocked, and n
  /// advances only on an accepted frame.
  void refill(int burst, FrameMaker make);

  /// Per-flow credit traffic, every 20 us until `until`: one elephant on
  /// kElephantPort accrues elephant_fps and `mice` flows on 9000 + m share
  /// mice_fps; fractional credit carries over, so the long-run rates are
  /// exact. Frame ids are per-flow sequence numbers that advance only on an
  /// accepted frame, so a FIFO regression is an external reordering.
  void credit(double elephant_fps, int mice, double mice_fps, int bytes,
              Nanos until = kNever);

  /// Stops every source at its next turn, runs the simulator dry and
  /// returns conservation().
  std::string drain();

  std::uint64_t sent() const { return check.offered(); }
  std::uint64_t delivered() const { return check.delivered(); }
  /// The checker's verdicts: empty when they hold, otherwise what broke.
  std::string conservation() const { return check.conservation(*sys); }
  std::string verdict() const { return check.verdict(*sys); }

 private:
  std::deque<std::function<void()>> sources_;
  bool stopped_ = false;
};

}  // namespace lvrm::exp
