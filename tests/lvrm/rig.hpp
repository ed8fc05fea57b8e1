// rig.hpp — LvrmRig: the one end-to-end rig the tests/lvrm suites drive
// LvrmSystem through. It owns the simulator, topology, system, fault
// injector and an InvariantChecker fed by the drop hook and the egress
// callback. It counts every frame it offers, so a test reads per-flow FIFO,
// shard affinity and conservation from the checker instead of keeping its
// own maps. Egressed frames are kept only when a test sets keep_egress.
#pragma once

#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "lvrm/fault_injector.hpp"
#include "lvrm/invariants.hpp"
#include "lvrm/system.hpp"
#include "sim/costs.hpp"

namespace lvrm {

/// Builds the frame with id `n`, the rig's n-th offered frame.
using FrameMaker = std::function<net::FrameMeta(std::uint64_t n)>;

/// `flows` flows from 10.1.0.1 to 10.2.0.1 on source ports
/// 1000 + (n + 1) % flows.
inline FrameMaker port_flows(int flows = 32) {
  return [flows](std::uint64_t n) {
    net::FrameMeta f;
    f.id = n;
    f.src_ip = net::ipv4(10, 1, 0, 1);
    f.dst_ip = net::ipv4(10, 2, 0, 1);
    f.src_port = static_cast<std::uint16_t>(
        1000 + (n + 1) % static_cast<std::uint64_t>(flows));
    return f;
  };
}

/// `flows` flows (flow = n % flows) from 10.1.0.1 + flow / 16, source port
/// 2000 + flow % 16, to 10.2.0.1: distinct 5-tuples for the RSS hash.
inline FrameMaker spread_flows(int flows = 64) {
  return [flows](std::uint64_t n) {
    net::FrameMeta f;
    f.id = n;
    const auto flow =
        static_cast<std::uint32_t>(n % static_cast<std::uint64_t>(flows));
    f.src_ip = net::ipv4(10, 1, 0, 1) + (flow >> 4);
    f.dst_ip = net::ipv4(10, 2, 0, 1);
    f.src_port = static_cast<std::uint16_t>(2000 + (flow & 15));
    return f;
  };
}

/// One portless flow from `src` to 10.2.0.1.
inline FrameMaker host_flow(net::Ipv4Addr src = net::ipv4(10, 1, 0, 1)) {
  return [src](std::uint64_t n) {
    net::FrameMeta f;
    f.id = n;
    f.src_ip = src;
    f.dst_ip = net::ipv4(10, 2, 0, 1);
    return f;
  };
}

/// Frame `id` of the UDP flow on `src_port` from 10.1.0.1 to 10.2.0.1:9.
inline net::FrameMeta port_frame(std::uint16_t src_port, std::uint64_t id) {
  net::FrameMeta f;
  f.id = id;
  f.src_ip = net::ipv4(10, 1, 0, 1);
  f.dst_ip = net::ipv4(10, 2, 0, 1);
  f.src_port = src_port;
  f.dst_port = 9;
  return f;
}

struct LvrmRig {
  sim::Simulator sim;
  sim::CpuTopology topo;
  std::unique_ptr<LvrmSystem> sys;
  std::unique_ptr<FaultInjector> faults;
  InvariantChecker check;
  bool keep_egress = false;          // set before the run to fill `out`
  std::vector<net::FrameMeta> out;   // egressed frames, in egress order
  std::uint64_t next_id = 0;         // id of the next frame offer() makes
  std::deque<std::function<void()>> emitters;

  LvrmRig(const LvrmConfig& cfg, const std::vector<VrConfig>& vrs)
      : sys(std::make_unique<LvrmSystem>(sim, topo, cfg)),
        faults(std::make_unique<FaultInjector>(sim, *sys)) {
    for (const VrConfig& vr : vrs) sys->add_vr(vr);
    sys->start();
    check.attach(*sys);
    sys->set_egress([this](net::FrameMeta&& f) {
      check.on_egress(f);
      if (keep_egress) out.push_back(f);
    });
  }

  /// One VR of `vris` initial VRIs, each frame costing `dummy_load` (1/60 ms
  /// by default: 60 Kfps per VRI).
  explicit LvrmRig(const LvrmConfig& cfg = {}, int vris = 1,
                   Nanos dummy_load = sim::costs::kDummyLoad)
      : LvrmRig(cfg, {one_vr(vris, dummy_load)}) {}

  static VrConfig one_vr(int vris, Nanos dummy_load) {
    VrConfig vr;
    vr.initial_vris = vris;
    vr.dummy_load = dummy_load;
    return vr;
  }

  /// Offers `f` to the system and counts it.
  bool ingress(const net::FrameMeta& f) {
    check.offer();
    return sys->ingress(f);
  }

  /// Offers `fps` frames per second over [from, until). The emitter lives in
  /// the rig and reschedules itself through a reference to its own slot: a
  /// self-capturing shared_ptr would leak a cycle.
  void offer(double fps, Nanos until, FrameMaker make = port_flows(),
             Nanos from = 0) {
    std::function<void()>& emit = emitters.emplace_back();
    const Nanos gap = interval_for_rate(fps);
    emit = [this, gap, until, make = std::move(make), &emit] {
      if (sim.now() >= until) return;
      ingress(make(next_id++));
      sim.after(gap, [&emit] { emit(); });
    };
    sim.at(from, [&emit] { emit(); });
  }

  std::uint64_t sent() const { return check.offered(); }
  std::uint64_t delivered() const { return check.delivered(); }

  /// The checker's verdicts as assertions whose failure names what broke.
  ::testing::AssertionResult conserved() const {
    return verdict(check.conservation(*sys));
  }
  ::testing::AssertionResult holds() const {
    return verdict(check.verdict(*sys));
  }
  static ::testing::AssertionResult verdict(const std::string& failures) {
    if (failures.empty()) return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure() << failures;
  }
};

}  // namespace lvrm
