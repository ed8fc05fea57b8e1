// vri.hpp — hosted virtual router implementations (Secs 3.7/3.8).
//
// LVRM hosts "different implementations of VRs, provided that we allow
// minimal changes to the interfaces": a VR implementation only needs to
// consume frames from its data queue and emit them with an output interface
// chosen. Two implementations ship, as in the thesis:
//   * CppVr — "a simple data forwarding program written in C++": a longest-
//     prefix-match route table loaded from a map file; the lightweight
//     option that "eliminates the internal processing overhead in Click".
//   * ClickVr — a forwarding configuration run on the Click-style modular
//     router in src/click: the frame traverses Paint -> Strip ->
//     CheckIPHeader -> GetIPAddress -> LookupIPRoute -> EtherEncap -> ToHost
//     for real, byte-level, per frame.
//
// Each VRI owns a private instance (clone()) initialised from the same
// configuration, mirroring "VRIs that belong to the same VR are expected to
// share the same set of routing policies".
#pragma once

#include <memory>
#include <string>

#include "click/router.hpp"
#include "common/units.hpp"
#include "lvrm/types.hpp"
#include "net/flow.hpp"
#include "net/frame.hpp"
#include "net/state_record.hpp"
#include "route/route_table.hpp"
#include "route/route_update.hpp"

namespace lvrm {

class VirtualRouter {
 public:
  virtual ~VirtualRouter() = default;

  virtual VrKind kind() const = 0;

  /// Processes one frame: routes it (sets frame.output_if) or drops it
  /// (returns false). Runs the real forwarding logic.
  virtual bool process(net::FrameMeta& frame) = 0;

  /// CPU cost the simulator charges per processed frame (calibrated per
  /// implementation; excludes any experiment-added dummy load).
  virtual Nanos process_cost(const net::FrameMeta& frame) const = 0;

  /// Extra one-way latency inherent to the implementation's internal
  /// pipeline (the Click VR's internal Queue element; Fig 4.6).
  virtual Nanos pipeline_latency() const { return 0; }

  /// Applies a dynamic route add/withdraw (Sec 3.7: VRIs support "both
  /// static and dynamic routes without affecting the design of LVRM").
  /// Returns false when the implementation cannot apply it.
  virtual bool apply_route_update(const route::RouteUpdate& update) = 0;

  /// Fresh instance with the same configuration, for a new VRI.
  virtual std::unique_ptr<VirtualRouter> clone() const = 0;

  // --- stateful-VR hooks (DESIGN.md §16, docs/VR_AUTHORING.md) ----------
  // Stateless forwarders keep the no-op defaults. A stateful VR overrides
  // all five: it queues a StateDelta for every per-flow state *change* it
  // makes, LVRM drains the queue with take_delta() after each processed
  // frame and relays the records to sibling VRIs, and apply_delta()
  // installs a relayed record into a sibling's tables. export_flow_state()
  // snapshots one flow's current state for the spray-activation handshake.

  /// True when this VR keeps per-flow state that must be replicated for
  /// sibling VRIs to process the flow's frames correctly.
  virtual bool stateful() const { return false; }

  /// Pops the oldest pending state delta. Returns false when none remain.
  virtual bool take_delta(net::StateDelta& /*out*/) { return false; }

  /// Installs a state record relayed from a sibling VRI. Returns false when
  /// the record kind does not belong to this VR or is stale.
  virtual bool apply_delta(const net::StateDelta& /*delta*/) { return false; }

  /// Snapshots the current state of one flow (spray handshake seeding).
  /// Returns false when the VR has no state for the flow.
  virtual bool export_flow_state(const net::FiveTuple& /*flow*/,
                                 net::StateDelta& /*out*/) const {
    return false;
  }
};

/// Minimal C++ forwarder: LPM route table from a map file.
class CppVr final : public VirtualRouter {
 public:
  /// `route_map` is in parse_route_map() format. Throws on parse errors.
  explicit CppVr(std::string route_map);

  VrKind kind() const override { return VrKind::kCpp; }
  bool process(net::FrameMeta& frame) override;
  Nanos process_cost(const net::FrameMeta& frame) const override;
  bool apply_route_update(const route::RouteUpdate& update) override;
  std::unique_ptr<VirtualRouter> clone() const override;

  const route::RouteTable& table() const { return table_; }

 private:
  std::string route_map_;
  route::RouteTable table_;
};

/// Click Modular Router VR: builds a forwarding element graph from the same
/// route map and pushes real packets through it.
class ClickVr final : public VirtualRouter {
 public:
  /// Throws std::runtime_error when the generated Click config fails to
  /// parse (indicates a bug in config generation).
  explicit ClickVr(std::string route_map);

  /// Hosts a hand-written Click configuration instead of the generated
  /// forwarder (the Sec 3.8 premise: LVRM hosts different implementations
  /// of VRs with minimal interface requirements). The script must declare a
  /// `FromHost` named `in`; a `LookupIPRoute` named `rt` enables dynamic
  /// route updates. The script's routes are its own: `route_map` only seeds
  /// the generated forwarder when `click_script` is empty. Throws
  /// std::runtime_error on parse errors.
  ClickVr(std::string route_map, std::string click_script);

  VrKind kind() const override { return VrKind::kClick; }
  bool process(net::FrameMeta& frame) override;
  Nanos process_cost(const net::FrameMeta& frame) const override;
  Nanos pipeline_latency() const override;
  bool apply_route_update(const route::RouteUpdate& update) override;
  std::unique_ptr<VirtualRouter> clone() const override;

  const click::Router& router() const { return router_; }
  std::uint64_t graph_frames() const { return graph_frames_; }

  /// The generated Click configuration script (for inspection/examples).
  const std::string& config_script() const { return script_; }

 private:
  std::string route_map_;
  std::string script_;
  click::Router router_;
  std::uint64_t graph_frames_ = 0;
  int last_output_ = -1;
};

std::unique_ptr<VirtualRouter> make_vr(VrKind kind, const std::string& route_map);

/// The route map used by the paper's testbed topology (Fig 4.1): the sender
/// subnet 10.1.0.0/16 behind interface 0, the receiver subnet 10.2.0.0/16
/// behind interface 1.
std::string default_route_map();

}  // namespace lvrm
