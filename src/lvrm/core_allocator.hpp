// core_allocator.hpp — the VR monitor's core allocation policies (Sec 3.2).
//
// Fig 3.2's "allocate()" runs on packet receipt at most once per second and,
// per VR, compares the EWMA arrival rate against thresholds:
//
//   if arrival <= threshold(service rate with 1 less VRI)  -> destroy a VRI
//   else if threshold(service rate) <= arrival             -> create a VRI
//
// The *fixed-threshold* variant uses a configured per-core capacity (the
// experiments use 60 Kfps, matching the 1/60 ms dummy load); the
// *dynamic-threshold* variant uses the per-VRI service rate measured by the
// LVRM adapters (Sec 3.6), so VRs with heavier per-frame processing get
// proportionally more cores (Exp 2e). A small hysteresis keeps the exact
// boundary (arrival == threshold) from flapping between create and destroy.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "lvrm/types.hpp"
#include "sim/topology.hpp"

namespace lvrm {

/// NUMA distance of a core pick relative to the anchoring dispatcher
/// shard's core (DESIGN.md §11). Recorded in the audit trail so "why did
/// this VRI land cross-socket?" is answerable from the trail alone.
enum class NumaTier : std::int8_t {
  kSameSocket = 0,   // shares the shard's socket (shared LLC)
  kSameMachine = 1,  // other socket, same machine (one QPI hop)
  kRemote = 2,       // different machine (interconnect)
  kNone = -1,        // no free core found / policy without an anchor
};

struct NumaPick {
  sim::CoreId core = sim::kNoCore;
  NumaTier tier = NumaTier::kNone;
};

/// Two-level sibling preference: the first free core on the anchor's
/// socket, else the anchor's machine, else any free core — ascending core
/// id within each tier, so with a single machine this is exactly the
/// paper's sibling-then-non-sibling order. `used[c]` marks occupied cores.
NumaPick pick_numa_core(const sim::CpuTopology& topo,
                        const std::vector<bool>& used, sim::CoreId anchor);

/// The tier `core` occupies relative to `anchor` (no freeness check).
NumaTier numa_tier_of(const sim::CpuTopology& topo, sim::CoreId anchor,
                      sim::CoreId core);

/// The allocator's per-VR view at decision time.
struct VrAllocView {
  int active_vris = 1;
  double arrival_rate_fps = 0.0;      // EWMA arrival rate estimate
  double service_rate_per_vri = 0.0;  // measured capacity; 0 = not yet known
};

enum class AllocDecision { kHold, kCreate, kDestroy };

class CoreAllocator {
 public:
  virtual ~CoreAllocator() = default;
  virtual AllocatorKind kind() const = 0;
  virtual AllocDecision decide(const VrAllocView& vr) const = 0;

  /// Aggregate capacity (frames/s) this allocator credits the VR with at its
  /// current VRI count — the threshold side of Fig 3.2's comparison. The
  /// overload-shedding and respawn-after-fault paths use it to ask "does the
  /// arrival rate exceed what is allocated?". 0 when not yet measurable.
  virtual double capacity_fps(const VrAllocView& vr) const = 0;
};

/// Fixed approach: the core set is chosen at VR start and never changes.
class FixedAllocator final : public CoreAllocator {
 public:
  AllocatorKind kind() const override { return AllocatorKind::kFixed; }
  AllocDecision decide(const VrAllocView&) const override {
    return AllocDecision::kHold;
  }
  double capacity_fps(const VrAllocView& vr) const override {
    // No configured threshold: the measured per-VRI service rate stands in.
    return vr.service_rate_per_vri * vr.active_vris;
  }
};

/// Per-core capacity threshold of the fixed-threshold allocator: 60 Kfps,
/// the service rate under the experiments' 1/60 ms dummy load. Exactly
/// 60'000 (1e9 / sim::costs::kDummyLoad would round).
inline constexpr double kPerVriCapacityFps = 60'000.0;

class DynamicFixedThresholdAllocator final : public CoreAllocator {
 public:
  explicit DynamicFixedThresholdAllocator(double per_vri_capacity_fps)
      : per_vri_fps_(per_vri_capacity_fps) {}

  AllocatorKind kind() const override {
    return AllocatorKind::kDynamicFixedThreshold;
  }
  AllocDecision decide(const VrAllocView& vr) const override;
  double capacity_fps(const VrAllocView& vr) const override {
    return per_vri_fps_ * vr.active_vris;
  }

 private:
  double per_vri_fps_;
};

class DynamicDynamicThresholdAllocator final : public CoreAllocator {
 public:
  AllocatorKind kind() const override {
    return AllocatorKind::kDynamicDynamicThreshold;
  }
  AllocDecision decide(const VrAllocView& vr) const override;
  double capacity_fps(const VrAllocView& vr) const override {
    return vr.service_rate_per_vri * vr.active_vris;
  }
};

std::unique_ptr<CoreAllocator> make_allocator(AllocatorKind kind,
                                              double per_vri_capacity_fps);

}  // namespace lvrm
