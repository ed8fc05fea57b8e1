#include "lvrm/core_allocator.hpp"

namespace lvrm {

namespace {

/// Destroy-side hysteresis of the threshold allocators: a core is released
/// only when one fewer VRI would run at or below this fraction of its
/// threshold, so arrival == threshold cannot flap between create and destroy.
constexpr double kDestroyHysteresis = 0.97;

/// Shared Fig 3.2 comparison given a per-VRI capacity estimate.
AllocDecision threshold_decision(const VrAllocView& vr, double per_vri_fps) {
  if (per_vri_fps <= 0.0) return AllocDecision::kHold;
  const int c = vr.active_vris;
  const double arrival = vr.arrival_rate_fps;
  // "if arrival rate <= threshold(service rate w/ 1 less VRI)": c-1 VRIs
  // suffice, so release a core (never below one VRI).
  if (c > 1 && arrival <= per_vri_fps * (c - 1) * kDestroyHysteresis)
    return AllocDecision::kDestroy;
  // "else if threshold(service rate) <= arrival rate": saturated, add one.
  if (arrival >= per_vri_fps * c) return AllocDecision::kCreate;
  return AllocDecision::kHold;
}

}  // namespace

NumaTier numa_tier_of(const sim::CpuTopology& topo, sim::CoreId anchor,
                      sim::CoreId core) {
  if (anchor == sim::kNoCore || core == sim::kNoCore) return NumaTier::kNone;
  if (topo.siblings(core, anchor)) return NumaTier::kSameSocket;
  if (topo.same_machine(core, anchor)) return NumaTier::kSameMachine;
  return NumaTier::kRemote;
}

NumaPick pick_numa_core(const sim::CpuTopology& topo,
                        const std::vector<bool>& used, sim::CoreId anchor) {
  // Three passes, widening the NUMA distance each time. Within a tier the
  // scan is ascending core id, matching the single-machine sibling order
  // the paper's experiments were calibrated against.
  const NumaTier tiers[] = {NumaTier::kSameSocket, NumaTier::kSameMachine,
                            NumaTier::kRemote};
  for (NumaTier tier : tiers) {
    for (sim::CoreId c = 0; c < topo.total_cores(); ++c) {
      if (c == anchor || used[static_cast<std::size_t>(c)]) continue;
      if (numa_tier_of(topo, anchor, c) == tier) return NumaPick{c, tier};
    }
  }
  return NumaPick{};
}

AllocDecision DynamicFixedThresholdAllocator::decide(
    const VrAllocView& vr) const {
  return threshold_decision(vr, per_vri_fps_);
}

AllocDecision DynamicDynamicThresholdAllocator::decide(
    const VrAllocView& vr) const {
  return threshold_decision(vr, vr.service_rate_per_vri);
}

std::unique_ptr<CoreAllocator> make_allocator(AllocatorKind kind,
                                              double per_vri_capacity_fps) {
  switch (kind) {
    case AllocatorKind::kFixed:
      return std::make_unique<FixedAllocator>();
    case AllocatorKind::kDynamicFixedThreshold:
      return std::make_unique<DynamicFixedThresholdAllocator>(
          per_vri_capacity_fps);
    case AllocatorKind::kDynamicDynamicThreshold:
      return std::make_unique<DynamicDynamicThresholdAllocator>();
  }
  return nullptr;
}

}  // namespace lvrm
