#include "lvrm/types.hpp"

namespace lvrm {

std::string to_string(AdapterKind k) {
  switch (k) {
    case AdapterKind::kRawSocket: return "raw-socket";
    case AdapterKind::kPfRing: return "pf-ring";
    case AdapterKind::kMemory: return "memory";
  }
  return "?";
}

std::string to_string(AllocatorKind k) {
  switch (k) {
    case AllocatorKind::kFixed: return "fixed";
    case AllocatorKind::kDynamicFixedThreshold: return "dynamic-fixed";
    case AllocatorKind::kDynamicDynamicThreshold: return "dynamic-dynamic";
  }
  return "?";
}

std::string to_string(BalancerKind k) {
  switch (k) {
    case BalancerKind::kJoinShortestQueue: return "jsq";
    case BalancerKind::kRoundRobin: return "round-robin";
    case BalancerKind::kRandom: return "random";
  }
  return "?";
}

std::string to_string(BalancerGranularity k) {
  switch (k) {
    case BalancerGranularity::kFrame: return "frame-based";
    case BalancerGranularity::kFlow: return "flow-based";
  }
  return "?";
}

std::string to_string(EstimatorKind k) {
  switch (k) {
    case EstimatorKind::kQueueLength: return "queue-length";
    case EstimatorKind::kArrivalTime: return "arrival-time";
  }
  return "?";
}

std::string to_string(AffinityPolicy k) {
  switch (k) {
    case AffinityPolicy::kSibling: return "sibling";
    case AffinityPolicy::kNonSibling: return "non-sibling";
    case AffinityPolicy::kDefault: return "default";
    case AffinityPolicy::kSame: return "same";
  }
  return "?";
}

std::string to_string(VrKind k) {
  switch (k) {
    case VrKind::kCpp: return "c++";
    case VrKind::kClick: return "click";
    case VrKind::kNat: return "nat";
    case VrKind::kFirewall: return "firewall";
    case VrKind::kRateLimit: return "rate-limit";
  }
  return "?";
}

std::string to_string(VriHealth k) {
  switch (k) {
    case VriHealth::kHealthy: return "healthy";
    case VriHealth::kDead: return "dead";
    case VriHealth::kHung: return "hung";
    case VriHealth::kFailSlow: return "fail-slow";
  }
  return "?";
}

std::string to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kCrash: return "crash";
    case FaultKind::kHang: return "hang";
    case FaultKind::kSlowdown: return "slowdown";
    case FaultKind::kControlLoss: return "control-loss";
    case FaultKind::kOverloadBurst: return "overload-burst";
  }
  return "?";
}

std::string to_string(ShedPolicy k) {
  switch (k) {
    case ShedPolicy::kNone: return "none";
    case ShedPolicy::kDropNewest: return "drop-newest";
    case ShedPolicy::kDropOldest: return "drop-oldest";
  }
  return "?";
}

std::string to_string(OverloadLevel k) {
  switch (k) {
    case OverloadLevel::kNormal: return "normal";
    case OverloadLevel::kSampling: return "sampling";
    case OverloadLevel::kAdmission: return "admission";
  }
  return "?";
}

std::string to_string(DropCause k) {
  switch (k) {
    case DropCause::kRxRingFull: return "rx-ring-full";
    case DropCause::kAdmissionReject: return "admission-reject";
    case DropCause::kSampledShed: return "sampled-shed";
    case DropCause::kShedDropNewest: return "shed-drop-newest";
    case DropCause::kShedDropOldest: return "shed-drop-oldest";
    case DropCause::kQueueFull: return "queue-full";
    case DropCause::kUnclassified: return "unclassified";
    case DropCause::kVriInactive: return "vri-inactive";
    case DropCause::kVriDestroyed: return "vri-destroyed";
    case DropCause::kNoRoute: return "no-route";
    case DropCause::kVrPolicy: return "vr-policy";
  }
  return "?";
}

std::string to_string(DrainCause k) {
  switch (k) {
    case DrainCause::kAllocatorDestroy: return "allocator-destroy";
    case DrainCause::kDecommission: return "decommission";
    case DrainCause::kFailSlow: return "fail-slow";
  }
  return "?";
}

}  // namespace lvrm
