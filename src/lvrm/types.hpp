// types.hpp — the enumerations naming LVRM's extensibility dimensions.
//
// Chapter 3 structures LVRM as a set of components each supporting "different
// variants of implementation": the socket adapter (3.1), core allocation
// (3.2), load balancing (3.3), load estimation (3.4) and the IPC queue (3.5).
// Every dimension is an enum here plus an interface elsewhere in this
// directory; the test suite asserts all combinations compose.
#pragma once

#include <cstddef>
#include <string>

namespace lvrm {

/// Socket adapter variants (Sec 3.1).
enum class AdapterKind {
  kRawSocket,  // BSD raw socket, recvfrom()/send() syscalls
  kPfRing,     // PF_RING-style zero-copy NIC polling (LVRM v1.1: both ways)
  kMemory,     // trace replay from main memory (Exp 1c/1d)
};

/// Core allocation approaches (Sec 3.2, Fig 3.2).
enum class AllocatorKind {
  kFixed,                    // pre-assigned core set at VR start
  kDynamicFixedThreshold,    // EWMA arrival rate vs. per-core rate thresholds
  kDynamicDynamicThreshold,  // arrival rate vs. measured VRI service rate
};

/// Load balancing schemes (Sec 3.3, Fig 3.3).
enum class BalancerKind {
  kJoinShortestQueue,
  kRoundRobin,
  kRandom,
};

/// Frame-based vs flow-based dispatch (Sec 3.3).
enum class BalancerGranularity {
  kFrame,  // every frame balanced independently
  kFlow,   // 5-tuple pinning via the connection-tracking table
};

/// Load estimation variants (Sec 3.4, Fig 3.4).
enum class EstimatorKind {
  kQueueLength,   // EWMA of the VRI's incoming data-queue length
  kArrivalTime,   // EWMA of inter-arrival gaps (reported as a rate)
};

/// Core affinity policies examined by Exp 2a.
enum class AffinityPolicy {
  kSibling,     // prefer cores on LVRM's socket
  kNonSibling,  // prefer cores on the other socket
  kDefault,     // let the (simulated) kernel place and migrate the VRI
  kSame,        // run the VRI on LVRM's own core
};

/// Hosted VR implementations (Sec 3.8). The first two are stateless
/// forwarders; the rest are stateful VRs (src/vr, DESIGN.md §16) layered on
/// top of a stateless inner forwarder chosen by `VrConfig::inner_kind`.
enum class VrKind {
  kCpp,        // minimal C++ forwarder
  kClick,      // Click Modular Router element graph
  kNat,        // source NAT: 5-tuple translation table + port pool
  kFirewall,   // stateful firewall: TCP connection tracker over FlowTableV2
  kRateLimit,  // per-flow token-bucket rate limiter
};

/// Health states the monitor can assign to a VRI (robustness layer).
enum class VriHealth {
  kHealthy,
  kDead,      // process gone (crash / OOM-kill); probe unreachable
  kHung,      // process alive, progress counter frozen with work pending
  kFailSlow,  // progressing, but persistently slower than its siblings
};

/// Injectable fault kinds (fault_injector.hpp).
enum class FaultKind {
  kCrash,          // process dies; queues go stale
  kHang,           // process stalls (deadlock / SIGSTOP) but stays alive
  kSlowdown,       // per-frame service cost multiplied (sick process)
  kControlLoss,    // control events to this VRI are dropped in the relay
  kOverloadBurst,  // synthetic flash-crowd burst injected at RX ingress
};

/// Degradation-ladder level of one VR's backpressure controller
/// (DESIGN.md §13). The ladder escalates one rung at a time and relaxes the
/// same way, so every transition is observable in the audit trail.
enum class OverloadLevel {
  kNormal,     // every offered frame is dispatched
  kSampling,   // hash-based per-flow sampling shed at dispatch (recorded rate)
  kAdmission,  // RX-side admission control rejects before ring entry
};

/// Why the system dropped a frame — the taxonomy reported through
/// `LvrmSystem::set_drop_hook`, one cause per drop site, so conservation
/// (delivered + every cause == offered) is checkable per flow class.
enum class DropCause {
  kRxRingFull,      // ingress: shard RX ring tail-drop
  kAdmissionReject, // ingress: overload ladder level 2 rejected the flow
  kSampledShed,     // dispatch: flow outside the sampling subset (level 1+)
  kQueueFull,       // data queue (in or out) refused the push
  kUnclassified,    // no VR / no active VRI for the frame
  kVriInactive,     // dispatched to a VRI that deactivated in flight
  kVriDestroyed,    // queued in a VRI torn down without a drain
  kNoRoute,         // the VR's routing table had no entry
  kVrPolicy,        // a stateful VR refused the frame (firewall deny,
                    // rate-limit throttle, NAT port-pool exhaustion)
};
/// Number of DropCause values (kVrPolicy is the last).
inline constexpr std::size_t kDropCauses =
    static_cast<std::size_t>(DropCause::kVrPolicy) + 1;

/// Why a reset-free VRI drain started (DESIGN.md §13).
enum class DrainCause {
  kAllocatorDestroy,  // the Fig 3.2 destroy path, draining instead of dropping
  kDecommission,      // explicit operator decommission_vri()
  kFailSlow,          // health quarantine of a live-but-slow process
};

std::string to_string(AdapterKind k);
std::string to_string(AllocatorKind k);
std::string to_string(BalancerKind k);
std::string to_string(BalancerGranularity k);
std::string to_string(EstimatorKind k);
std::string to_string(AffinityPolicy k);
std::string to_string(VrKind k);
std::string to_string(VriHealth k);
std::string to_string(FaultKind k);
std::string to_string(OverloadLevel k);
std::string to_string(DropCause k);
std::string to_string(DrainCause k);

}  // namespace lvrm
