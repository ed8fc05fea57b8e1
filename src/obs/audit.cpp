#include "obs/audit.hpp"

namespace lvrm::obs {

const char* to_string(AuditKind k) {
  switch (k) {
    case AuditKind::kVriCreate: return "vri_create";
    case AuditKind::kVriDestroy: return "vri_destroy";
    case AuditKind::kHealthDead: return "health_dead";
    case AuditKind::kHealthHung: return "health_hung";
    case AuditKind::kHealthFailSlow: return "health_fail_slow";
    case AuditKind::kBalanceSummary: return "balance_summary";
    case AuditKind::kOverloadLevel: return "overload_level";
    case AuditKind::kVriDrain: return "vri_drain";
    case AuditKind::kFlightDump: return "flight_dump";
    case AuditKind::kFlowSpray: return "flow_spray";
    case AuditKind::kFlowSprayEnd: return "flow_spray_end";
    case AuditKind::kVriSteal: return "vri_steal";
  }
  return "unknown";
}

AuditTrail::AuditTrail(std::size_t capacity) {
  if (capacity == 0) capacity = 1;
  ring_.reserve(capacity);
}

void AuditTrail::record(const AuditEvent& e) {
  ++total_;
  if (ring_.size() < ring_.capacity()) {
    ring_.push_back(e);
    return;
  }
  ring_[next_] = e;
  next_ = (next_ + 1) % ring_.size();
}

std::vector<AuditEvent> AuditTrail::events() const {
  std::vector<AuditEvent> out;
  out.reserve(ring_.size());
  // next_ is the oldest slot once the ring has wrapped.
  for (std::size_t i = 0; i < ring_.size(); ++i)
    out.push_back(ring_[(next_ + i) % ring_.size()]);
  return out;
}

}  // namespace lvrm::obs
