#include "lvrm/invariants.hpp"

#include <numeric>
#include <sstream>

#include "lvrm/system.hpp"

namespace lvrm {

void InvariantChecker::attach(LvrmSystem& sys) {
  sys.set_drop_hook([this](const net::FrameMeta& f, DropCause cause) {
    on_drop(f, cause);
  });
}

void InvariantChecker::on_egress(const net::FrameMeta& f) {
  ++delivered_;
  if (class_of_) ++by_class_.at(class_of_(f))[0];
  const auto [it, fresh] = flows_.try_emplace(net::FiveTuple::from_frame(f),
                                              Flow{f.id, f.dispatch_shard});
  if (fresh) return;
  Flow& flow = it->second;
  if (f.id < flow.last_id) ++fifo_violations_;
  if (f.dispatch_shard != flow.shard) ++affinity_violations_;
  flow = Flow{f.id, f.dispatch_shard};
}

void InvariantChecker::on_drop(const net::FrameMeta& f, DropCause cause) {
  ++drops_[static_cast<std::size_t>(cause)];
  if (class_of_) ++by_class_.at(class_of_(f))[1];
}

std::uint64_t InvariantChecker::dropped() const {
  return std::accumulate(drops_.begin(), drops_.end(), std::uint64_t{0});
}

std::string InvariantChecker::conservation(const LvrmSystem& sys) const {
  std::ostringstream err;
  if (delivered_ + dropped() != offered_)
    err << "delivered " << delivered_ << " + dropped " << dropped()
        << " != offered " << offered_ << "; ";
  for (std::size_t i = 0; i < kDropCauses; ++i) {
    const auto cause = static_cast<DropCause>(i);
    if (sys.drops(cause) != drops(cause))
      err << "drops(" << to_string(cause) << ") " << sys.drops(cause)
          << " != hooked " << drops(cause) << "; ";
  }
  if (sys.rx_ring_drops() != drops(DropCause::kRxRingFull))
    err << "rx_ring_drops " << sys.rx_ring_drops() << " != hooked "
        << drops(DropCause::kRxRingFull) << "; ";
  return err.str();
}

std::string InvariantChecker::verdict(const LvrmSystem& sys) const {
  std::string err = conservation(sys);
  if (fifo_violations_ > 0)
    err += std::to_string(fifo_violations_) + " FIFO regressions; ";
  if (affinity_violations_ > 0)
    err += std::to_string(affinity_violations_) + " shard changes; ";
  return err;
}

}  // namespace lvrm
