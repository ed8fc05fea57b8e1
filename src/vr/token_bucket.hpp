// token_bucket.hpp — per-flow token-bucket rate limiter (DESIGN.md §16).
//
// Every flow owns a bucket refilled at `rate_fps` tokens per second up to
// `burst` tokens; a frame spends one token or is refused (policy drop).
// The bucket pair (tokens, last-refill stamp) is the smallest interesting
// per-flow state for replication — it changes on *every* admitted frame,
// which makes it the stress case for the delta path and the worked example
// in docs/VR_AUTHORING.md.
//
// Replication caveat (see the guide): token state replicated with a delay
// is slightly optimistic — two VRIs admitting the same flow concurrently
// can overspend by the in-flight delta window. apply_delta() takes the
// minimum of local and replicated tokens at equal-or-newer stamps, which
// bounds the overspend to one delta period per sibling.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "net/flow.hpp"
#include "vr/stateful.hpp"

namespace lvrm::vr {

class TokenBucketVr final : public StatefulVrBase {
 public:
  TokenBucketVr(std::unique_ptr<VirtualRouter> inner, double rate_fps,
                double burst);

  VrKind kind() const override { return VrKind::kRateLimit; }
  bool apply_delta(const net::StateDelta& delta) override;
  bool export_flow_state(const net::FiveTuple& flow,
                         net::StateDelta& out) const override;
  std::unique_ptr<VirtualRouter> clone() const override;

  double rate_fps() const { return rate_fps_; }
  double burst() const { return burst_; }
  std::size_t flows() const { return buckets_.size(); }
  std::uint64_t throttled() const { return throttled_; }

  /// Current token count for `flow` without refilling (tests); NaN-free:
  /// returns burst for an unseen flow (a fresh bucket starts full).
  double tokens(const net::FiveTuple& flow) const;

 protected:
  bool admit(net::FrameMeta& frame) override;
  Nanos state_cost(const net::FrameMeta& frame) const override;

 private:
  struct Bucket {
    double tokens = 0;
    Nanos last_refill = 0;
  };

  void refill(Bucket& b, Nanos now) const;
  static net::StateDelta to_delta(const net::FiveTuple& flow, const Bucket& b);

  double rate_fps_;
  double burst_;
  std::unordered_map<net::FiveTuple, Bucket, net::TupleHash> buckets_;
  std::uint64_t throttled_ = 0;
};

}  // namespace lvrm::vr
