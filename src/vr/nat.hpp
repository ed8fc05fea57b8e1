// nat.hpp — source-NAT virtual router (DESIGN.md §16).
//
// The classic stateful middlebox: outbound flows (frames arriving on the
// sender subnet) get their source rewritten to one external address and a
// port drawn from a configurable pool; inbound frames addressed to an
// allocated external port are rewritten back to the original host. The
// translation table is exactly the per-flow state that pins a NAT'd flow to
// one VRI — and exactly what a kNatMapping StateDelta replicates so sibling
// VRIs translate the same flow identically.
//
// Port allocation is deterministic: the preferred port is a hash of the
// 5-tuple into the pool, and collisions (two flows hashing to one port)
// linear-probe to the next free port — the collision path the satellite
// tests pin down. A dry pool refuses the flow (policy drop).
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/flow.hpp"
#include "vr/stateful.hpp"

namespace lvrm::vr {

class NatVr final : public StatefulVrBase {
 public:
  struct Config {
    net::Ipv4Addr external_ip = 0;   // 0 = default 192.0.2.1 (TEST-NET-1)
    std::uint16_t port_base = 20000; // first port of the external pool
    std::uint16_t port_count = 4096; // pool size; 0 behaves as 1
  };

  NatVr(std::unique_ptr<VirtualRouter> inner, Config cfg);

  VrKind kind() const override { return VrKind::kNat; }
  bool apply_delta(const net::StateDelta& delta) override;
  bool export_flow_state(const net::FiveTuple& flow,
                         net::StateDelta& out) const override;
  std::unique_ptr<VirtualRouter> clone() const override;

  const Config& config() const { return cfg_; }
  std::size_t mappings() const { return map_.size(); }
  std::uint64_t port_collisions() const { return port_collisions_; }
  std::uint64_t pool_exhausted() const { return pool_exhausted_; }
  std::uint64_t translated() const { return translated_; }

  /// External port allocated to `flow`, or -1 when unmapped (tests).
  int mapped_port(const net::FiveTuple& flow) const;

 protected:
  bool admit(net::FrameMeta& frame) override;
  Nanos state_cost(const net::FrameMeta& frame) const override;

 private:
  // What the reverse path restores: the original source the flow had
  // before translation, plus the peer it talks to (for validation).
  struct ReverseEntry {
    net::FiveTuple original{};  // pre-translation tuple
    bool used = false;
  };

  /// Allocates an external port for `t` (hash-preferred, linear probe).
  /// Returns -1 when the pool is dry.
  int allocate_port(const net::FiveTuple& t);
  bool install(const net::FiveTuple& original, std::uint16_t ext_port);

  Config cfg_;
  std::unordered_map<net::FiveTuple, std::uint16_t, net::TupleHash> map_;
  std::vector<ReverseEntry> reverse_;  // indexed by port - port_base
  std::uint64_t port_collisions_ = 0;
  std::uint64_t pool_exhausted_ = 0;
  std::uint64_t translated_ = 0;
};

}  // namespace lvrm::vr
