#include "vr/factory.hpp"

#include "vr/firewall.hpp"
#include "vr/nat.hpp"
#include "vr/token_bucket.hpp"

namespace lvrm {

namespace {

/// The stateless forwarding engine: standalone for kCpp/kClick, the inner
/// layer for the stateful kinds.
std::unique_ptr<VirtualRouter> make_engine(VrKind kind, const VrConfig& cfg,
                                           const std::string& route_map) {
  if (kind == VrKind::kClick)
    return std::make_unique<ClickVr>(route_map, cfg.click_script);
  return std::make_unique<CppVr>(route_map);
}

}  // namespace

std::unique_ptr<VirtualRouter> make_configured_vr(
    const VrConfig& cfg, const std::string& route_map) {
  switch (cfg.kind) {
    case VrKind::kCpp:
    case VrKind::kClick:
      return make_engine(cfg.kind, cfg, route_map);
    case VrKind::kNat:
      return std::make_unique<vr::NatVr>(
          make_engine(cfg.inner_kind, cfg, route_map),
          vr::NatVr::Config{cfg.nat_external_ip, cfg.nat_port_base,
                            cfg.nat_port_count});
    case VrKind::kFirewall:
      return std::make_unique<vr::FirewallVr>(
          make_engine(cfg.inner_kind, cfg, route_map));
    case VrKind::kRateLimit:
      return std::make_unique<vr::TokenBucketVr>(
          make_engine(cfg.inner_kind, cfg, route_map), cfg.rate_limit_fps,
          cfg.rate_limit_burst);
  }
  return nullptr;
}

}  // namespace lvrm
