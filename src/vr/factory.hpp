// factory.hpp — construct any hosted VR (stateless or stateful) from its
// VrConfig. This is the single seam LvrmSystem uses to build the router
// instance a new VRI clones from, so adding a VR kind means extending the
// switch here (plus the VrKind enum) and nothing inside the monitor —
// the Sec 3.8 extensibility contract, now covering stateful VRs too.
#pragma once

#include <memory>

#include "lvrm/config.hpp"
#include "lvrm/vri.hpp"

namespace lvrm {

/// Builds the router for `cfg`. For the stateful kinds the inner forwarding
/// engine is `cfg.inner_kind` (kCpp or kClick, honoring click_script);
/// kCpp/kClick build the engine directly. `route_map` must already be
/// resolved (non-empty).
std::unique_ptr<VirtualRouter> make_configured_vr(const VrConfig& cfg,
                                                  const std::string& route_map);

}  // namespace lvrm
