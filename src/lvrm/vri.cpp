#include "lvrm/vri.hpp"

#include <sstream>
#include <stdexcept>

#include "net/headers.hpp"
#include "sim/costs.hpp"
#include "vr/factory.hpp"

namespace lvrm {

namespace costs = sim::costs;

// --- CppVr ---------------------------------------------------------------------

CppVr::CppVr(std::string route_map) : route_map_(std::move(route_map)) {
  for (const auto& entry : route::parse_route_map(route_map_))
    table_.insert(entry);
}

bool CppVr::process(net::FrameMeta& frame) {
  const auto route = table_.lookup(frame.dst_ip);
  if (!route) return false;
  frame.output_if = route->output_if;
  return true;
}

Nanos CppVr::process_cost(const net::FrameMeta& frame) const {
  return costs::kCppVrForward +
         static_cast<Nanos>(costs::kCppVrPerByte * frame.wire_bytes);
}

bool CppVr::apply_route_update(const route::RouteUpdate& update) {
  if (update.add) {
    table_.insert(update.entry);
    return true;
  }
  return table_.remove(update.entry.prefix);
}

std::unique_ptr<VirtualRouter> CppVr::clone() const {
  return std::make_unique<CppVr>(route_map_);
}

// --- ClickVr -------------------------------------------------------------------

namespace {

/// Generates the minimal-forwarding Click script for a set of routes.
std::string generate_click_script(const std::vector<route::RouteEntry>& routes) {
  // Collect the set of output interfaces and build one ToHost per interface.
  int max_if = 0;
  for (const auto& r : routes)
    if (r.output_if > max_if) max_if = r.output_if;

  std::ostringstream os;
  os << "// auto-generated minimal IP forwarder (thesis Sec 3.8 Click VR)\n";
  os << "in :: FromHost;\n";
  std::ostringstream route_args;
  for (std::size_t i = 0; i < routes.size(); ++i) {
    if (i) route_args << ", ";
    route_args << net::format_ipv4(routes[i].prefix.network) << '/'
               << routes[i].prefix.length << ' ' << routes[i].output_if;
  }
  os << "rt :: LookupIPRoute(" << route_args.str() << ");\n";
  os << "in -> Paint(0) -> Strip(14) -> CheckIPHeader -> GetIPAddress(16) "
        "-> Counter -> rt;\n";
  for (int i = 0; i <= max_if; ++i) {
    os << "rt[" << i << "] -> EtherEncap(0x0800, 02:00:00:00:00:fe, "
       << "02:00:00:00:00:0" << (i % 10) << ") -> out" << i << " :: ToHost("
       << i << ");\n";
  }
  return os.str();
}

}  // namespace

ClickVr::ClickVr(std::string route_map) : ClickVr(std::move(route_map), {}) {}

ClickVr::ClickVr(std::string route_map, std::string click_script)
    : route_map_(std::move(route_map)) {
  script_ = click_script.empty()
                ? generate_click_script(route::parse_route_map(route_map_))
                : std::move(click_script);
  std::string error;
  if (!router_.configure(script_, error))
    throw std::runtime_error("ClickVr: bad config: " + error);
  if (router_.find_as<click::FromHost>("in") == nullptr)
    throw std::runtime_error(
        "ClickVr: config must declare a FromHost named 'in'");
  // Capture forwarded packets' output interface from every ToHost.
  bool has_sink = false;
  for (const auto& name : router_.element_names()) {
    if (auto* sink = router_.find_as<click::ToHost>(name)) {
      sink->set_sink([this](click::PacketPtr p) { last_output_ = p->output_if; });
      has_sink = true;
    }
  }
  if (!has_sink)
    throw std::runtime_error("ClickVr: config needs at least one ToHost");
}

bool ClickVr::process(net::FrameMeta& frame) {
  // Materialize a real frame and push it through the element graph.
  const std::size_t payload =
      frame.wire_bytes > 90 ? static_cast<std::size_t>(frame.wire_bytes) -
                                  net::kWireOverheadBytes -
                                  net::kEthernetHeaderLen -
                                  net::kIpv4HeaderLen - net::kUdpHeaderLen
                            : 18;
  auto buf = net::build_udp_frame(net::MacAddr::from_id(1),
                                  net::MacAddr::from_id(2), frame.src_ip,
                                  frame.dst_ip, frame.src_port, frame.dst_port,
                                  payload);
  ++graph_frames_;
  last_output_ = -1;
  router_.push_input("in", click::Packet::make(std::move(buf)));
  router_.run_tasks();
  if (last_output_ < 0) return false;
  frame.output_if = last_output_;
  return true;
}

Nanos ClickVr::process_cost(const net::FrameMeta& frame) const {
  return costs::kClickVrForward +
         static_cast<Nanos>(costs::kClickVrPerByte * frame.wire_bytes);
}

Nanos ClickVr::pipeline_latency() const {
  return costs::kClickPipelineLatency;
}

bool ClickVr::apply_route_update(const route::RouteUpdate& update) {
  // The graph's LookupIPRoute named "rt" holds the routes; a graph without
  // one has nowhere to apply the update.
  auto* rt = router_.find_as<click::LookupIPRoute>("rt");
  if (rt == nullptr) return false;
  return update.add ? rt->add_route(update.entry)  // false: unknown port
                    : rt->remove_route(update.entry.prefix);
}

std::unique_ptr<VirtualRouter> ClickVr::clone() const {
  return std::make_unique<ClickVr>(route_map_, script_);
}

std::unique_ptr<VirtualRouter> make_vr(VrKind kind,
                                       const std::string& route_map) {
  switch (kind) {
    case VrKind::kCpp:
      return std::make_unique<CppVr>(route_map);
    case VrKind::kClick:
      return std::make_unique<ClickVr>(route_map);
    case VrKind::kNat:
    case VrKind::kFirewall:
    case VrKind::kRateLimit:
      // Stateful kinds need their VrConfig parameters; callers with only a
      // kind get them at defaults via the factory seam.
      {
        VrConfig cfg;
        cfg.kind = kind;
        return make_configured_vr(cfg, route_map);
      }
  }
  return nullptr;
}

std::string default_route_map() {
  return "10.1.0.0/16 0\n10.2.0.0/16 1\n";
}

}  // namespace lvrm
