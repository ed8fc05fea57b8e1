// dynamic_routes — routing-state synchronization between VRIs.
//
// A VR runs four VRIs. A new customer prefix comes online: VRI 0 learns the
// route (as if from a routing protocol) and LVRM synchronizes it to the
// sibling VRIs over the control queues (Secs 2.1/3.7). The example shows
// traffic to the prefix being dropped before the update, the sync latency,
// and clean forwarding afterwards — then the withdraw.
//
// Usage: dynamic_routes [--vris=4]
#include <functional>
#include <iostream>

#include "common/cli.hpp"
#include "lvrm/system.hpp"

using namespace lvrm;

namespace {

route::RouteUpdate make_update(bool add) {
  route::RouteUpdate u;
  u.add = add;
  u.entry.prefix = *net::parse_prefix("203.0.113.0/24");  // new customer
  u.entry.output_if = 1;
  u.entry.next_hop = net::ipv4(10, 2, 0, 254);
  return u;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const int vris = static_cast<int>(cli.get_int("vris", 4));

  sim::Simulator sim;
  sim::CpuTopology topo;
  LvrmConfig config;
  config.allocator = AllocatorKind::kFixed;
  config.balancer = BalancerKind::kRoundRobin;  // touch every VRI visibly
  LvrmSystem lvrm(sim, topo, config);
  VrConfig vr;
  vr.name = "edge-vr";
  vr.initial_vris = vris;
  lvrm.add_vr(vr);
  lvrm.start();

  std::uint64_t delivered = 0;
  lvrm.set_egress([&delivered](net::FrameMeta&&) { ++delivered; });

  // Customer traffic: one frame every 100 us toward the new prefix.
  std::uint64_t next_id = 0;
  std::function<void()> emit;
  emit = [&] {
    if (sim.now() >= msec(30)) return;
    net::FrameMeta f;
    f.id = next_id++;
    f.src_ip = net::ipv4(10, 1, 0, 1);
    f.dst_ip = net::ipv4(203, 0, 113, 7);
    lvrm.ingress(f);
    sim.after(usec(100), emit);
  };
  sim.at(0, emit);

  auto report = [&](const char* phase) {
    std::cout << phase << ": forwarded=" << delivered
              << " no-route-drops=" << lvrm.drops(DropCause::kNoRoute)
              << '\n';
  };

  sim.at(msec(10), [&] {
    report("t=10ms (before route)   ");
    // The routing protocol at VRI 0 learns 203.0.113.0/24 now.
    lvrm.broadcast_route_update(0, 0, make_update(true), [&](Nanos worst) {
      std::cout << "route add synchronized to " << (vris - 1)
                << " sibling VRIs; slowest took " << to_micros(worst)
                << " us\n";
    });
  });
  sim.at(msec(20), [&] {
    report("t=20ms (route installed)");
    lvrm.broadcast_route_update(0, 0, make_update(false), [](Nanos worst) {
      std::cout << "route withdrawn everywhere in " << to_micros(worst)
                << " us\n";
    });
  });
  sim.at(msec(30), [&] { report("t=30ms (route withdrawn)"); });
  sim.run_all();

  std::cout << "\nper-VRI forwarded counts (all VRIs served the prefix):";
  for (int v = 0; v < vris; ++v) std::cout << ' ' << lvrm.vri_forwarded(0, v);
  std::cout << '\n';
  return 0;
}
