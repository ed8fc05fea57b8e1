// Hosting hand-written Click configurations as VRs (Sec 3.8 extensibility).
#include <gtest/gtest.h>

#include "exp/rig.hpp"
#include "lvrm/vri.hpp"

namespace lvrm {
namespace {

constexpr const char* kFilteringForwarder = R"(
  in :: FromHost;
  rt :: LookupIPRoute(10.1.0.0/16 0, 10.2.0.0/16 1);
  in -> Strip(14) -> f :: IPFilter(deny src 10.1.66.0/24, allow all)
     -> CheckIPHeader -> GetIPAddress(16) -> rt;
  rt[0] -> EtherEncap(0x0800, 02:00:00:00:00:fe, 02:00:00:00:00:00)
        -> out0 :: ToHost(0);
  rt[1] -> EtherEncap(0x0800, 02:00:00:00:00:fe, 02:00:00:00:00:01)
        -> out1 :: ToHost(1);
)";

net::FrameMeta frame(net::Ipv4Addr src, net::Ipv4Addr dst) {
  net::FrameMeta f;
  f.src_ip = src;
  f.dst_ip = dst;
  return f;
}

TEST(CustomClickVr, ConstructsFromScript) {
  ClickVr vr(default_route_map(), kFilteringForwarder);
  EXPECT_NE(vr.config_script().find("IPFilter"), std::string::npos);
  auto ok = frame(net::ipv4(10, 1, 1, 1), net::ipv4(10, 2, 0, 1));
  EXPECT_TRUE(vr.process(ok));
  EXPECT_EQ(ok.output_if, 1);
}

TEST(CustomClickVr, PolicyEnforcedInGraph) {
  ClickVr vr(default_route_map(), kFilteringForwarder);
  auto blocked = frame(net::ipv4(10, 1, 66, 9), net::ipv4(10, 2, 0, 1));
  EXPECT_FALSE(vr.process(blocked));  // IPFilter denies this subnet
}

TEST(CustomClickVr, CloneKeepsCustomScript) {
  ClickVr vr(default_route_map(), kFilteringForwarder);
  const auto copy = vr.clone();
  auto blocked = frame(net::ipv4(10, 1, 66, 9), net::ipv4(10, 2, 0, 1));
  EXPECT_FALSE(copy->process(blocked));
}

TEST(CustomClickVr, DynamicRouteUpdatesStillWork) {
  ClickVr vr(default_route_map(), kFilteringForwarder);
  route::RouteUpdate u;
  u.add = true;
  u.entry.prefix = *net::parse_prefix("10.9.0.0/16");
  u.entry.output_if = 1;
  EXPECT_TRUE(vr.apply_route_update(u));
  auto f = frame(net::ipv4(10, 1, 1, 1), net::ipv4(10, 9, 0, 1));
  EXPECT_TRUE(vr.process(f));
  EXPECT_EQ(f.output_if, 1);
}

TEST(CustomClickVr, RejectsScriptWithoutEntryPoint) {
  EXPECT_THROW(ClickVr(default_route_map(), "x :: Counter; x -> Discard;"),
               std::runtime_error);
}

TEST(CustomClickVr, RejectsScriptWithoutSink) {
  EXPECT_THROW(
      ClickVr(default_route_map(), "in :: FromHost; in -> Discard;"),
      std::runtime_error);
}

TEST(CustomClickVr, RejectsUnparsableScript) {
  EXPECT_THROW(ClickVr(default_route_map(), "in :: NoSuchElement;"),
               std::runtime_error);
}

TEST(CustomClickVr, HostedOnLvrmEndToEnd) {
  LvrmConfig cfg;
  cfg.allocator = AllocatorKind::kFixed;
  VrConfig vr;
  vr.kind = VrKind::kClick;
  vr.click_script = kFilteringForwarder;
  vr.initial_vris = 2;
  exp::LvrmRig rig(cfg, {vr});

  int id = 0;
  for (const auto src :
       {net::ipv4(10, 1, 1, 1), net::ipv4(10, 1, 66, 1), net::ipv4(10, 1, 2, 1)}) {
    rig.sim.at(usec(50) * id++, [&rig, src] {
      rig.ingress(frame(src, net::ipv4(10, 2, 0, 1)));
    });
  }
  rig.sim.run_all();
  // The 10.1.66/24 frame was dropped by policy inside the Click graph.
  ASSERT_EQ(rig.delivered(), 2u);
  EXPECT_EQ(rig.sys->drops(DropCause::kNoRoute), 1u);  // surfaced as a VRI-level drop
}

}  // namespace
}  // namespace lvrm
