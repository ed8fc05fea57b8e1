#include "lvrm/vri.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "sim/costs.hpp"

namespace lvrm {
namespace {

net::FrameMeta frame(net::Ipv4Addr dst, int bytes = 84) {
  net::FrameMeta f;
  f.wire_bytes = bytes;
  f.src_ip = net::ipv4(10, 1, 0, 1);
  f.dst_ip = dst;
  f.src_port = 1234;
  f.dst_port = 9;
  return f;
}

TEST(CppVr, ForwardsByRouteMap) {
  CppVr vr(default_route_map());
  auto f = frame(net::ipv4(10, 2, 1, 1));
  EXPECT_TRUE(vr.process(f));
  EXPECT_EQ(f.output_if, 1);
  auto back = frame(net::ipv4(10, 1, 1, 1));
  EXPECT_TRUE(vr.process(back));
  EXPECT_EQ(back.output_if, 0);
}

TEST(CppVr, DropsUnroutable) {
  CppVr vr(default_route_map());
  auto f = frame(net::ipv4(99, 9, 9, 9));
  EXPECT_FALSE(vr.process(f));
}

TEST(CppVr, BadRouteMapThrows) {
  EXPECT_THROW(CppVr("not a route map\n"), std::runtime_error);
}

TEST(CppVr, CloneSharesPolicy) {
  CppVr vr("10.7.0.0/16 3\n");
  const auto copy = vr.clone();
  auto f = frame(net::ipv4(10, 7, 1, 1));
  EXPECT_TRUE(copy->process(f));
  EXPECT_EQ(f.output_if, 3);
}

TEST(CppVr, CostScalesWithSize) {
  CppVr vr(default_route_map());
  EXPECT_GT(vr.process_cost(frame(0, 1538)), vr.process_cost(frame(0, 84)));
  EXPECT_EQ(vr.pipeline_latency(), 0);
}

TEST(ClickVr, GeneratedConfigParses) {
  ClickVr vr(default_route_map());
  EXPECT_GT(vr.router().element_count(), 5u);
  EXPECT_NE(vr.config_script().find("LookupIPRoute"), std::string::npos);
}

TEST(ClickVr, ForwardsThroughRealGraph) {
  ClickVr vr(default_route_map());
  auto f = frame(net::ipv4(10, 2, 1, 1), 200);
  EXPECT_TRUE(vr.process(f));
  EXPECT_EQ(f.output_if, 1);
  EXPECT_EQ(vr.graph_frames(), 1u);
}

TEST(ClickVr, GraphDropsUnroutable) {
  ClickVr vr(default_route_map());
  auto f = frame(net::ipv4(99, 9, 9, 9));
  EXPECT_FALSE(vr.process(f));
}

TEST(ClickVr, FallbackAgreesWithGraphProperty) {
  // Property: for random destinations, the real element graph makes the
  // forwarding decision (drop vs interface) that a plain LPM table built
  // from the same route map makes.
  const std::string map = "10.1.0.0/16 0\n10.2.0.0/16 1\n10.2.128.0/17 2\n";
  ClickVr graph_vr(map);
  route::RouteTable lpm;
  for (const auto& entry : route::parse_route_map(map)) lpm.insert(entry);

  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    net::Ipv4Addr dst;
    switch (rng.uniform(4)) {
      case 0: dst = net::ipv4(10, 1, 0, 0) + static_cast<net::Ipv4Addr>(rng.uniform(65536)); break;
      case 1: dst = net::ipv4(10, 2, 0, 0) + static_cast<net::Ipv4Addr>(rng.uniform(65536)); break;
      case 2: dst = net::ipv4(10, 2, 128, 0) + static_cast<net::Ipv4Addr>(rng.uniform(32768)); break;
      default: dst = static_cast<net::Ipv4Addr>(rng.next()); break;
    }
    auto a = frame(dst, 120);
    const bool routed = graph_vr.process(a);
    const auto route = lpm.lookup(dst);
    EXPECT_EQ(routed, route.has_value()) << net::format_ipv4(dst);
    if (routed && route) {
      EXPECT_EQ(a.output_if, route->output_if) << net::format_ipv4(dst);
    }
  }
}

TEST(ClickVr, CostlierAndSlowerThanCpp) {
  // Fig 4.5/4.6: Click's internal operations make it both lower-throughput
  // and higher-latency than the plain C++ VR.
  CppVr cpp(default_route_map());
  ClickVr click(default_route_map());
  const auto f = frame(net::ipv4(10, 2, 0, 1));
  EXPECT_GT(click.process_cost(f), 4 * cpp.process_cost(f));
  EXPECT_GT(click.pipeline_latency(), usec(10));
}

TEST(ClickVr, ScriptWithoutRtRefusesRouteUpdates) {
  // A hand-written graph with no LookupIPRoute named "rt" has nowhere to
  // apply a route update: adds and withdraws are both refused.
  ClickVr vr(default_route_map(), "in :: FromHost; in -> out :: ToHost(1);");
  route::RouteUpdate add;
  add.add = true;
  add.entry.prefix = *net::parse_prefix("10.9.0.0/16");
  add.entry.output_if = 1;
  EXPECT_FALSE(vr.apply_route_update(add));
  route::RouteUpdate withdraw;
  withdraw.add = false;
  withdraw.entry.prefix = *net::parse_prefix("10.2.0.0/16");
  EXPECT_FALSE(vr.apply_route_update(withdraw));
}

TEST(MakeVr, Factory) {
  EXPECT_EQ(make_vr(VrKind::kCpp, default_route_map())->kind(), VrKind::kCpp);
  EXPECT_EQ(make_vr(VrKind::kClick, default_route_map())->kind(),
            VrKind::kClick);
}

TEST(DefaultRouteMap, MatchesTestbedTopology) {
  const auto routes = route::parse_route_map(default_route_map());
  ASSERT_EQ(routes.size(), 2u);
  EXPECT_EQ(routes[0].output_if, 0);
  EXPECT_EQ(routes[1].output_if, 1);
}

}  // namespace
}  // namespace lvrm
