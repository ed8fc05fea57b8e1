#include "route/dir24_table.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace lvrm::route {
namespace {

RouteEntry route(const char* prefix, int out) {
  RouteEntry e;
  e.prefix = *net::parse_prefix(prefix);
  e.output_if = out;
  return e;
}

TEST(Dir24Table, EmptyTableMissesEverything) {
  Dir24Table t;
  EXPECT_FALSE(t.lookup(net::ipv4(10, 1, 1, 1)).has_value());
  EXPECT_EQ(t.route_count(), 0u);
}

TEST(Dir24Table, ShortPrefixLookup) {
  Dir24Table t({route("10.1.0.0/16", 0), route("10.2.0.0/16", 1)});
  EXPECT_EQ(t.lookup(net::ipv4(10, 1, 200, 3))->output_if, 0);
  EXPECT_EQ(t.lookup(net::ipv4(10, 2, 0, 1))->output_if, 1);
  EXPECT_FALSE(t.lookup(net::ipv4(11, 0, 0, 1)).has_value());
  EXPECT_EQ(t.overflow_blocks(), 0u);  // no /25+ -> single-level lookups
}

TEST(Dir24Table, LongPrefixesUseSecondLevel) {
  Dir24Table t({route("10.1.0.0/16", 0), route("10.1.2.128/25", 1),
                route("10.1.2.7/32", 2)});
  EXPECT_GE(t.overflow_blocks(), 1u);
  EXPECT_EQ(t.lookup(net::ipv4(10, 1, 2, 200))->output_if, 1);
  EXPECT_EQ(t.lookup(net::ipv4(10, 1, 2, 7))->output_if, 2);
  EXPECT_EQ(t.lookup(net::ipv4(10, 1, 2, 8))->output_if, 0);  // falls back
  EXPECT_EQ(t.lookup(net::ipv4(10, 1, 3, 1))->output_if, 0);
}

TEST(Dir24Table, DefaultRoute) {
  Dir24Table t({route("0.0.0.0/0", 9), route("10.1.0.0/16", 1)});
  EXPECT_EQ(t.lookup(net::ipv4(8, 8, 8, 8))->output_if, 9);
  EXPECT_EQ(t.lookup(net::ipv4(10, 1, 0, 1))->output_if, 1);
}

TEST(Dir24Table, DuplicatePrefixLastWins) {
  Dir24Table t({route("10.1.0.0/16", 1), route("10.1.0.0/16", 5)});
  EXPECT_EQ(t.lookup(net::ipv4(10, 1, 0, 1))->output_if, 5);
  EXPECT_EQ(t.route_count(), 1u);
}

TEST(Dir24Table, RebuildReplacesContent) {
  Dir24Table t({route("10.1.0.0/16", 0)});
  t.rebuild({route("10.2.0.0/16", 1)});
  EXPECT_FALSE(t.lookup(net::ipv4(10, 1, 0, 1)).has_value());
  EXPECT_EQ(t.lookup(net::ipv4(10, 2, 0, 1))->output_if, 1);
}

// Property: DIR-24-8 agrees with the trie on random route sets, including
// the awkward /24-/32 boundary.
class Dir24Property : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Dir24Property, MatchesTrie) {
  Rng rng(GetParam());
  RouteTable trie;
  std::vector<RouteEntry> routes;
  for (int i = 0; i < 120; ++i) {
    RouteEntry e;
    // Bias toward the /22-/32 range where the two levels interact; keep
    // networks inside 10/8 so collisions between routes are common.
    const int len = 8 + static_cast<int>(rng.uniform(25));
    e.prefix.network = (net::ipv4(10, 0, 0, 0) |
                        (static_cast<net::Ipv4Addr>(rng.next()) & 0x00FFFFFF)) &
                       net::prefix_mask(len);
    e.prefix.length = len;
    e.output_if = static_cast<int>(rng.uniform(8));
    bool dup = false;
    for (const auto& r : routes)
      if (r.prefix == e.prefix) dup = true;
    if (dup) continue;
    routes.push_back(e);
    trie.insert(e);
  }
  const Dir24Table dir24(routes);

  for (int q = 0; q < 4000; ++q) {
    const net::Ipv4Addr addr =
        net::ipv4(10, 0, 0, 0) |
        (static_cast<net::Ipv4Addr>(rng.next()) & 0x00FFFFFF);
    const auto a = trie.lookup(addr);
    const auto b = dir24.lookup(addr);
    ASSERT_EQ(a.has_value(), b.has_value()) << net::format_ipv4(addr);
    if (a) {
      EXPECT_EQ(a->prefix, b->prefix) << net::format_ipv4(addr);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Dir24Property,
                         ::testing::Range<std::uint64_t>(0, 6));

}  // namespace
}  // namespace lvrm::route
