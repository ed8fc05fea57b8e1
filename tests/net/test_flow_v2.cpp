#include "net/flow_v2.hpp"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "net/flow.hpp"

namespace lvrm::net {
namespace {

FiveTuple tuple(std::uint32_t a, std::uint32_t b, std::uint16_t p,
                std::uint16_t q, std::uint8_t proto = 6) {
  FiveTuple t;
  t.src_ip = a;
  t.dst_ip = b;
  t.src_port = p;
  t.dst_port = q;
  t.protocol = proto;
  return t;
}

TEST(FlowTableV2, InsertAndLookup) {
  FlowTableV2 table(64, sec(30));
  EXPECT_FALSE(table.lookup(tuple(1, 2, 3, 4), 0).has_value());
  EXPECT_TRUE(table.insert(tuple(1, 2, 3, 4), 7, 0));
  const auto got = table.lookup(tuple(1, 2, 3, 4), 1);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 7);
  EXPECT_EQ(table.size(), 1u);
}

TEST(FlowTableV2, LookupRefreshesTimestamp) {
  FlowTableV2 table(64, sec(10));
  table.insert(tuple(1, 2, 3, 4), 1, 0);
  EXPECT_TRUE(table.lookup(tuple(1, 2, 3, 4), sec(9)).has_value());
  // Refreshed at t=9s: still alive at t=18s, dead at t=29s.
  EXPECT_TRUE(table.lookup(tuple(1, 2, 3, 4), sec(18)).has_value());
  EXPECT_FALSE(table.lookup(tuple(1, 2, 3, 4), sec(29)).has_value());
}

// Same strict '>' boundary as FlowTable, so either table gives the same
// dispatch decisions.
TEST(FlowTableV2, ExpiryBoundaryIsExclusive) {
  FlowTableV2 alive(64, sec(10));
  alive.insert(tuple(1, 2, 3, 4), 1, 0);
  EXPECT_TRUE(alive.lookup(tuple(1, 2, 3, 4), sec(10)).has_value());

  FlowTableV2 dead(64, sec(10));
  dead.insert(tuple(1, 2, 3, 4), 1, 0);
  EXPECT_FALSE(dead.lookup(tuple(1, 2, 3, 4), sec(10) + 1).has_value());
  EXPECT_EQ(dead.size(), 0u);  // expired hit removes the entry
}

TEST(FlowTableV2, OverwriteUpdatesVri) {
  FlowTableV2 table(64, sec(30));
  table.insert(tuple(1, 2, 3, 4), 1, 0);
  table.insert(tuple(1, 2, 3, 4), 2, 1);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.lookup(tuple(1, 2, 3, 4), 2).value(), 2);
}

TEST(FlowTableV2, InsertOverExpiredEntryUpdatesInPlace) {
  FlowTableV2 table(64, sec(10));
  table.insert(tuple(1, 2, 3, 4), 1, 0);
  // No intervening lookup or gc_tick: the expired entry is still resident.
  table.insert(tuple(1, 2, 3, 4), 2, sec(20));
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.lookup(tuple(1, 2, 3, 4), sec(21)).value(), 2);
}

TEST(FlowTableV2, EvictVriRemovesOnlyThatVri) {
  FlowTableV2 table(256, sec(30));
  for (std::uint32_t i = 0; i < 120; ++i)
    table.insert(tuple(i + 1, 2, 3, 4), static_cast<int>(i % 4), 0);
  EXPECT_EQ(table.evict_vri(1), 30u);
  EXPECT_EQ(table.size(), 90u);
  for (std::uint32_t i = 0; i < 120; ++i) {
    const auto got = table.lookup(tuple(i + 1, 2, 3, 4), 1);
    if (i % 4 == 1) {
      EXPECT_FALSE(got.has_value()) << i;
    } else {
      ASSERT_TRUE(got.has_value()) << i;
      EXPECT_EQ(*got, static_cast<int>(i % 4)) << i;
    }
  }
  EXPECT_EQ(table.evict_vri(1), 0u);  // idempotent on an empty list
}

TEST(FlowTableV2, HitMissCounters) {
  FlowTableV2 table(64, sec(30));
  table.insert(tuple(1, 2, 3, 4), 0, 0);
  table.lookup(tuple(1, 2, 3, 4), 1);
  table.lookup(tuple(5, 6, 7, 8), 1);
  EXPECT_EQ(table.hits(), 1u);
  EXPECT_EQ(table.misses(), 1u);
}

TEST(FlowTableV2, HitMissCountersAcrossExpiry) {
  FlowTableV2 table(64, sec(10));
  table.insert(tuple(1, 2, 3, 4), 1, 0);
  EXPECT_FALSE(table.lookup(tuple(1, 2, 3, 4), sec(11)).has_value());
  EXPECT_EQ(table.hits(), 0u);
  EXPECT_EQ(table.misses(), 1u);
  table.insert(tuple(1, 2, 3, 4), 2, sec(11));
  EXPECT_TRUE(table.lookup(tuple(1, 2, 3, 4), sec(12)).has_value());
  EXPECT_EQ(table.hits(), 1u);
  EXPECT_EQ(table.misses(), 1u);
}

TEST(FlowTableV2, GrowsFarBeyondInitialCapacity) {
  FlowTableV2 table(16, sec(30));
  const std::size_t kN = 50'000;
  for (std::uint32_t i = 0; i < kN; ++i)
    table.insert(tuple(i + 1, i * 7 + 1, static_cast<std::uint16_t>(i),
                       static_cast<std::uint16_t>(i >> 16)),
                 static_cast<int>(i % 5), 1);
  EXPECT_EQ(table.size(), kN);
  EXPECT_GE(table.resizes_completed(), 5u);
  EXPECT_GE(table.capacity() * 7, kN * 8);  // settled below the 7/8 trigger
  for (std::uint32_t i = 0; i < kN; ++i) {
    const auto got =
        table.lookup(tuple(i + 1, i * 7 + 1, static_cast<std::uint16_t>(i),
                           static_cast<std::uint16_t>(i >> 16)),
                     2);
    ASSERT_TRUE(got.has_value()) << i;
    EXPECT_EQ(*got, static_cast<int>(i % 5)) << i;
  }
}

// The core incremental-resize property: while a migration is draining,
// every already-inserted entry stays findable, whichever generation it
// currently lives in.
TEST(FlowTableV2, LookupsSucceedMidMigration) {
  FlowTableV2 table(16, sec(30));
  std::size_t mid_resize_lookups = 0;
  for (std::uint32_t i = 0; i < 20'000; ++i) {
    table.insert(tuple(i + 1, 2, 3, 4), static_cast<int>(i % 3), 1);
    if (table.resizing() && i > 0) {
      // Probe an entry from the first half — old enough to sit in either
      // generation depending on the migration cursor.
      const std::uint32_t j = i / 2;
      const auto got = table.lookup(tuple(j + 1, 2, 3, 4), 1);
      ASSERT_TRUE(got.has_value()) << "i=" << i;
      EXPECT_EQ(*got, static_cast<int>(j % 3));
      ++mid_resize_lookups;
    }
  }
  // The test is vacuous unless we actually caught migrations in flight.
  EXPECT_GT(mid_resize_lookups, 100u);
  EXPECT_GT(table.resizes_completed(), 0u);
}

// Satellite regression: evict_vri during an in-flight migration must walk
// entries in BOTH generations plus the stash (refs encode the generation).
TEST(FlowTableV2, EvictVriInterleavedWithMigration) {
  FlowTableV2 table(16, sec(30));
  std::uint32_t n = 0;
  // Insert until a resize is in flight (and not about to finish: stop at
  // the first insert that leaves resizing() set).
  while (!table.resizing() && n < 100'000) {
    ++n;
    table.insert(tuple(n, 2, 3, 4), static_cast<int>(n % 4), 1);
  }
  ASSERT_TRUE(table.resizing());

  const std::size_t evicted = table.evict_vri(1);
  std::size_t want = 0;
  for (std::uint32_t i = 1; i <= n; ++i) want += (i % 4 == 1);
  EXPECT_EQ(evicted, want);

  // Drive the migration to completion with fresh inserts, then verify the
  // full population: vri-1 flows gone, everything else intact.
  std::uint32_t m = n;
  while (table.resizing())
    table.insert(tuple(++m, 5, 6, 7), 2, 1);
  for (std::uint32_t i = 1; i <= n; ++i) {
    const auto got = table.lookup(tuple(i, 2, 3, 4), 1);
    if (i % 4 == 1) {
      EXPECT_FALSE(got.has_value()) << i;
    } else {
      ASSERT_TRUE(got.has_value()) << i;
      EXPECT_EQ(*got, static_cast<int>(i % 4)) << i;
    }
  }
}

// GC wheel: idle entries are expired by background ticks alone — no lookup
// of the expired key is ever needed (the O(expired) property evict/expiry
// work rides on, versus FlowTable's probe-side-effect expiry).
TEST(FlowTableV2, GcTickExpiresIdleEntriesWithoutLookups) {
  FlowTableV2 table(512, sec(10));
  for (std::uint32_t i = 0; i < 200; ++i)
    table.insert(tuple(i + 1, 2, 3, 4), 0, 0);
  EXPECT_EQ(table.gc_tick(sec(5)), 0u);  // nothing idle past the timeout yet
  EXPECT_EQ(table.gc_tick(sec(30)), 200u);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.expired_total(), 200u);
  EXPECT_EQ(table.gc_tick(sec(31)), 0u);
}

// Lazy relinking: the hot path only refreshes last_seen, so the wheel visits
// entries at their original deadline slot — a refreshed entry must be
// relinked, not expired.
TEST(FlowTableV2, GcTickSparesRefreshedEntries) {
  FlowTableV2 table(64, sec(10));
  table.insert(tuple(1, 2, 3, 4), 1, 0);
  table.insert(tuple(5, 6, 7, 8), 2, 0);
  EXPECT_TRUE(table.lookup(tuple(1, 2, 3, 4), sec(8)).has_value());
  EXPECT_EQ(table.gc_tick(sec(15)), 1u);  // only the un-refreshed entry
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.lookup(tuple(1, 2, 3, 4), sec(15)).value(), 1);
  // The survivor expires off its refreshed deadline in a later window.
  EXPECT_EQ(table.gc_tick(sec(40)), 1u);
  EXPECT_EQ(table.size(), 0u);
}

// A long idle gap must not make gc_tick walk the whole elapsed history: the
// wheel caps at one revolution and jumps the cursor. Observable contract:
// the call still expires everything idle and later ticks still work.
TEST(FlowTableV2, GcTickSurvivesLongIdleGaps) {
  FlowTableV2 table(64, sec(10));
  table.insert(tuple(1, 2, 3, 4), 1, 0);
  EXPECT_EQ(table.gc_tick(sec(100'000)), 1u);
  EXPECT_EQ(table.size(), 0u);
  table.insert(tuple(1, 2, 3, 4), 2, sec(100'000));
  EXPECT_EQ(table.gc_tick(sec(100'020)), 1u);
  EXPECT_EQ(table.size(), 0u);
}

TEST(FlowTableV2, ZeroIdleTimeoutDisablesExpiry) {
  FlowTableV2 table(64, /*idle_timeout=*/0);
  table.insert(tuple(1, 2, 3, 4), 1, 0);
  EXPECT_EQ(table.gc_tick(sec(1'000'000)), 0u);
  EXPECT_TRUE(table.lookup(tuple(1, 2, 3, 4), sec(1'000'000)).has_value());
}

// A completed resize must not free the drained generation in one munmap
// (multi-ms page-table teardown at scale): the arena is queued and given
// back in bounded chunks over subsequent operations.
TEST(FlowTableV2, RetiredGenerationIsReclaimedIncrementally) {
  // Hint 7000 -> 1024 buckets -> a ~376 KB arena, larger than one 256 KB
  // reclaim chunk, so retired bytes are observable after completion.
  FlowTableV2 table(7000, sec(30));
  const Nanos now = sec(1);
  std::uint32_t n = 0;
  while (table.resizes_completed() == 0) {
    ++n;
    ASSERT_TRUE(table.insert(tuple(n, 1, 2, 3), static_cast<int>(n % 4), now));
    ASSERT_LT(n, 100000u);
  }
  EXPECT_GT(table.retired_bytes(), 0u);
  int steps = 0;
  while (table.retired_bytes() > 0) {
    EXPECT_TRUE(table.lookup(tuple(1, 1, 2, 3), now).has_value());
    ASSERT_LT(++steps, 100);
  }
  EXPECT_EQ(table.retired_bytes(), 0u);
}

TEST(FlowTableV2, ProbeLengthIsTracked) {
  FlowTableV2 table(64, sec(30));
  table.insert(tuple(1, 2, 3, 4), 1, 0);
  table.lookup(tuple(1, 2, 3, 4), 1);
  // A hit touches at most both home buckets of a settled table.
  EXPECT_GE(table.last_probe_len(), 1u);
  EXPECT_LE(table.last_probe_len(), 2u);
  table.lookup(tuple(9, 9, 9, 9), 1);
  EXPECT_GE(table.last_probe_len(), 1u);
}

// Resize lifecycle events: exactly one start (migrated == 0) and one
// completion (kIncrementalStep, migrated == entries moved) per growth —
// never per migration step, or a 16M-entry drain would flood the audit ring.
TEST(FlowTableV2, ResizeHookEmitsStartAndCompletionOnly) {
  FlowTableV2 table(16, sec(30));
  std::vector<FlowResizeEvent> events;
  table.set_resize_hook([&](const FlowResizeEvent& e) { events.push_back(e); });
  std::uint32_t i = 0;
  while (table.resizes_completed() < 2 && i < 100'000)
    table.insert(tuple(++i, 2, 3, 4), 0, 1);

  ASSERT_GE(events.size(), 4u);
  EXPECT_EQ(events.size(),
            table.resizes_started() + table.resizes_completed());
  EXPECT_EQ(events[0].cause, FlowResizeCause::kLoadFactor);
  EXPECT_EQ(events[0].migrated, 0u);
  EXPECT_EQ(events[0].buckets_after, events[0].buckets_before * 2);
  EXPECT_EQ(events[1].cause, FlowResizeCause::kIncrementalStep);
  EXPECT_GT(events[1].migrated, 0u);
  EXPECT_EQ(events[1].buckets_after, events[0].buckets_after);
}

// Cuckoo kick choices come from a fixed-seed LCG: two tables fed the same
// operation sequence must agree exactly (simulation replay depends on it).
TEST(FlowTableV2, DeterministicAcrossInstances) {
  FlowTableV2 a(16, sec(5));
  FlowTableV2 b(16, sec(5));
  Rng rng(99);
  Nanos now = 0;
  for (int step = 0; step < 20'000; ++step) {
    now += static_cast<Nanos>(rng.uniform(50'000'000));
    const FiveTuple t = tuple(static_cast<std::uint32_t>(rng.uniform(4096)),
                              static_cast<std::uint32_t>(rng.uniform(16)), 80,
                              443);
    const auto op = rng.uniform(10);
    if (op < 5) {
      const int vri = static_cast<int>(rng.uniform(6));
      a.insert(t, vri, now);
      b.insert(t, vri, now);
    } else if (op < 9) {
      EXPECT_EQ(a.lookup(t, now), b.lookup(t, now)) << step;
    } else {
      EXPECT_EQ(a.gc_tick(now), b.gc_tick(now)) << step;
    }
  }
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(a.hits(), b.hits());
  EXPECT_EQ(a.misses(), b.misses());
  EXPECT_EQ(a.resizes_started(), b.resizes_started());
  EXPECT_EQ(a.stash_peak(), b.stash_peak());
  EXPECT_EQ(a.max_kicks_seen(), b.max_kicks_seen());
}

// Property: FlowTableV2 agrees with a std::map reference model under a
// random workload of inserts, lookups, evictions and background GC ticks —
// the same harness FlowTable is held to, with gc_tick interleaved to cover
// wheel/migration interactions. Expired entries removed early by gc_tick
// are indistinguishable from lazily-resident ones at lookup time, so the
// lookup-level comparison is exact even though sizes transiently differ.
class FlowTableV2Model : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlowTableV2Model, MatchesReferenceModel) {
  FlowTableV2 table(16, sec(5));
  struct Ref {
    int vri;
    Nanos last_seen;
  };
  auto key = [](const FiveTuple& t) {
    return std::tuple{t.src_ip, t.dst_ip, t.src_port, t.dst_port, t.protocol};
  };
  std::map<std::tuple<std::uint32_t, std::uint32_t, std::uint16_t,
                      std::uint16_t, std::uint8_t>,
           Ref>
      ref;

  Rng rng(GetParam());
  Nanos now = 0;
  for (int step = 0; step < 6000; ++step) {
    now += static_cast<Nanos>(rng.uniform(200'000'000));  // up to 0.2 s
    const FiveTuple t =
        tuple(static_cast<std::uint32_t>(rng.uniform(40)),
              static_cast<std::uint32_t>(rng.uniform(40)),
              static_cast<std::uint16_t>(rng.uniform(4)),
              static_cast<std::uint16_t>(rng.uniform(4)));
    const auto op = rng.uniform(12);
    if (op < 5) {
      const int vri = static_cast<int>(rng.uniform(6));
      table.insert(t, vri, now);
      ref[key(t)] = Ref{vri, now};
    } else if (op < 10) {
      const auto got = table.lookup(t, now);
      const auto it = ref.find(key(t));
      std::optional<int> want;
      if (it != ref.end()) {
        if (now - it->second.last_seen > sec(5)) {
          ref.erase(it);
        } else {
          it->second.last_seen = now;
          want = it->second.vri;
        }
      }
      EXPECT_EQ(got, want) << "step " << step;
    } else if (op < 11) {
      const int vri = static_cast<int>(rng.uniform(6));
      table.evict_vri(vri);
      for (auto it = ref.begin(); it != ref.end();)
        it = it->second.vri == vri ? ref.erase(it) : std::next(it);
    } else {
      table.gc_tick(now);
      // The reference keeps expired entries; its lookup path drops them
      // lazily with the same strict-'>' test, so no purge is needed here.
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowTableV2Model,
                         ::testing::Values(1, 2, 3, 4, 5, 42, 1234));

}  // namespace
}  // namespace lvrm::net
