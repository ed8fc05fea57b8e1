// Audit trail: bounded-ring semantics (ordering, overwrite-oldest,
// loss accounting) and the per-kind event vocabulary.
#include <gtest/gtest.h>

#include <cstring>

#include "obs/audit.hpp"

namespace lvrm::obs {
namespace {

AuditEvent ev(Nanos t, AuditKind kind, std::uint64_t a) {
  AuditEvent e;
  e.time = t;
  e.until = t;
  e.kind = kind;
  e.vr = 0;
  e.a = a;
  return e;
}

TEST(AuditTrail, KeepsInsertionOrderBelowCapacity) {
  AuditTrail trail(8);
  for (std::uint64_t i = 0; i < 5; ++i)
    trail.record(ev(static_cast<Nanos>(i), AuditKind::kVriCreate, i));
  EXPECT_EQ(trail.total(), 5u);
  EXPECT_EQ(trail.size(), 5u);
  EXPECT_EQ(trail.overwritten(), 0u);
  const auto events = trail.events();
  ASSERT_EQ(events.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) EXPECT_EQ(events[i].a, i);
}

TEST(AuditTrail, OverwritesOldestBeyondCapacity) {
  AuditTrail trail(4);
  for (std::uint64_t i = 0; i < 10; ++i)
    trail.record(ev(static_cast<Nanos>(i), AuditKind::kBalanceSummary, i));
  EXPECT_EQ(trail.total(), 10u);
  EXPECT_EQ(trail.size(), 4u);
  EXPECT_EQ(trail.overwritten(), 6u);
  const auto events = trail.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-to-newest: the last 4 recorded.
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(events[i].a, 6u + i);
  // Times stay sorted after the wrap.
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_LE(events[i - 1].time, events[i].time);
}

TEST(AuditTrail, ExactlyAtCapacityLosesNothing) {
  AuditTrail trail(3);
  for (std::uint64_t i = 0; i < 3; ++i)
    trail.record(ev(static_cast<Nanos>(i), AuditKind::kOverloadLevel, i));
  EXPECT_EQ(trail.overwritten(), 0u);
  EXPECT_EQ(trail.events().front().a, 0u);
  EXPECT_EQ(trail.events().back().a, 2u);
}

TEST(AuditKindNames, AreStableStrings) {
  EXPECT_STREQ(to_string(AuditKind::kVriCreate), "vri_create");
  EXPECT_STREQ(to_string(AuditKind::kVriDestroy), "vri_destroy");
  EXPECT_STREQ(to_string(AuditKind::kHealthDead), "health_dead");
  EXPECT_STREQ(to_string(AuditKind::kHealthHung), "health_hung");
  EXPECT_STREQ(to_string(AuditKind::kHealthFailSlow), "health_fail_slow");
  EXPECT_STREQ(to_string(AuditKind::kBalanceSummary), "balance_summary");
}

TEST(AuditTrail, TwoWritersSurviveAFullRingCycleConsistently) {
  // Two logical writers — the allocator paths of two VRs — interleave
  // create/destroy events through more than one full ring cycle. The
  // retained window must stay oldest-to-newest, the loss accounting must
  // match exactly what scrolled off, and each VR's count-after (`a`) field
  // must still replay to a consistent per-VR VRI count from whatever suffix
  // survived the overwrites.
  constexpr std::size_t kCap = 8;
  AuditTrail trail(kCap);
  std::uint64_t count[2] = {0, 0};
  std::vector<std::uint64_t> expect_a;  // ground truth, insertion order
  std::vector<std::int16_t> expect_vr;
  for (std::uint64_t i = 0; i < 3 * kCap + 5; ++i) {
    const int vr = static_cast<int>(i % 2);  // writers alternate
    const bool create = count[vr] == 0 || (i % 5) != 4;
    count[vr] += create ? 1 : std::uint64_t(-1);
    AuditEvent e = ev(static_cast<Nanos>(i),
                      create ? AuditKind::kVriCreate : AuditKind::kVriDestroy,
                      count[vr]);
    e.vr = static_cast<std::int16_t>(vr);
    trail.record(e);
    expect_a.push_back(count[vr]);
    expect_vr.push_back(e.vr);
  }
  EXPECT_EQ(trail.total(), expect_a.size());
  EXPECT_EQ(trail.size(), kCap);
  EXPECT_EQ(trail.overwritten(), expect_a.size() - kCap);

  const auto events = trail.events();
  ASSERT_EQ(events.size(), kCap);
  const std::size_t base = expect_a.size() - kCap;
  for (std::size_t i = 0; i < kCap; ++i) {
    // The retained suffix is exactly the newest kCap events, in order, with
    // both writers' fields intact (no cross-writer smearing on overwrite).
    EXPECT_EQ(events[i].time, static_cast<Nanos>(base + i));
    EXPECT_EQ(events[i].vr, expect_vr[base + i]);
    EXPECT_EQ(events[i].a, expect_a[base + i]);
    if (i > 0) {
      EXPECT_LE(events[i - 1].time, events[i].time);
    }
  }
  // Replaying the suffix still yields each writer's final count.
  std::uint64_t replay[2] = {count[0], count[1]};  // seed from truth...
  for (const auto& e : events)
    replay[e.vr] = e.a;  // ...then overwrite with the trail's own story
  EXPECT_EQ(replay[0], count[0]);
  EXPECT_EQ(replay[1], count[1]);
}

TEST(AuditReplay, CreateDestroyReconstructsCounts) {
  // The `a` field of create/destroy events is the count AFTER the change, so
  // replaying the trail reconstructs the allocator's state exactly.
  AuditTrail trail(16);
  trail.record(ev(0, AuditKind::kVriCreate, 1));
  trail.record(ev(1, AuditKind::kVriCreate, 2));
  trail.record(ev(2, AuditKind::kVriDestroy, 1));
  trail.record(ev(3, AuditKind::kVriCreate, 2));
  std::uint64_t count = 0;
  for (const auto& e : trail.events())
    if (e.kind == AuditKind::kVriCreate || e.kind == AuditKind::kVriDestroy)
      count = e.a;
  EXPECT_EQ(count, 2u);
}

}  // namespace
}  // namespace lvrm::obs
