#include "lvrm/core_allocator.hpp"

#include <gtest/gtest.h>

namespace lvrm {
namespace {

VrAllocView view(int vris, double arrival, double service_per_vri = 0.0) {
  VrAllocView v;
  v.active_vris = vris;
  v.arrival_rate_fps = arrival;
  v.service_rate_per_vri = service_per_vri;
  return v;
}

TEST(FixedAllocator, NeverChanges) {
  FixedAllocator fixed;
  EXPECT_EQ(fixed.decide(view(1, 1e9)), AllocDecision::kHold);
  EXPECT_EQ(fixed.decide(view(7, 0.0)), AllocDecision::kHold);
}

TEST(DynamicFixed, CreatesWhenArrivalReachesThreshold) {
  // "If the aggregate traffic rate reaches the threshold 60 Kfps, then LVRM
  // increments the number of cores for the VR to two" (Exp 2c).
  DynamicFixedThresholdAllocator alloc(60'000.0);
  EXPECT_EQ(alloc.decide(view(1, 60'000.0)), AllocDecision::kCreate);
  EXPECT_EQ(alloc.decide(view(1, 59'000.0)), AllocDecision::kHold);
  EXPECT_EQ(alloc.decide(view(2, 120'000.0)), AllocDecision::kCreate);
}

TEST(DynamicFixed, DestroysWhenOneFewerSuffices) {
  DynamicFixedThresholdAllocator alloc(60'000.0);
  // With 3 VRIs and arrival well under 2x60K, drop to 2.
  EXPECT_EQ(alloc.decide(view(3, 100'000.0)), AllocDecision::kDestroy);
  // In the (2c-1)..c band: hold.
  EXPECT_EQ(alloc.decide(view(3, 130'000.0)), AllocDecision::kHold);
}

TEST(DynamicFixed, NeverDestroysLastVri) {
  DynamicFixedThresholdAllocator alloc(60'000.0);
  EXPECT_EQ(alloc.decide(view(1, 0.0)), AllocDecision::kHold);
}

TEST(DynamicFixed, HysteresisPreventsBoundaryFlapping) {
  DynamicFixedThresholdAllocator alloc(60'000.0);
  // At exactly 60 Kfps with 2 VRIs: threshold(1) = 60K, but destroy requires
  // arrival <= 60K * 0.97 — so hold, no create/destroy oscillation.
  EXPECT_EQ(alloc.decide(view(2, 60'000.0)), AllocDecision::kHold);
  EXPECT_EQ(alloc.decide(view(2, 57'000.0)), AllocDecision::kDestroy);
}

TEST(DynamicFixed, StaircaseMapsToExpectedCores) {
  // The Exp 2c mapping: c cores while rate in (60(c-1), 60c], via repeated
  // single-step decisions.
  DynamicFixedThresholdAllocator alloc(60'000.0);
  int vris = 1;
  auto settle = [&](double rate) {
    for (int guard = 0; guard < 20; ++guard) {
      const auto d = alloc.decide(view(vris, rate));
      if (d == AllocDecision::kCreate) {
        ++vris;
      } else if (d == AllocDecision::kDestroy) {
        --vris;
      } else {
        break;
      }
    }
  };
  settle(60'000.0);
  EXPECT_EQ(vris, 2);
  settle(120'000.0);
  EXPECT_EQ(vris, 3);
  settle(360'000.0);
  EXPECT_EQ(vris, 7);
  settle(180'000.0);
  EXPECT_EQ(vris, 4);
  settle(50'000.0);
  EXPECT_EQ(vris, 1);
}

TEST(DynamicDynamic, UsesMeasuredServiceRate) {
  DynamicDynamicThresholdAllocator alloc;
  // A slow VR serving 30 Kfps per VRI needs a new core at 30 Kfps already.
  EXPECT_EQ(alloc.decide(view(1, 35'000.0, 30'000.0)), AllocDecision::kCreate);
  // A fast VR serving 60 Kfps per VRI holds at the same arrival.
  EXPECT_EQ(alloc.decide(view(1, 35'000.0, 60'000.0)), AllocDecision::kHold);
}

TEST(DynamicDynamic, HoldsWithoutServiceSamples) {
  DynamicDynamicThresholdAllocator alloc;
  EXPECT_EQ(alloc.decide(view(1, 1e6, 0.0)), AllocDecision::kHold);
}

TEST(DynamicDynamic, ProportionalCoresForServiceRatio) {
  // Exp 2e: VR1:VR2 service rates 1:2 -> same load needs 2x the cores.
  DynamicDynamicThresholdAllocator alloc;
  auto settle = [&](double rate, double service) {
    int vris = 1;
    for (int guard = 0; guard < 20; ++guard) {
      const auto d = alloc.decide(view(vris, rate, service));
      if (d == AllocDecision::kCreate) {
        ++vris;
      } else if (d == AllocDecision::kDestroy) {
        --vris;
      } else {
        break;
      }
    }
    return vris;
  };
  const int slow_cores = settle(100'000.0, 30'000.0);
  const int fast_cores = settle(100'000.0, 60'000.0);
  EXPECT_EQ(slow_cores, 2 * fast_cores);
}

TEST(Factory, ProducesAllKinds) {
  EXPECT_EQ(make_allocator(AllocatorKind::kFixed, 60'000.0)->kind(),
            AllocatorKind::kFixed);
  EXPECT_EQ(
      make_allocator(AllocatorKind::kDynamicFixedThreshold, 60'000.0)->kind(),
      AllocatorKind::kDynamicFixedThreshold);
  EXPECT_EQ(
      make_allocator(AllocatorKind::kDynamicDynamicThreshold, 60'000.0)->kind(),
      AllocatorKind::kDynamicDynamicThreshold);
}

}  // namespace
}  // namespace lvrm
