// Metrics registry: readers called at snapshot time, registration order and
// replacement, and the log-bucket histogram math.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "obs/metrics.hpp"

namespace lvrm::obs {
namespace {

TEST(MetricsRegistry, CounterAccumulatesAcrossAdds) {
  // The registry keeps no tally: each snapshot reads the owner's.
  MetricsRegistry reg;
  std::uint64_t frames = 0;
  reg.counter("frames_total", {}, [&frames] { return frames; });
  EXPECT_EQ(reg.snapshot().counters[0].value, 0u);
  ++frames;
  frames += 41;
  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].name, "frames_total");
  EXPECT_EQ(snap.counters[0].value, 42u);
}

TEST(MetricsRegistry, RegistrationIsIdempotent) {
  // Registering a name+labels pair again replaces its reader in place.
  MetricsRegistry reg;
  reg.counter("x", {}, [] { return std::uint64_t{1}; });
  reg.counter("y", {}, [] { return std::uint64_t{5}; });
  reg.counter("x", {}, [] { return std::uint64_t{2}; });
  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "x");
  EXPECT_EQ(snap.counters[0].value, 2u);
}

TEST(MetricsRegistry, LabelsSeparateStorage) {
  MetricsRegistry reg;
  reg.counter("y", "vr=\"0\"", [] { return std::uint64_t{1}; });
  reg.counter("y", "vr=\"1\"", [] { return std::uint64_t{2}; });
  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].value + snap.counters[1].value, 3u);
}

TEST(MetricsRegistry, GaugeLastWriteWins) {
  MetricsRegistry reg;
  double depth = 0.0;
  reg.gauge("depth", {}, [&depth] { return depth; });
  depth = 3.0;
  depth = 7.5;
  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].value, 7.5);
}

TEST(MetricsRegistry, HandlesStayValidAsRegistryGrows) {
  // The registry reads a histogram in place: registering many later
  // metrics must not detach it from the owner's bucket array.
  MetricsRegistry reg;
  LogHistogram first;
  reg.histogram("first", {}, first);
  for (int i = 0; i < 200; ++i)
    reg.histogram("h" + std::to_string(i), {}, first);
  first.record(5);
  EXPECT_EQ(reg.snapshot().histograms[0].count(), 1u);
}

TEST(LogBuckets, MappingMatchesPowerOfTwoEdges) {
  EXPECT_EQ(detail::hist_bucket(0), 0u);
  EXPECT_EQ(detail::hist_bucket(1), 1u);
  EXPECT_EQ(detail::hist_bucket(2), 2u);
  EXPECT_EQ(detail::hist_bucket(3), 2u);
  EXPECT_EQ(detail::hist_bucket(4), 3u);
  EXPECT_EQ(detail::hist_bucket(1023), 10u);
  EXPECT_EQ(detail::hist_bucket(1024), 11u);
  EXPECT_EQ(detail::hist_bucket(~std::uint64_t{0}), 64u);
  // Edges agree with the mapping: bucket k covers [2^(k-1), 2^k).
  EXPECT_DOUBLE_EQ(HistogramSample::bucket_lo(3), 4.0);
  EXPECT_DOUBLE_EQ(HistogramSample::bucket_hi(3), 8.0);
  EXPECT_DOUBLE_EQ(HistogramSample::bucket_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(HistogramSample::bucket_hi(0), 0.0);
}

TEST(LogHistogram, QuantilesInterpolateInsideBuckets) {
  MetricsRegistry reg;
  LogHistogram h;
  reg.histogram("lat", {}, h);
  for (int i = 0; i < 100; ++i) h.record(100);  // bucket 7: [64, 128)
  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  const HistogramSample& s = snap.histograms[0];
  EXPECT_EQ(s.count(), 100u);
  EXPECT_GE(s.quantile(0.5), 64.0);
  EXPECT_LE(s.quantile(0.5), 128.0);
  EXPECT_LE(s.quantile(0.01), s.quantile(0.99));
  // Empty histogram: defined, not NaN.
  HistogramSample empty;
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(empty.approx_mean(), 0.0);
}

TEST(LogHistogram, ZeroValuesLandInBucketZero) {
  MetricsRegistry reg;
  LogHistogram h;
  reg.histogram("z", {}, h);
  h.record(0);
  h.record(0);
  h.record(9);
  const HistogramSample s = reg.snapshot().histograms[0];
  EXPECT_EQ(s.buckets[0], 2u);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.quantile(0.3), 0.0);
}

}  // namespace
}  // namespace lvrm::obs
