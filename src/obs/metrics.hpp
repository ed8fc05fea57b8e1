// metrics.hpp — the single-writer metrics registry (DESIGN.md §10).
//
// A registry belongs to one Telemetry, which belongs to one LvrmSystem (or
// one bench harness) on one simulator thread — the paper's LVRM is likewise
// one monitor process on one pinned core, so the registry is already per
// core, as the load-aware sampling literature asks of monitoring state.
// It keeps no tallies of its own: a counter or gauge is registered once
// with a reader over a value its owner keeps anyway, and snapshot() calls
// every reader. A histogram is a plain bucket array its owner records into
// and the registry reads at snapshot time. Counters and gauges therefore
// cost the data path nothing, and a sampled latency costs one array
// increment.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace lvrm::obs {

/// Log2 histogram buckets: bucket 0 holds exact zeros, bucket k (k >= 1)
/// holds values in [2^(k-1), 2^k). 64 value buckets cover the full uint64
/// range, so a nanosecond latency can never fall outside the histogram.
inline constexpr std::size_t kHistBuckets = 65;

namespace detail {

/// Bucket of a value: 0 for 0, else 1 + floor(log2(v)) — exactly bit_width.
inline std::size_t hist_bucket(std::uint64_t v) {
  return static_cast<std::size_t>(std::bit_width(v));  // 0..64
}

}  // namespace detail

/// Log2-bucket histogram: a plain bucket array, written by its one owner.
struct LogHistogram {
  std::array<std::uint64_t, kHistBuckets> buckets{};
  void record(std::uint64_t v) { ++buckets[detail::hist_bucket(v)]; }
};

// --- snapshot types (plain data) -----------------------------------------------

struct CounterSample {
  std::string name;
  std::string labels;  // preformatted, e.g. `vr="0",vri="2"` (may be empty)
  std::uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  std::string labels;
  double value = 0.0;
};

struct HistogramSample {
  std::string name;
  std::string labels;
  std::array<std::uint64_t, kHistBuckets> buckets{};

  std::uint64_t count() const;
  /// Inclusive lower / exclusive upper value edge of bucket i.
  static double bucket_lo(std::size_t i);
  static double bucket_hi(std::size_t i);
  /// Quantile by linear interpolation inside the log bucket. Empty
  /// histograms return 0 (never NaN).
  double quantile(double q) const;
  /// Mean estimated from bucket midpoints (exact for bucket 0).
  double approx_mean() const;
};

/// Every registered metric's value at `at` sim-time.
struct Snapshot {
  Nanos at = 0;
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
};

/// Registry of named metrics, each read at snapshot time. Snapshots list
/// each kind in registration order. Registering a name+labels pair again
/// replaces its reader and keeps its place.
class MetricsRegistry {
 public:
  using CounterReader = std::function<std::uint64_t()>;
  using GaugeReader = std::function<double()>;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  void counter(const std::string& name, const std::string& labels,
               CounterReader read);
  void gauge(const std::string& name, const std::string& labels,
             GaugeReader read);
  /// `h` is read in place at every snapshot, so it must outlive them.
  void histogram(const std::string& name, const std::string& labels,
                 const LogHistogram& h);

  Snapshot snapshot(Nanos at = 0) const;

 private:
  template <class Read>
  struct Entry {
    std::string name, labels;
    Read read;
  };
  template <class Read>
  static void add(std::vector<Entry<Read>>& entries, const std::string& name,
                  const std::string& labels, Read read);

  std::vector<Entry<CounterReader>> counters_;
  std::vector<Entry<GaugeReader>> gauges_;
  std::vector<Entry<const LogHistogram*>> histograms_;
};

}  // namespace lvrm::obs
