#include "obs/metrics.hpp"

#include <cmath>

namespace lvrm::obs {

template <class Read>
void MetricsRegistry::add(std::vector<Entry<Read>>& entries,
                          const std::string& name, const std::string& labels,
                          Read read) {
  for (auto& e : entries)
    if (e.name == name && e.labels == labels) {
      e.read = std::move(read);
      return;
    }
  entries.push_back(Entry<Read>{name, labels, std::move(read)});
}

void MetricsRegistry::counter(const std::string& name,
                              const std::string& labels, CounterReader read) {
  add(counters_, name, labels, std::move(read));
}

void MetricsRegistry::gauge(const std::string& name, const std::string& labels,
                            GaugeReader read) {
  add(gauges_, name, labels, std::move(read));
}

void MetricsRegistry::histogram(const std::string& name,
                                const std::string& labels,
                                const LogHistogram& h) {
  add(histograms_, name, labels, &h);
}

Snapshot MetricsRegistry::snapshot(Nanos at) const {
  Snapshot snap;
  snap.at = at;
  snap.counters.reserve(counters_.size());
  for (const auto& e : counters_)
    snap.counters.push_back(CounterSample{e.name, e.labels, e.read()});
  snap.gauges.reserve(gauges_.size());
  for (const auto& e : gauges_)
    snap.gauges.push_back(GaugeSample{e.name, e.labels, e.read()});
  snap.histograms.reserve(histograms_.size());
  for (const auto& e : histograms_)
    snap.histograms.push_back(
        HistogramSample{e.name, e.labels, e.read->buckets});
  return snap;
}

std::uint64_t HistogramSample::count() const {
  std::uint64_t n = 0;
  for (auto b : buckets) n += b;
  return n;
}

double HistogramSample::bucket_lo(std::size_t i) {
  if (i == 0) return 0.0;
  return std::ldexp(1.0, static_cast<int>(i) - 1);  // 2^(i-1)
}

double HistogramSample::bucket_hi(std::size_t i) {
  if (i == 0) return 0.0;  // bucket 0 holds only the exact value 0
  return std::ldexp(1.0, static_cast<int>(i));  // 2^i
}

double HistogramSample::quantile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Target rank in [1, n]; walk the cumulative distribution.
  const double target = q * static_cast<double>(n);
  double cum = 0.0;
  for (std::size_t i = 0; i < kHistBuckets; ++i) {
    if (buckets[i] == 0) continue;
    const double prev = cum;
    cum += static_cast<double>(buckets[i]);
    if (cum >= target) {
      if (i == 0) return 0.0;
      const double frac =
          (target - prev) / static_cast<double>(buckets[i]);
      return bucket_lo(i) + frac * (bucket_hi(i) - bucket_lo(i));
    }
  }
  // Unreachable for n > 0, but keep a defined answer.
  return bucket_hi(kHistBuckets - 1);
}

double HistogramSample::approx_mean() const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 1; i < kHistBuckets; ++i)
    sum += static_cast<double>(buckets[i]) *
           (bucket_lo(i) + bucket_hi(i)) * 0.5;
  return sum / static_cast<double>(n);
}

}  // namespace lvrm::obs
