#include "obs/metrics.hpp"

#include <sstream>

namespace vapres::obs {

namespace {

int bucket_of(std::uint64_t v) {
  if (v == 0) return 0;
  int b = 1;
  while (v >>= 1) ++b;
  return b;  // values in [2^(b-1), 2^b) land in bucket b
}

std::uint64_t bucket_upper_bound(int bucket) {
  if (bucket == 0) return 0;
  if (bucket >= 64) return ~std::uint64_t{0};
  return (std::uint64_t{1} << bucket) - 1;
}

}  // namespace

void Histogram::record(std::uint64_t v) {
  ++buckets_[static_cast<std::size_t>(bucket_of(v))];
  ++count_;
  sum_ += v;
  if (v < min_) min_ = v;
  if (v > max_) max_ = v;
}

std::uint64_t Histogram::percentile(double p) const {
  if (count_ == 0) return 0;
  const auto rank = static_cast<std::uint64_t>(
      p * static_cast<double>(count_) + 0.5);
  std::uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += buckets_[static_cast<std::size_t>(b)];
    if (seen >= rank && seen > 0) {
      // Clamp the bucket bound into the observed range so p100 == max.
      const std::uint64_t bound = bucket_upper_bound(b);
      return bound > max_ ? max_ : bound;
    }
  }
  return max_;
}

void Histogram::reset() {
  buckets_.fill(0);
  count_ = 0;
  sum_ = 0;
  min_ = ~std::uint64_t{0};
  max_ = 0;
}

HistogramSummary summarize(const std::string& name, const Histogram& h) {
  HistogramSummary s;
  s.name = name;
  s.count = h.count();
  s.sum = h.sum();
  s.min = h.min();
  s.max = h.max();
  s.mean = h.mean();
  s.p50 = h.percentile(0.50);
  s.p90 = h.percentile(0.90);
  s.p99 = h.percentile(0.99);
  return s;
}

std::string MetricsSnapshot::to_string() const {
  std::ostringstream os;
  os << "=== metrics registry ===\n";
  for (const auto& [name, value] : counters) {
    os << "counter " << name << " = " << value << "\n";
  }
  for (const auto& [name, value] : gauges) {
    os << "gauge " << name << " = " << value << "\n";
  }
  for (const HistogramSummary& h : histograms) {
    os << "histogram " << h.name << ": n=" << h.count << " mean=" << h.mean
       << " min=" << h.min << " p50=" << h.p50 << " p90=" << h.p90
       << " p99=" << h.p99 << " max=" << h.max << "\n";
  }
  return os.str();
}

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

Counter& Registry::counter(const std::string& name) {
  return slot(counters_, name);
}

Gauge& Registry::gauge(const std::string& name) {
  return slot(gauges_, name);
}

Histogram& Registry::histogram(const std::string& name) {
  return slot(histograms_, name);
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace_back(name, c->value());
  }
  for (const auto& [name, g] : gauges_) {
    snap.gauges.emplace_back(name, g->value());
  }
  for (const auto& [name, h] : histograms_) {
    snap.histograms.push_back(summarize(name, *h));
  }
  return snap;
}

HistogramSummary Registry::summary(const std::string& name) const {
  const auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    HistogramSummary s;
    s.name = name;
    return s;
  }
  return summarize(name, *it->second);
}

void Registry::reset() {
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

}  // namespace vapres::obs
