#include "src/obs/metrics.h"

#include <algorithm>

#include "src/common/check.h"

namespace ctobs {

const std::vector<uint64_t>& Histogram::DefaultBounds() {
  static const std::vector<uint64_t> kBounds = {
      1,    2,    5,     10,    20,    50,    100,    200,    500,
      1000, 2000, 5000,  10000, 20000, 50000, 100000, 200000, 500000};
  return kBounds;
}

Histogram::Histogram(std::vector<uint64_t> bounds) : bounds_(std::move(bounds)) {
  CT_CHECK_MSG(!bounds_.empty(), "histogram needs at least one bucket bound");
  for (size_t i = 1; i < bounds_.size(); ++i) {
    CT_CHECK_MSG(bounds_[i - 1] < bounds_[i], "histogram bounds must ascend");
  }
  counts_.assign(bounds_.size() + 1, 0);
}

Histogram Histogram::FromParts(std::vector<uint64_t> bounds, std::vector<uint64_t> counts,
                               uint64_t sum, uint64_t max) {
  Histogram histogram(std::move(bounds));
  CT_CHECK_MSG(counts.size() == histogram.bounds_.size() + 1,
               "histogram counts must cover every bound plus overflow");
  histogram.counts_ = std::move(counts);
  histogram.count_ = 0;
  for (uint64_t bucket : histogram.counts_) {
    histogram.count_ += bucket;
  }
  histogram.sum_ = sum;
  histogram.max_ = max;
  return histogram;
}

void Histogram::Observe(uint64_t value) {
  // First bucket whose inclusive upper edge admits the value; everything
  // past the last bound lands in the overflow bucket.
  size_t bucket =
      std::lower_bound(bounds_.begin(), bounds_.end(), value) - bounds_.begin();
  ++counts_[bucket];
  ++count_;
  sum_ += value;
  max_ = std::max(max_, value);
}

void Histogram::Merge(const Histogram& other) {
  CT_CHECK_MSG(bounds_ == other.bounds_, "histogram merge requires identical bounds");
  for (size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  max_ = std::max(max_, other.max_);
}

double Histogram::Percentile(double p) const {
  if (count_ == 0) {
    return 0.0;
  }
  p = std::clamp(p, 0.0, 100.0);
  // Rank of the percentile sample, 1-based (nearest-rank with interpolation
  // inside the bucket that holds it).
  const double rank = p / 100.0 * static_cast<double>(count_);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) {
      continue;
    }
    const uint64_t before = cumulative;
    cumulative += counts_[i];
    if (static_cast<double>(cumulative) >= rank) {
      const double lower = i == 0 ? 0.0 : static_cast<double>(bounds_[i - 1]);
      const double upper =
          i < bounds_.size() ? static_cast<double>(bounds_[i]) : static_cast<double>(max_);
      const double fraction =
          (rank - static_cast<double>(before)) / static_cast<double>(counts_[i]);
      return lower + (upper - lower) * std::clamp(fraction, 0.0, 1.0);
    }
  }
  return static_cast<double>(max_);
}

void MetricsShard::Add(const std::string& name, uint64_t delta) { counters_[name] += delta; }

void MetricsShard::SetGauge(const std::string& name, int64_t value) {
  auto [it, inserted] = gauges_.try_emplace(name, value);
  if (!inserted) {
    it->second = std::max(it->second, value);
  }
}

void MetricsShard::Observe(const std::string& name, uint64_t value) {
  histograms_.try_emplace(name).first->second.Observe(value);
}

uint64_t MetricsShard::counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

void MetricsShard::Merge(const MetricsShard& other) {
  for (const auto& [name, value] : other.counters_) {
    counters_[name] += value;
  }
  for (const auto& [name, value] : other.gauges_) {
    SetGauge(name, value);
  }
  for (const auto& [name, histogram] : other.histograms_) {
    auto [it, inserted] = histograms_.try_emplace(name, Histogram(histogram.bounds()));
    it->second.Merge(histogram);
  }
}

}  // namespace ctobs
