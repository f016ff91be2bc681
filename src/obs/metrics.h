// Deterministic campaign metrics.
//
// The injection campaign is embarrassingly parallel, and so is its
// measurement: every run writes counters, gauges and fixed-bucket histograms
// into its own shard, and the campaign folds each shard into its own as the
// run retires. Every merge is a sum, a maximum or a bucket-wise histogram
// merge, so the fold commutes; and because every recorded value is derived
// from simulator events (virtual time, message counts), the aggregate is
// byte-identical at any --jobs count. Wall-clock
// data is kept *outside* the shard (see snapshot.h) so the deterministic
// half of a snapshot can be diffed across thread counts.
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ctobs {

// Fixed-bucket histogram over non-negative integer samples (virtual-time
// milliseconds, event counts). Buckets are defined by inclusive upper
// bounds: a sample lands in the first bucket whose bound is >= the sample,
// or in the implicit overflow bucket past the last bound. With bounds fixed
// at construction, Merge is associative and commutative, so shard
// aggregation order cannot change the result.
class Histogram {
 public:
  // Default bounds cover the simulator's dynamic range: 1 ms phases up to
  // multi-minute hang deadlines.
  static const std::vector<uint64_t>& DefaultBounds();

  Histogram() : Histogram(DefaultBounds()) {}
  explicit Histogram(std::vector<uint64_t> bounds);

  // Rebuilds a histogram from its serialized parts (ctstat and the tests
  // read snapshots back). `counts` must have bounds.size() + 1 entries; the
  // total count is their sum (CT_CHECK on shape violations — callers that
  // consume untrusted files validate first).
  static Histogram FromParts(std::vector<uint64_t> bounds, std::vector<uint64_t> counts,
                             uint64_t sum, uint64_t max);

  void Observe(uint64_t value);
  // Requires identical bounds (CT_CHECK).
  void Merge(const Histogram& other);

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t max() const { return max_; }
  const std::vector<uint64_t>& bounds() const { return bounds_; }
  // One count per bound plus the trailing overflow bucket.
  const std::vector<uint64_t>& bucket_counts() const { return counts_; }

  // Linear interpolation within the bucket holding the p-th percentile
  // (p in [0,100]); the overflow bucket's upper edge is the observed max.
  // 0 when empty.
  double Percentile(double p) const;

 private:
  std::vector<uint64_t> bounds_;  // ascending, inclusive upper edges
  std::vector<uint64_t> counts_;  // bounds_.size() + 1 (overflow)
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t max_ = 0;
};

// One run's (or one campaign's) worth of metrics. Counters add, gauges keep
// the maximum across merges (they record high-water marks like cluster
// size), and histograms merge bucket-wise.
class MetricsShard {
 public:
  void Add(const std::string& name, uint64_t delta = 1);
  void SetGauge(const std::string& name, int64_t value);
  void Observe(const std::string& name, uint64_t value);

  uint64_t counter(const std::string& name) const;
  const std::map<std::string, uint64_t>& counters() const { return counters_; }
  const std::map<std::string, int64_t>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const { return histograms_; }

  void Merge(const MetricsShard& other);
  bool empty() const { return counters_.empty() && gauges_.empty() && histograms_.empty(); }

 private:
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, int64_t> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace ctobs

#endif  // SRC_OBS_METRICS_H_
