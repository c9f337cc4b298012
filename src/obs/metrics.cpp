#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "util/contracts.hpp"

namespace cldpc::obs {

MetricsRegistry::MetricsRegistry()
    : epoch_(std::chrono::steady_clock::now()) {}

CounterId MetricsRegistry::Counter(const std::string& name, Determinism det) {
  CLDPC_EXPECTS(!name.empty(), "metric name must be non-empty");
  const auto it = counter_index_.find(name);
  if (it != counter_index_.end()) {
    CLDPC_EXPECTS(counter_defs_[it->second].det == det,
                  "counter re-registered with a different determinism tag");
    return {it->second};
  }
  CLDPC_EXPECTS(hist_index_.count(name) == 0,
                "metric name already registered as a histogram");
  const auto id = static_cast<std::uint32_t>(counter_defs_.size());
  counter_defs_.push_back({name, det});
  counter_index_.emplace(name, id);
  for (auto& shard : shards_) shard->counters_.resize(counter_defs_.size(), 0);
  return {id};
}

HistogramId MetricsRegistry::Hist(const std::string& name, Determinism det,
                                  const std::string& unit) {
  CLDPC_EXPECTS(!name.empty(), "metric name must be non-empty");
  const auto it = hist_index_.find(name);
  if (it != hist_index_.end()) {
    CLDPC_EXPECTS(hist_defs_[it->second].det == det,
                  "histogram re-registered with a different determinism tag");
    return {it->second};
  }
  CLDPC_EXPECTS(counter_index_.count(name) == 0,
                "metric name already registered as a counter");
  const auto id = static_cast<std::uint32_t>(hist_defs_.size());
  hist_defs_.push_back({name, det, unit});
  hist_index_.emplace(name, id);
  for (auto& shard : shards_) shard->hists_.resize(hist_defs_.size());
  return {id};
}

void MetricsRegistry::SetGauge(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(gauge_mutex_);
  const auto it = gauge_index_.find(name);
  if (it != gauge_index_.end()) {
    gauges_[it->second].second = value;
    return;
  }
  gauge_index_.emplace(name, gauges_.size());
  gauges_.emplace_back(name, value);
}

void MetricsRegistry::EnableTracing() {
  tracing_ = true;
  for (auto& shard : shards_) shard->tracing_ = true;
}

void MetricsRegistry::SetShardCount(std::size_t n) {
  // Re-size existing shards for metrics registered since they were
  // created (zero-filled slots; recorded data is preserved). This
  // lets control-plane code register late — e.g. the dist layer adds
  // shard.* bookkeeping to a registry an engine already sharded.
  while (shards_.size() < n) {
    auto shard = std::make_unique<Shard>();
    shard->epoch_ = epoch_;
    shard->tracing_ = tracing_;
    shards_.push_back(std::move(shard));
  }
  for (const auto& shard : shards_) {
    shard->counters_.resize(counter_defs_.size(), 0);
    shard->hists_.resize(hist_defs_.size());
  }
}

std::uint64_t MetricsRegistry::MergedCounter(CounterId id) const {
  CLDPC_EXPECTS(id.valid(), "unregistered counter");
  std::uint64_t total = 0;
  for (const auto& shard : shards_)
    total += detail::RelaxedLoad(shard->counters_[id.v]);
  return total;
}

MetricsView MetricsRegistry::Snapshot() const {
  namespace d = detail;
  MetricsView out;
  out.counters.reserve(counter_defs_.size());
  for (std::uint32_t c = 0; c < counter_defs_.size(); ++c) {
    out.counters.push_back(
        {counter_defs_[c].name, counter_defs_[c].det, MergedCounter({c})});
  }
  {
    std::lock_guard<std::mutex> lock(gauge_mutex_);
    out.gauges.reserve(gauges_.size());
    for (const auto& [name, value] : gauges_)
      out.gauges.push_back({name, value});
  }
  out.histograms.reserve(hist_defs_.size());
  std::vector<std::uint64_t> buckets(kHistBuckets);
  for (std::uint32_t h = 0; h < hist_defs_.size(); ++h) {
    MetricsView::Hist merged;
    merged.name = hist_defs_[h].name;
    merged.det = hist_defs_[h].det;
    merged.unit = hist_defs_[h].unit;
    std::fill(buckets.begin(), buckets.end(), 0);
    std::int64_t sum = 0;
    bool any = false;
    for (const auto& shard : shards_) {
      const HistCells& cells = shard->hists_[h];
      // Per-shard emptiness via the writer-maintained count; the
      // merged count below is re-derived from the bucket sum so one
      // snapshot can never report count > bucket mass.
      if (d::RelaxedLoad(cells.count) == 0) continue;
      const std::int64_t lo = d::RelaxedLoad(cells.min);
      const std::int64_t hi = d::RelaxedLoad(cells.max);
      merged.min = any ? std::min(merged.min, lo) : lo;
      merged.max = any ? std::max(merged.max, hi) : hi;
      any = true;
      sum += d::RelaxedLoad(cells.sum);
      for (std::size_t b = 0; b < kHistBuckets; ++b)
        buckets[b] += d::RelaxedLoad(cells.buckets[b]);
    }
    for (std::size_t b = 0; b < kHistBuckets; ++b) {
      if (buckets[b] == 0) continue;
      merged.count += buckets[b];
      merged.bins.emplace_back(HistBucketLowerBound(b), buckets[b]);
    }
    if (merged.count > 0) {
      merged.mean =
          static_cast<double>(sum) / static_cast<double>(merged.count);
      // Nearest rank: the bin holding sample ceil(q·N), 1-based. Its
      // lower bound may sit below every sample in it; min is exact.
      const auto quantile = [&](double q) {
        const auto rank = static_cast<std::uint64_t>(
            std::ceil(q * static_cast<double>(merged.count)));
        std::uint64_t seen = 0;
        for (const auto& [lower, n] : merged.bins) {
          seen += n;
          if (seen >= rank) return std::max(lower, merged.min);
        }
        return merged.max;
      };
      merged.p50 = quantile(0.50);
      merged.p90 = quantile(0.90);
      merged.p99 = quantile(0.99);
    }
    out.histograms.push_back(std::move(merged));
  }
  return out;
}

std::vector<std::pair<std::size_t, TraceEvent>> MetricsRegistry::CollectTrace()
    const {
  std::vector<std::pair<std::size_t, TraceEvent>> events;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    for (const auto& ev : shards_[s]->events_) events.emplace_back(s, ev);
  }
  return events;
}

}  // namespace cldpc::obs
