#include "obs/metrics.hpp"

#include <algorithm>

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
  for (auto& shard : shards_) {
    shard->hists_.resize(hist_defs_.size());
    shard->live_hists_.resize(hist_defs_.size());
  }
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
  for (const auto& shard : shards_) {
    shard->counters_.resize(counter_defs_.size(), 0);
    shard->hists_.resize(hist_defs_.size());
    shard->live_hists_.resize(hist_defs_.size());
  }
  while (shards_.size() < n) {
    auto shard = std::make_unique<Shard>();
    shard->counters_.resize(counter_defs_.size(), 0);
    shard->hists_.resize(hist_defs_.size());
    shard->live_hists_.resize(hist_defs_.size());
    shard->epoch_ = epoch_;
    shard->tracing_ = tracing_;
    shards_.push_back(std::move(shard));
  }
}

std::uint64_t MetricsRegistry::MergedCounter(CounterId id) const {
  CLDPC_EXPECTS(id.valid(), "unregistered counter");
  std::uint64_t total = 0;
  for (const auto& shard : shards_)
    total += detail::RelaxedLoad(shard->counters_[id.v]);
  return total;
}

MetricsView MetricsRegistry::CountersAndGauges() const {
  MetricsView out;
  out.counters.reserve(counter_defs_.size());
  for (std::uint32_t c = 0; c < counter_defs_.size(); ++c) {
    out.counters.push_back(
        {counter_defs_[c].name, counter_defs_[c].det, MergedCounter({c})});
  }
  std::lock_guard<std::mutex> lock(gauge_mutex_);
  out.gauges.reserve(gauges_.size());
  for (const auto& [name, value] : gauges_) out.gauges.push_back({name, value});
  return out;
}

MetricsView MetricsRegistry::Merge() const {
  MetricsView out = CountersAndGauges();
  out.histograms.reserve(hist_defs_.size());
  for (std::uint32_t h = 0; h < hist_defs_.size(); ++h) {
    // In shard-index order: not needed for correctness (integer bin
    // merges commute) but it keeps the walk order reproducible.
    Histogram merged;
    for (const auto& shard : shards_) merged.Merge(shard->hists_[h]);
    const auto s = merged.Summarize();
    out.histograms.push_back({hist_defs_[h].name, hist_defs_[h].det,
                              hist_defs_[h].unit, s.count, s.min, s.max,
                              s.mean, s.p50, s.p90, s.p99,
                              {merged.bins().begin(), merged.bins().end()}});
  }
  return out;
}

MetricsView MetricsRegistry::Snapshot() const {
  namespace d = detail;
  MetricsView out = CountersAndGauges();
  out.histograms.reserve(hist_defs_.size());
  for (std::uint32_t h = 0; h < hist_defs_.size(); ++h) {
    MetricsView::Hist merged;
    merged.name = hist_defs_[h].name;
    merged.det = hist_defs_[h].det;
    merged.unit = hist_defs_[h].unit;
    std::uint64_t buckets[kLiveHistBuckets] = {};
    std::int64_t sum = 0;
    bool any = false;
    for (const auto& shard : shards_) {
      const LiveHist& live = shard->live_hists_[h];
      // Per-shard emptiness via the writer-maintained count; the
      // merged count below is re-derived from the bucket sum so one
      // snapshot can never report count > bucket mass.
      if (d::RelaxedLoad(live.count) == 0) continue;
      const std::int64_t lo = d::RelaxedLoad(live.min);
      const std::int64_t hi = d::RelaxedLoad(live.max);
      merged.min = any ? std::min(merged.min, lo) : lo;
      merged.max = any ? std::max(merged.max, hi) : hi;
      any = true;
      sum += d::RelaxedLoad(live.sum);
      for (std::size_t b = 0; b < kLiveHistBuckets; ++b)
        buckets[b] += d::RelaxedLoad(live.buckets[b]);
    }
    for (std::size_t b = 0; b < kLiveHistBuckets; ++b) {
      if (buckets[b] == 0) continue;
      merged.count += buckets[b];
      merged.bins.emplace_back(LiveBucketUpperBound(b), buckets[b]);
    }
    if (merged.count > 0) {
      merged.mean =
          static_cast<double>(sum) / static_cast<double>(merged.count);
      const auto quantile = [&](double q) {
        const auto rank = static_cast<std::uint64_t>(
            q * static_cast<double>(merged.count - 1));
        std::uint64_t seen = 0;
        for (const auto& [upper, n] : merged.bins) {
          seen += n;
          if (seen > rank) return upper;
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
