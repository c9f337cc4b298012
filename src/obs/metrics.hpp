// Low-overhead decode telemetry: a registry of named counters,
// gauges and histograms with per-worker sharded storage, RAII scoped
// timers, and per-worker trace-event buffers.
//
// ## Why sharded (and not atomic)
//
// The Monte-Carlo engine's hot path decodes thousands of frames per
// second per worker; a contended atomic counter would both cost real
// time and — worse — tempt instrumentation to alter scheduling. Every
// mutable cell here is exclusive to one worker (shard w belongs to
// pool worker w), so recording is a plain add with no synchronization
// whatsoever, and enabling metrics cannot perturb the engine's
// bit-identical-across-threads contract: metrics only *observe*
// per-frame facts that are already pure functions of the frame.
//
// ## Determinism labelling
//
// Each metric is registered with a Determinism tag:
//   kStable     — merged value is a pure function of (config, seed);
//                 identical across thread counts and scheduling.
//                 Only facts recorded by the engine's in-order
//                 aggregator (which sees exactly the sequential frame
//                 stream) qualify.
//   kScheduling — counts real work including discarded speculation
//                 (worker-side decode stats); varies with threads.
//   kWallClock  — timers and rates; varies run to run.
// The JSON exporter publishes the non-kStable names so tooling can
// compare the deterministic subset byte-for-byte across thread
// counts (the CI does exactly that).
//
// ## Threading contract
//
// Registration, SetShardCount, Merge and the exporters are
// control-plane: call them from one thread while no worker is
// recording. Shard::Add/Record/events are data-plane: each shard may
// be driven by exactly one thread at a time. Register every metric
// BEFORE SetShardCount — shard storage is sized then.
//
// Snapshot() and SetGauge() are the exception: they may run
// concurrently with data-plane recording (the snapshot publisher
// lives on its own thread). Counter cells and the live histogram
// stats are plain words accessed through relaxed std::atomic_ref on
// both sides — the single-writer discipline means the writer's
// load+add+store compiles to the same code as a plain `+=`, and the
// reader never tears. A snapshot is therefore exact per cell but may
// be racy-by-a-batch ACROSS cells (e.g. serve.ok sampled an instant
// before the matching tier counter); final post-Stop reads are exact.
// The exact std::map histograms stay writer-only; snapshots read the
// parallel LiveHist stats instead (log2-bucket approximation), so
// they never touch node-based containers mid-mutation. Gauges are
// mutex-protected. Registration/SetShardCount remain control-plane
// only: they resize the cell storage a concurrent snapshot walks.
#pragma once

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/histogram.hpp"

namespace cldpc::obs {

enum class Determinism {
  kStable,      // identical across thread counts for a fixed seed
  kScheduling,  // depends on worker scheduling / speculation
  kWallClock,   // depends on wall-clock time
};

/// Typed indices into a shard's storage (invalid until registered).
struct CounterId {
  std::uint32_t v = UINT32_MAX;
  bool valid() const { return v != UINT32_MAX; }
};
struct HistogramId {
  std::uint32_t v = UINT32_MAX;
  bool valid() const { return v != UINT32_MAX; }
};

/// One chrome://tracing complete ("X") event. Names and arg keys must
/// be string literals (stored by pointer, never freed).
struct TraceEvent {
  const char* name = nullptr;
  std::uint64_t ts_ns = 0;   // since the registry's epoch
  std::uint64_t dur_ns = 0;
  const char* arg_names[3] = {nullptr, nullptr, nullptr};
  std::int64_t arg_values[3] = {0, 0, 0};
};

class MetricsRegistry;

namespace detail {
/// Single-writer cells read live by Snapshot(): relaxed atomic_ref on
/// plain storage. The writer side is load+add+store (NOT fetch_add) —
/// with one writer per cell that is exact, and it keeps the hot path
/// free of lock-prefixed instructions.
template <typename T>
inline T RelaxedLoad(const T& cell) {
  return std::atomic_ref<T>(const_cast<T&>(cell))
      .load(std::memory_order_relaxed);
}
template <typename T>
inline void RelaxedStore(T& cell, T value) {
  std::atomic_ref<T>(cell).store(value, std::memory_order_relaxed);
}
}  // namespace detail

/// Log2-magnitude buckets for the live histogram view: bucket 0 holds
/// values <= 0, bucket b >= 1 holds [2^(b-1), 2^b - 1]. 64 buckets
/// cover the full non-negative int64 range.
inline constexpr std::size_t kLiveHistBuckets = 64;

inline std::size_t LiveBucketFor(std::int64_t value) {
  if (value <= 0) return 0;
  return static_cast<std::size_t>(
      std::bit_width(static_cast<std::uint64_t>(value)));
}

/// Inclusive upper bound of a bucket — what live quantiles report.
inline std::int64_t LiveBucketUpperBound(std::size_t bucket) {
  if (bucket == 0) return 0;
  if (bucket >= 63) return std::numeric_limits<std::int64_t>::max();
  return (std::int64_t{1} << bucket) - 1;
}

/// Snapshot-readable histogram stats maintained next to the exact
/// std::map histogram: trivially-copyable words only, every field
/// accessed through relaxed atomic_ref. `count` is redundant with the
/// bucket sum for the writer; snapshot readers derive their count
/// FROM the bucket sum so each snapshot is internally consistent.
struct LiveHist {
  std::uint64_t count = 0;
  std::int64_t sum = 0;
  std::int64_t min = 0;  // valid only while count > 0
  std::int64_t max = 0;
  std::uint64_t buckets[kLiveHistBuckets] = {};
};

/// Per-worker metric storage. Obtained from MetricsRegistry::shard();
/// recording is unsynchronized, so a shard must only ever be driven
/// by one thread at a time (the engine hands shard w to worker w).
class Shard {
 public:
  void Add(CounterId id, std::uint64_t delta = 1) {
    auto& cell = counters_[id.v];
    detail::RelaxedStore(cell, detail::RelaxedLoad(cell) + delta);
  }
  /// Absolute store. Lets control-plane code republish running totals
  /// it maintains elsewhere (the decode service's terminal-state
  /// atomics) idempotently: syncing before every snapshot AND at Stop
  /// yields the same final value, unlike repeated Add.
  void Set(CounterId id, std::uint64_t value) {
    detail::RelaxedStore(counters_[id.v], value);
  }
  void Record(HistogramId id, std::int64_t value) {
    hists_[id.v].Add(value);
    LiveAdd(live_hists_[id.v], value, 1);
  }
  /// Bulk variant for replaying pre-aggregated bins (the dist layer
  /// republishes merged shard histograms through this).
  void Record(HistogramId id, std::int64_t value, std::uint64_t count) {
    hists_[id.v].Add(value, count);
    LiveAdd(live_hists_[id.v], value, count);
  }

  bool tracing() const { return tracing_; }
  /// Nanoseconds since the owning registry's epoch (trace timebase).
  std::uint64_t NowNs() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }
  void PushEvent(const TraceEvent& ev) { events_.push_back(ev); }

 private:
  friend class MetricsRegistry;

  static void LiveAdd(LiveHist& h, std::int64_t value, std::uint64_t count) {
    namespace d = detail;
    const std::uint64_t before = d::RelaxedLoad(h.count);
    if (before == 0) {
      d::RelaxedStore(h.min, value);
      d::RelaxedStore(h.max, value);
    } else {
      if (value < d::RelaxedLoad(h.min)) d::RelaxedStore(h.min, value);
      if (value > d::RelaxedLoad(h.max)) d::RelaxedStore(h.max, value);
    }
    d::RelaxedStore(h.sum, d::RelaxedLoad(h.sum) +
                               value * static_cast<std::int64_t>(count));
    auto& bucket = h.buckets[LiveBucketFor(value)];
    d::RelaxedStore(bucket, d::RelaxedLoad(bucket) + count);
    d::RelaxedStore(h.count, before + count);
  }

  std::vector<std::uint64_t> counters_;
  std::vector<Histogram> hists_;
  std::vector<LiveHist> live_hists_;
  std::vector<TraceEvent> events_;
  std::chrono::steady_clock::time_point epoch_;
  bool tracing_ = false;
};

/// The one export-ready view of a registry: what Merge() and
/// Snapshot() both return, and what WriteMetricsJson /
/// RenderMetricsTable render. Entries keep registration order, so
/// exports are stable. The producers differ only in how exact the
/// histogram fields are:
///   Merge()    — `bins` are the recorded values; quantiles are
///                Histogram::Summarize's nearest-rank values.
///   Snapshot() — `bins` are [log2-bucket upper bound, count] pairs;
///                each quantile is the upper bound of the bucket
///                holding rank floor(q·(N−1)), within 2x of the truth.
struct MetricsView {
  struct Counter {
    std::string name;
    Determinism det;
    std::uint64_t value;
  };
  struct Hist {
    std::string name;
    Determinism det;
    std::string unit;
    std::uint64_t count = 0;
    std::int64_t min = 0;  // valid only when count > 0
    std::int64_t max = 0;
    double mean = 0.0;
    std::int64_t p50 = 0;
    std::int64_t p90 = 0;
    std::int64_t p99 = 0;
    std::vector<std::pair<std::int64_t, std::uint64_t>> bins;  // ascending
  };
  struct Gauge {
    std::string name;
    double value;
  };
  std::vector<Counter> counters;
  std::vector<Hist> histograms;
  std::vector<Gauge> gauges;  // always wall-clock / run-dependent
};

class MetricsRegistry {
 public:
  MetricsRegistry();

  /// Register (or look up — names are deduplicated) a metric. A name
  /// must keep one kind and one determinism tag for the registry's
  /// lifetime; mismatches throw.
  CounterId Counter(const std::string& name,
                    Determinism det = Determinism::kStable);
  HistogramId Hist(const std::string& name, Determinism det,
                   const std::string& unit);

  /// Set a named gauge (control-plane values: elapsed seconds,
  /// frames/s, ...). Gauges are always treated as run-dependent.
  /// Thread-safe (mutex) — callable while a snapshot is in flight.
  void SetGauge(const std::string& name, double value);

  /// Turn on trace-event collection. Call before SetShardCount.
  void EnableTracing();
  bool tracing() const { return tracing_; }

  /// Ensure at least `n` shards exist, each sized for every metric
  /// registered so far. Growing preserves recorded data; shard
  /// references stay valid.
  void SetShardCount(std::size_t n);
  std::size_t shard_count() const { return shards_.size(); }
  Shard& shard(std::size_t i) { return *shards_[i]; }

  /// Sum of one counter over all shards (control-plane convenience).
  std::uint64_t MergedCounter(CounterId id) const;

  /// Exact control-plane view, merged in shard order: shard 0 first,
  /// then 1, 2, ... For integer counters and histograms the result is
  /// independent of which worker recorded what — addition commutes —
  /// which is what makes kStable metrics thread-count-invariant.
  MetricsView Merge() const;

  /// Live, non-stalling view from the counter cells and the LiveHist
  /// log2 buckets; safe while workers record. Counters are exact per
  /// cell, but cross-metric skew of up to one in-flight batch is
  /// expected; after the data plane stops, counters, gauges and
  /// histogram count/min/max equal Merge()'s. Never blocks or
  /// perturbs the data plane; call from at most one thread at a time.
  MetricsView Snapshot() const;

  /// All trace events, tagged with their shard index (chrome tid).
  std::vector<std::pair<std::size_t, TraceEvent>> CollectTrace() const;

 private:
  struct CounterDef {
    std::string name;
    Determinism det;
  };
  struct HistDef {
    std::string name;
    Determinism det;
    std::string unit;
  };

  /// A view with every counter and gauge filled in and no histograms.
  MetricsView CountersAndGauges() const;

  std::vector<CounterDef> counter_defs_;
  std::vector<HistDef> hist_defs_;
  std::map<std::string, std::uint32_t> counter_index_;
  std::map<std::string, std::uint32_t> hist_index_;
  std::vector<std::unique_ptr<Shard>> shards_;  // stable addresses
  mutable std::mutex gauge_mutex_;
  std::vector<std::pair<std::string, double>> gauges_;
  std::map<std::string, std::size_t> gauge_index_;
  std::chrono::steady_clock::time_point epoch_;
  bool tracing_ = false;
};

/// RAII latency probe: records the scope's wall-clock duration in
/// microseconds into a (wall-clock) histogram. A null shard disables
/// the probe entirely — the disabled cost is one branch.
class ScopedTimer {
 public:
  ScopedTimer(Shard* shard, HistogramId id) : shard_(shard), id_(id) {
    if (shard_) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    if (shard_) {
      const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
      shard_->Record(id_, static_cast<std::int64_t>(us));
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Shard* shard_;
  HistogramId id_;
  std::chrono::steady_clock::time_point start_;
};

/// RAII trace span: emits one complete event covering the scope into
/// the shard's trace buffer. Inert when the shard is null or tracing
/// is off. `name` and arg keys must be string literals.
class ScopedTrace {
 public:
  ScopedTrace(Shard* shard, const char* name)
      : shard_(shard && shard->tracing() ? shard : nullptr) {
    if (shard_) {
      ev_.name = name;
      ev_.ts_ns = shard_->NowNs();
    }
  }
  /// Attach up to three integer args (shown in the tracing UI).
  void Arg(const char* key, std::int64_t value) {
    if (!shard_) return;
    for (int i = 0; i < 3; ++i) {
      if (ev_.arg_names[i] == nullptr) {
        ev_.arg_names[i] = key;
        ev_.arg_values[i] = value;
        return;
      }
    }
  }
  ~ScopedTrace() {
    if (shard_) {
      ev_.dur_ns = shard_->NowNs() - ev_.ts_ns;
      shard_->PushEvent(ev_);
    }
  }
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

 private:
  Shard* shard_;
  TraceEvent ev_;
};

}  // namespace cldpc::obs
