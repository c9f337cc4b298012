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
// Registration, SetShardCount and the exporters are
// control-plane: call them from one thread while no worker is
// recording. Shard::Add/Record/events are data-plane: each shard may
// be driven by exactly one thread at a time. Register every metric
// BEFORE SetShardCount — shard storage is sized then.
//
// Snapshot() and SetGauge() are the exception: they may run
// concurrently with data-plane recording (the snapshot publisher
// lives on its own thread). Counter cells and histogram cells are
// plain words accessed through relaxed std::atomic_ref on both sides
// — the single-writer discipline means the writer's load+add+store
// compiles to the same code as a plain `+=`, and the reader never
// tears. A snapshot is therefore exact per cell but may be
// racy-by-a-batch ACROSS cells (e.g. serve.ok sampled an instant
// before the matching tier counter); final post-Stop reads are exact.
// Every histogram is one fixed log-linear bucket array per shard
// (HistBucket), so the live view, the SIGINT emergency flush and the
// final export all read the same cells. Gauges are mutex-protected.
// Registration/SetShardCount remain control-plane only: they resize
// the cell storage a concurrent snapshot walks.
#pragma once

#include <algorithm>
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

/// The histogram bucket layout, fixed for every metric: one bucket
/// per value for |v| < 2^kHistExactBits, then 2^kHistSubBits
/// sub-buckets per power of two up to 2^kHistTopBits. Bins and
/// quantiles report a bucket's lower bound, so for a true value q in
/// (-2^7, 2^40) the reported q̂ satisfies q̂ <= q < q̂ * (1 + 1/32).
/// Values beyond that range clamp into the first or last bucket;
/// min and max stay exact.
inline constexpr int kHistExactBits = 7;
inline constexpr int kHistSubBits = 5;
inline constexpr int kHistTopBits = 40;
inline constexpr std::int64_t kHistExactLimit = std::int64_t{1}
                                                << kHistExactBits;
inline constexpr std::size_t kHistLinearBuckets = 2 * kHistExactLimit - 1;
inline constexpr std::size_t kHistBuckets =
    kHistLinearBuckets +
    (std::size_t{kHistTopBits - kHistExactBits} << kHistSubBits);

inline std::size_t HistBucket(std::int64_t value) {
  if (value < kHistExactLimit) {
    return static_cast<std::size_t>(
        std::max(value, 1 - kHistExactLimit) + kHistExactLimit - 1);
  }
  const auto u = static_cast<std::uint64_t>(
      std::min(value, (std::int64_t{1} << kHistTopBits) - 1));
  const int octave = std::bit_width(u) - 1;  // kHistExactBits .. 39
  const std::uint64_t sub =
      (u >> (octave - kHistSubBits)) & ((1u << kHistSubBits) - 1);
  return kHistLinearBuckets +
         (static_cast<std::size_t>(octave - kHistExactBits) << kHistSubBits) +
         static_cast<std::size_t>(sub);
}

/// Smallest value a bucket holds — what bins and quantiles report.
inline std::int64_t HistBucketLowerBound(std::size_t bucket) {
  if (bucket < kHistLinearBuckets)
    return static_cast<std::int64_t>(bucket) - (kHistExactLimit - 1);
  const std::size_t k = bucket - kHistLinearBuckets;
  const int octave = kHistExactBits + static_cast<int>(k >> kHistSubBits);
  const std::size_t sub = k & ((std::size_t{1} << kHistSubBits) - 1);
  return static_cast<std::int64_t>((std::size_t{1} << kHistSubBits) + sub)
         << (octave - kHistSubBits);
}

/// One histogram's cells in one shard: trivially-copyable words only,
/// every field accessed through relaxed atomic_ref. `count` lets a
/// reader skip an empty shard; readers derive their count FROM the
/// bucket sum so each snapshot is internally consistent.
struct HistCells {
  std::uint64_t count = 0;
  std::int64_t sum = 0;
  std::int64_t min = std::numeric_limits<std::int64_t>::max();
  std::int64_t max = std::numeric_limits<std::int64_t>::min();
  std::uint64_t buckets[kHistBuckets] = {};
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
  /// Add `count` samples of `value` (count > 1 replays
  /// pre-aggregated bins, as the dist layer does). One bucket add plus
  /// the count/sum/min/max cells; never allocates.
  void Record(HistogramId id, std::int64_t value, std::uint64_t count = 1) {
    namespace d = detail;
    HistCells& h = hists_[id.v];
    if (value < d::RelaxedLoad(h.min)) d::RelaxedStore(h.min, value);
    if (value > d::RelaxedLoad(h.max)) d::RelaxedStore(h.max, value);
    d::RelaxedStore(h.sum, d::RelaxedLoad(h.sum) +
                               value * static_cast<std::int64_t>(count));
    auto& bucket = h.buckets[HistBucket(value)];
    d::RelaxedStore(bucket, d::RelaxedLoad(bucket) + count);
    d::RelaxedStore(h.count, d::RelaxedLoad(h.count) + count);
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

  std::vector<std::uint64_t> counters_;
  std::vector<HistCells> hists_;
  std::vector<TraceEvent> events_;
  std::chrono::steady_clock::time_point epoch_;
  bool tracing_ = false;
};

/// The one export-ready view of a registry: what Snapshot() returns
/// and what WriteMetricsJson / RenderMetricsTable render. Entries keep
/// registration order, so exports are stable. Histogram `bins` are
/// [bucket lower bound, count] pairs (exact values for |v| < 128);
/// each quantile is the nearest-rank one over those bins: the lower
/// bound of the bucket holding rank ceil(q·N), raised to min.
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

  /// The registry's view, folded in shard order: shard 0 first, then
  /// 1, 2, ... Integer counter and bucket sums do not depend on which
  /// worker recorded what — addition commutes — which is what makes
  /// kStable metrics thread-count-invariant. Safe while workers
  /// record: cells are exact, but cross-metric skew of up to one
  /// in-flight batch is expected; once the data plane stops the view
  /// is exact. Never blocks or perturbs the data plane; call from at
  /// most one thread at a time.
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
