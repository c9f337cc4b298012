// Periodic metrics snapshots: a background publisher that turns
// MetricsRegistry::Snapshot() into durable, tooling-friendly
// artifacts while the data plane keeps running.
//
// ## Snapshot JSON schema ("cldpc-metrics-snapshot-v1")
//
//   {
//     "schema": "cldpc-metrics-snapshot-v1",
//     "seq": <uint>,          // 1-based, strictly increasing
//     "elapsed_ms": <uint>,   // since the publisher started
//     "final": <bool>,        // true exactly once, on Stop()
//     "counters":   { "<name>": { "total": <uint>, "delta": <uint> }, ... },
//     "histograms": { "<name>": { "unit": "<str>", "count": <uint>,
//                                 "delta_count": <uint>, "min": <int>,
//                                 "max": <int>, "mean": <float>,
//                                 "p50": <int>, "p99": <int> }, ... },
//     "gauges":     { "<name>": <float>, ... }
//   }
//
// `delta` is the change since the PREVIOUS snapshot from the same
// publisher (first snapshot: delta == total), so deltas telescope:
// the sum of every snapshot's delta equals the final total — the
// identity bench/check_bench_regression.py --validate-snapshots
// enforces. Histogram fields come from the same buckets and the same
// quantile rule as the final export (MetricsRegistry::Snapshot), so
// the `final` snapshot's count/min/max/p50/p99 equal the export's.
// Counts/totals are exact per cell but may be skewed across cells by
// one in-flight batch, except in the `final` snapshot, which is taken
// after the data plane stopped.
//
// ## Outputs per tick
//
//   - `latest_json_path`: one snapshot document, atomically renamed
//     into place (readers always see a complete doc — "top" for
//     files).
//   - `history_jsonl_path`: the same doc appended as one JSONL line
//     (the whole run's time series).
//   - a bounded in-process ring (History()) for embedded subscribers.
//   - `on_snapshot`: synchronous subscriber hook (e.g. the examples'
//     live terminal table).
//
// ## Shutdown safety (the SIGINT satellite)
//
// Each tick polls util::ShutdownRequested(); on the first observation
// the publisher atomically writes `emergency_metrics_json` — the live
// snapshot through the same WriteMetricsJson and the same histogram
// buckets as the final export — so a process that dies before Stop()
// still leaves a valid metrics artifact.
//
// Determinism: everything this file produces is wall-clock-dependent
// observation; it never feeds back into decode results, and curves
// stay byte-identical with the publisher on, off, or at any interval.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace cldpc::obs {

/// One published snapshot: the registry's live Snapshot() view
/// (cumulative totals) plus deltas against the previous snapshot from
/// the same publisher.
struct MetricsSnapshot : MetricsView {
  std::uint64_t seq = 0;         // 1-based
  std::uint64_t elapsed_ms = 0;  // since publisher start
  bool final_flush = false;      // true exactly once, on Stop()
  std::vector<std::uint64_t> counter_deltas;     // parallel to counters
  std::vector<std::uint64_t> hist_count_deltas;  // parallel to histograms
};

/// Canonical (util::JsonValue) one-line serialization of the
/// cldpc-metrics-snapshot-v1 schema above.
std::string SnapshotToJson(const MetricsSnapshot& snapshot);

/// Compact "top"-style terminal rendering of one snapshot (totals,
/// per-second rates from the deltas, histogram p50/p99).
std::string RenderSnapshotTable(const MetricsSnapshot& snapshot,
                                std::uint64_t interval_ms);

struct SnapshotOptions {
  std::chrono::milliseconds interval{1000};
  /// Atomic-rename "latest snapshot" file ("" = skip).
  std::string latest_json_path;
  /// Append-only JSONL history ("" = skip).
  std::string history_jsonl_path;
  /// Emergency cldpc-metrics-v1 flush target for SIGINT'd runs
  /// ("" = skip).
  std::string emergency_metrics_json;
  /// In-process subscriber ring capacity (oldest dropped).
  std::size_t ring_capacity = 64;
  /// Runs on the publisher thread immediately BEFORE each snapshot —
  /// the hook subsystems use to republish counters they keep outside
  /// the registry (DecodeService::SyncMetricsCounters).
  std::function<void()> pre_snapshot;
  /// Runs on the publisher thread with each published snapshot.
  std::function<void(const MetricsSnapshot&)> on_snapshot;
};

/// Background publisher: one thread, one snapshot per interval, plus
/// a final `final:true` snapshot on Stop() taken after the caller's
/// subsystems flushed. Start/Stop are control-plane (one thread).
class SnapshotPublisher {
 public:
  SnapshotPublisher(MetricsRegistry& registry, SnapshotOptions options);
  ~SnapshotPublisher();  // Stop()

  SnapshotPublisher(const SnapshotPublisher&) = delete;
  SnapshotPublisher& operator=(const SnapshotPublisher&) = delete;

  void Start();
  /// Publish the final snapshot (from the calling thread, after the
  /// loop exits) and join. Idempotent.
  void Stop();

  /// Take and publish one snapshot immediately (also what the timer
  /// loop calls). Safe only from the publisher thread or while the
  /// loop is not running.
  MetricsSnapshot PublishNow(bool final_flush);

  /// Copy of the bounded in-process ring (oldest first).
  std::vector<MetricsSnapshot> History() const;
  std::uint64_t published() const {
    return published_.load(std::memory_order_relaxed);
  }

 private:
  MetricsSnapshot Build(bool final_flush);
  void Emit(const MetricsSnapshot& snapshot);
  void Loop();

  MetricsRegistry& registry_;
  SnapshotOptions options_;

  // Publisher-thread state (Stop() touches it only after the join).
  std::vector<std::uint64_t> prev_counter_totals_;   // by registry index
  std::vector<std::uint64_t> prev_hist_counts_;      // by registry index
  std::uint64_t seq_ = 0;
  bool wrote_emergency_ = false;
  std::chrono::steady_clock::time_point start_{};

  mutable std::mutex ring_mutex_;
  std::deque<MetricsSnapshot> ring_;

  std::mutex wake_mutex_;
  std::condition_variable wake_;
  bool stop_requested_ = false;
  std::atomic<std::uint64_t> published_{0};
  std::thread thread_;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace cldpc::obs
