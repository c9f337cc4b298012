#include "obs/snapshot.hpp"

#include <cmath>
#include <fstream>
#include <sstream>
#include <utility>

#include "obs/export.hpp"
#include "util/atomic_file.hpp"
#include "util/json.hpp"
#include "util/shutdown.hpp"
#include "util/table.hpp"

namespace cldpc::obs {
namespace {

util::JsonValue FiniteDouble(double v) {
  return util::JsonValue::Double(std::isfinite(v) ? v : 0.0);
}

/// Change since the previous reading, which it then replaces. Totals
/// are monotonic (adds, or absolute re-publishes of monotonic
/// externals); clamp anyway so one out-of-order sync can never
/// underflow the delta.
std::uint64_t TakeDelta(std::uint64_t now, std::uint64_t& prev) {
  const std::uint64_t delta = now >= prev ? now - prev : 0;
  prev = now;
  return delta;
}

}  // namespace

std::string SnapshotToJson(const MetricsSnapshot& snapshot) {
  using util::JsonValue;
  JsonValue doc = JsonValue::Object();
  doc.Set("schema", JsonValue::Str("cldpc-metrics-snapshot-v1"));
  doc.Set("seq", JsonValue::Uint(snapshot.seq));
  doc.Set("elapsed_ms", JsonValue::Uint(snapshot.elapsed_ms));
  doc.Set("final", JsonValue::Bool(snapshot.final_flush));
  JsonValue counters = JsonValue::Object();
  for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
    JsonValue entry = JsonValue::Object();
    entry.Set("total", JsonValue::Uint(snapshot.counters[i].value));
    entry.Set("delta", JsonValue::Uint(snapshot.counter_deltas[i]));
    counters.Set(snapshot.counters[i].name, std::move(entry));
  }
  doc.Set("counters", std::move(counters));
  JsonValue hists = JsonValue::Object();
  for (std::size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const auto& h = snapshot.histograms[i];
    JsonValue entry = JsonValue::Object();
    entry.Set("unit", JsonValue::Str(h.unit));
    entry.Set("count", JsonValue::Uint(h.count));
    entry.Set("delta_count", JsonValue::Uint(snapshot.hist_count_deltas[i]));
    entry.Set("min", JsonValue::Int(h.min));
    entry.Set("max", JsonValue::Int(h.max));
    entry.Set("mean", FiniteDouble(h.mean));
    entry.Set("p50", JsonValue::Int(h.p50));
    entry.Set("p99", JsonValue::Int(h.p99));
    hists.Set(h.name, std::move(entry));
  }
  doc.Set("histograms", std::move(hists));
  JsonValue gauges = JsonValue::Object();
  for (const auto& g : snapshot.gauges) gauges.Set(g.name, FiniteDouble(g.value));
  doc.Set("gauges", std::move(gauges));
  return doc.Serialize();
}

std::string RenderSnapshotTable(const MetricsSnapshot& snapshot,
                                std::uint64_t interval_ms) {
  const double per_s = interval_ms > 0
                           ? 1000.0 / static_cast<double>(interval_ms)
                           : 0.0;
  TablePrinter t({"Metric", "Total", "Rate/s", "p50", "p99", "Unit"});
  const auto rate = [per_s](std::uint64_t delta) {
    return FormatDouble(static_cast<double>(delta) * per_s, 1);
  };
  for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
    const auto& c = snapshot.counters[i];
    if (c.value == 0) continue;  // keep the live view readable
    t.AddRow({c.name, FormatCount(c.value), rate(snapshot.counter_deltas[i]),
              "", "", ""});
  }
  t.AddRule();
  for (std::size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const auto& h = snapshot.histograms[i];
    if (h.count == 0) continue;
    t.AddRow({h.name, FormatCount(h.count), rate(snapshot.hist_count_deltas[i]),
              std::to_string(h.p50), std::to_string(h.p99), h.unit});
  }
  t.AddRule();
  for (const auto& g : snapshot.gauges)
    t.AddRow({g.name, FormatDouble(g.value, 3), "", "", "", ""});
  return t.Render("Snapshot #" + std::to_string(snapshot.seq) + " (t+" +
                  std::to_string(snapshot.elapsed_ms) + " ms" +
                  (snapshot.final_flush ? ", final" : "") + ")");
}

SnapshotPublisher::SnapshotPublisher(MetricsRegistry& registry,
                                     SnapshotOptions options)
    : registry_(registry),
      options_(std::move(options)),
      start_(std::chrono::steady_clock::now()) {
  if (!options_.history_jsonl_path.empty()) {
    // Each run owns its history file from the first line.
    std::ofstream truncate(options_.history_jsonl_path,
                           std::ios::out | std::ios::trunc);
  }
}

SnapshotPublisher::~SnapshotPublisher() { Stop(); }

void SnapshotPublisher::Start() {
  if (started_) return;
  started_ = true;
  start_ = std::chrono::steady_clock::now();
  thread_ = std::thread(&SnapshotPublisher::Loop, this);
}

void SnapshotPublisher::Stop() {
  if (stopped_) return;
  stopped_ = true;
  if (started_) {
    {
      std::lock_guard<std::mutex> lock(wake_mutex_);
      stop_requested_ = true;
    }
    wake_.notify_all();
    thread_.join();
  }
  // Final snapshot from the stopping thread: by now the caller has
  // stopped/flushed its subsystems, so totals are exact.
  PublishNow(true);
}

MetricsSnapshot SnapshotPublisher::PublishNow(bool final_flush) {
  if (options_.pre_snapshot) options_.pre_snapshot();
  MetricsSnapshot snapshot;
  static_cast<MetricsView&>(snapshot) = registry_.Snapshot();
  snapshot.seq = ++seq_;
  snapshot.elapsed_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
  snapshot.final_flush = final_flush;
  prev_counter_totals_.resize(snapshot.counters.size(), 0);
  for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
    snapshot.counter_deltas.push_back(
        TakeDelta(snapshot.counters[i].value, prev_counter_totals_[i]));
  }
  prev_hist_counts_.resize(snapshot.histograms.size(), 0);
  for (std::size_t i = 0; i < snapshot.histograms.size(); ++i) {
    snapshot.hist_count_deltas.push_back(
        TakeDelta(snapshot.histograms[i].count, prev_hist_counts_[i]));
  }

  Emit(snapshot);

  if (!wrote_emergency_ && !options_.emergency_metrics_json.empty() &&
      util::ShutdownRequested().load(std::memory_order_relaxed)) {
    wrote_emergency_ = true;
    std::ostringstream doc;
    WriteMetricsJson(snapshot, doc);
    util::WriteFileAtomic(options_.emergency_metrics_json, doc.str());
  }
  return snapshot;
}

void SnapshotPublisher::Emit(const MetricsSnapshot& snapshot) {
  const std::string line = SnapshotToJson(snapshot);
  if (!options_.latest_json_path.empty())
    util::WriteFileAtomic(options_.latest_json_path, line + "\n");
  if (!options_.history_jsonl_path.empty()) {
    std::ofstream f(options_.history_jsonl_path,
                    std::ios::out | std::ios::app);
    if (f) f << line << "\n";
  }
  {
    std::lock_guard<std::mutex> lock(ring_mutex_);
    ring_.push_back(snapshot);
    while (ring_.size() > options_.ring_capacity) ring_.pop_front();
  }
  if (options_.on_snapshot) options_.on_snapshot(snapshot);
  published_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<MetricsSnapshot> SnapshotPublisher::History() const {
  std::lock_guard<std::mutex> lock(ring_mutex_);
  return {ring_.begin(), ring_.end()};
}

void SnapshotPublisher::Loop() {
  std::unique_lock<std::mutex> lock(wake_mutex_);
  for (;;) {
    if (wake_.wait_for(lock, options_.interval,
                       [this] { return stop_requested_; }))
      return;  // the final snapshot is published by Stop()
    lock.unlock();
    PublishNow(false);
    lock.lock();
  }
}

}  // namespace cldpc::obs
