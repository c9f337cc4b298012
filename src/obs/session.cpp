#include "obs/session.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <utility>

#include "obs/export.hpp"
#include "util/cli.hpp"

namespace cldpc::obs {

PublisherGuard::~PublisherGuard() { session_.StopPublisher(); }

Session::Session(const ArgParser& args, SessionFlags flags)
    : metrics_json_(args.GetString("metrics-json", "")),
      print_table_(args.GetBool("metrics")) {
  if (flags.trace) trace_json_ = args.GetString("trace-json", "");
  if (flags.live) {
    const std::int64_t interval_ms = args.GetInt("metrics-interval-ms", 0);
    publish_ = interval_ms > 0;
    snapshot_.interval = std::chrono::milliseconds(interval_ms);
    snapshot_.latest_json_path = args.GetString("metrics-latest", "");
    snapshot_.history_jsonl_path = args.GetString("snapshots-jsonl", "");
    // A ^C that outruns the graceful drain still leaves a valid
    // cldpc-metrics-v1 doc here (overwritten by Export on a normal
    // exit).
    snapshot_.emergency_metrics_json = metrics_json_;
    if (flags.live_table && args.GetBool("live")) {
      snapshot_.on_snapshot = [interval_ms](const MetricsSnapshot& snap) {
        std::printf("%s", RenderSnapshotTable(
                              snap, static_cast<std::uint64_t>(interval_ms))
                              .c_str());
      };
    }
    const std::string events_path = args.GetString("events-jsonl", "");
    if (!events_path.empty())
      journal_ =
          std::make_unique<EventJournal>(EventJournalOptions{events_path});
  }
  enabled_ = print_table_ || !metrics_json_.empty() || !trace_json_.empty() ||
             publish_;
  if (!trace_json_.empty()) registry_.EnableTracing();
}

PublisherGuard Session::StartPublisher(std::function<void()> pre_snapshot) {
  if (publish_) {
    SnapshotOptions options = snapshot_;
    options.pre_snapshot = std::move(pre_snapshot);
    publisher_ =
        std::make_unique<SnapshotPublisher>(registry_, std::move(options));
    publisher_->Start();
  }
  return PublisherGuard(*this);
}

void Session::StopPublisher() {
  if (publisher_) publisher_->Stop();
}

void Session::Stop() {
  if (stopped_) return;
  stopped_ = true;
  StopPublisher();
  if (journal_) {
    journal_->Close();
    std::printf("Event journal: %llu events -> %s\n",
                static_cast<unsigned long long>(journal_->entries()),
                journal_->path().c_str());
  }
}

void Session::Export() {
  Stop();
  if (!enabled_) return;
  const auto merged = registry_.Snapshot();
  bool ok = true;
  if (!metrics_json_.empty()) {
    std::ofstream f(metrics_json_);
    if (f) {
      WriteMetricsJson(merged, f);
      std::fprintf(stderr, "metrics: wrote %s\n", metrics_json_.c_str());
    }
    ok = ok && static_cast<bool>(f);
  }
  if (!trace_json_.empty()) {
    std::ofstream f(trace_json_);
    if (f) {
      WriteTraceJson(registry_, f);
      std::fprintf(stderr, "metrics: wrote %s (load in chrome://tracing)\n",
                   trace_json_.c_str());
    }
    ok = ok && static_cast<bool>(f);
  }
  if (print_table_) std::printf("\n%s", RenderMetricsTable(merged).c_str());
  if (!ok) std::fprintf(stderr, "metrics: failed to write an artifact\n");
}

}  // namespace cldpc::obs
