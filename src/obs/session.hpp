// The obs flags every binary shares, parsed once: Session owns the
// registry, the event journal and the snapshot publisher, and runs
// them in the one safe order — subsystems register their metrics,
// StartPublisher (registration resizes the shard storage a snapshot
// walks), Stop (final snapshot, then close the journal), Export
// (--metrics-json / --trace-json / --metrics from the quiescent
// Snapshot()).
//
// Flags, by group (a binary names the optional groups it exposes, so
// none reads a flag it did not read before):
//   always      --metrics  --metrics-json=<path>
//   trace       --trace-json=<path>
//   live        --metrics-interval-ms=N  --metrics-latest=<path>
//               --snapshots-jsonl=<path>  --events-jsonl=<path>
//   live_table  --live
//
// The registry is enabled (metrics() non-null) when any metrics
// artifact is requested: --metrics, --metrics-json, --trace-json or
// --metrics-interval-ms > 0. With an interval, snapshots are published
// and --metrics-json doubles as the SIGINT emergency-flush target.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"

namespace cldpc {
class ArgParser;
}

namespace cldpc::obs {

struct SessionFlags {
  bool trace = false;
  bool live = false;
  bool live_table = false;
};

class Session;

/// Stops the session's publisher (final snapshot) at scope exit.
/// Declare it after whatever the pre_snapshot hook reads, so the
/// publisher stops first on every exit path.
class [[nodiscard]] PublisherGuard {
 public:
  explicit PublisherGuard(Session& session) : session_(session) {}
  ~PublisherGuard();
  PublisherGuard(const PublisherGuard&) = delete;
  PublisherGuard& operator=(const PublisherGuard&) = delete;

 private:
  Session& session_;
};

class Session {
 public:
  /// Throws std::runtime_error if --events-jsonl cannot be opened.
  Session(const ArgParser& args, SessionFlags flags);
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// For metrics a binary registers whether or not any artifact was
  /// requested.
  MetricsRegistry& registry() { return registry_; }
  /// What subsystems take: the registry, or null if no metrics
  /// artifact was requested.
  MetricsRegistry* metrics() { return enabled_ ? &registry_ : nullptr; }
  EventJournal* journal() { return journal_.get(); }
  /// Non-null if --metrics-interval-ms > 0: for a caller that must
  /// publish inline on its own thread (the forking shard coordinator).
  const SnapshotOptions* snapshots() const {
    return publish_ ? &snapshot_ : nullptr;
  }

  /// Starts the background publisher if snapshots were requested;
  /// `pre_snapshot` runs on its thread before each snapshot.
  PublisherGuard StartPublisher(std::function<void()> pre_snapshot = {});
  /// Final snapshot, then close the journal and print its line count.
  /// Idempotent.
  void Stop();
  /// Stop(), then write the requested artifacts. Notices go to stderr,
  /// so stdout only changes when the table is requested.
  void Export();

 private:
  friend class PublisherGuard;
  void StopPublisher();

  std::string metrics_json_;
  std::string trace_json_;
  bool print_table_ = false;
  bool enabled_ = false;
  bool publish_ = false;
  bool stopped_ = false;
  SnapshotOptions snapshot_;
  MetricsRegistry registry_;
  std::unique_ptr<EventJournal> journal_;
  std::unique_ptr<SnapshotPublisher> publisher_;
};

}  // namespace cldpc::obs
