// Fault-tolerant shard coordinator: dispatches work units to worker
// subprocesses, survives their deaths, and merges their results into
// the single-run-equivalent curve.
//
// ## Process model
//
// Workers are fork()ed WITHOUT exec from the (single-threaded)
// coordinator: the child reads its work unit back from the JSON file
// the coordinator wrote (so the descriptor serialization is on the
// critical path, not just in tests), runs RunShard against the
// shard's checkpoint file, and _exit()s with a status code below.
// A worker's only durable output is its checkpoint — the coordinator
// never parses worker stdout, so a SIGKILL at any instant costs at
// most one checkpoint interval of work.
//
// ## Failure handling
//
//   - death (crash, SIGKILL, nonzero exit): the shard is retried up
//     to max_retries times with retry_backoff between attempts; the
//     retry resumes from the dead worker's last checkpoint.
//   - hang: a worker past shard_timeout is SIGKILLed and handled as
//     a death.
//   - lying exit: a worker that exits 0 without a complete checkpoint
//     is a failure (the checkpoint is the ground truth, not the exit
//     code).
//   - completed-then-died: a worker that wrote its complete
//     checkpoint and THEN died is a success — the result is on disk.
//
// ## Accounting
//
// Every frame is conserved across this machinery:
//
//   frames_assigned == frames_merged + frames_in_flight
//                      + frames_lost_and_retried
//
// where assigned counts dispatched work (a retry assigns only the
// frames past the surviving checkpoint), merged counts completed
// shards, lost_and_retried counts the frames a failed attempt did
// not bank (a corrupt checkpoint banks nothing), and in_flight
// counts work banked in checkpoints of unfinished shards (or still
// owned by an interrupted, resumable run). The
// identity is computed from independently-maintained totals and
// CoordinatorReport::AccountingHolds() gates the exit code of the
// shard_coordinator example — a bookkeeping bug fails loudly.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dist/fault.hpp"
#include "dist/shard_result.hpp"
#include "dist/work_unit.hpp"

namespace cldpc::obs {
class MetricsRegistry;
class EventJournal;
struct SnapshotOptions;
}

namespace cldpc::dist {

/// Worker subprocess exit codes (the checkpoint, not the code, is
/// authoritative for success — see the header comment).
inline constexpr int kWorkerComplete = 0;
inline constexpr int kWorkerFailed = 1;
inline constexpr int kWorkerInterrupted = 3;

struct CoordinatorOptions {
  /// Directory for unit files and checkpoints (must exist). Reusing a
  /// work_dir resumes: valid checkpoints found there are continued,
  /// complete ones merge without re-running a single frame.
  std::string work_dir;
  std::size_t max_workers = 2;
  /// Retries per shard AFTER the first attempt.
  std::uint64_t max_retries = 3;
  /// SIGKILL a worker running longer than this (0 = no timeout).
  double shard_timeout_s = 0.0;
  /// Delay before re-dispatching a failed shard.
  double retry_backoff_s = 0.0;
  /// Engine threads per worker.
  std::size_t worker_threads = 1;
  /// Checkpoint interval handed to workers (frames per point).
  std::uint64_t checkpoint_every_frames = 4096;
  /// Cooperative cancellation: stop dispatching, SIGINT the running
  /// workers once, drain, and report interrupted (resumable) state.
  const std::atomic<bool>* cancel = nullptr;
  /// Fault plan handed to workers (worker crash / checkpoint
  /// corruption / stale version). Coordinator-kill decisions are the
  /// CALLER's to act on, via on_shard_merged — the library never
  /// kills its own process.
  ShardFaultPlan faults;
  /// Coordinator-side bookkeeping metrics (borrowed): shard.*
  /// counters and the accounting gauges, plus — once every shard has
  /// merged — the merged kStable engine.* counters
  /// (MergedCountersToRegistry).
  obs::MetricsRegistry* metrics = nullptr;
  /// Live snapshots (borrowed; null = off). With metrics set too, the
  /// coordinator publishes a snapshot every `interval` with the
  /// options' outputs: the main loop keeps the ledger gauges
  /// (shard.frames_*) and per-shard progress gauges
  /// (shard.unit.<id>.frames_banked / .frames_total, from scanning the
  /// checkpoints it already owns) current, and publishes inline — no
  /// publisher thread, see RunCoordinator.
  const obs::SnapshotOptions* snapshots = nullptr;
  /// cldpc-events-v1 journal for dispatch/reap/retry/timeout/bank
  /// transitions (null = off).
  obs::EventJournal* journal = nullptr;
  /// Called after each shard merge with the 0-based merge index and
  /// the shard's result (e.g. progress logging, or the fault
  /// harness's coordinator-kill hook).
  std::function<void(std::uint64_t, const ShardResult&)> on_shard_merged;
  /// Optional log line sink (null = silent).
  std::function<void(const std::string&)> log;
};

struct CoordinatorReport {
  std::uint64_t shards = 0;
  std::uint64_t merged_shards = 0;
  bool all_complete = false;
  /// True iff cancellation was observed (the run is resumable from
  /// the work_dir's checkpoints).
  bool interrupted = false;

  std::uint64_t frames_assigned = 0;
  std::uint64_t frames_merged = 0;
  std::uint64_t frames_in_flight = 0;
  std::uint64_t frames_lost_and_retried = 0;

  /// The conservation identity (see header comment).
  bool AccountingHolds() const {
    return frames_assigned ==
           frames_merged + frames_in_flight + frames_lost_and_retried;
  }

  /// Single-run-equivalent merge of all shards; populated only when
  /// all_complete (a partial set need not tile contiguously).
  ShardResult merged;
};

/// File layout inside a work_dir (shared by coordinator, workers,
/// tests and the CI smoke).
std::string UnitPath(const std::string& work_dir, const WorkUnit& unit);
std::string CheckpointPath(const std::string& work_dir, const WorkUnit& unit);

/// Run `units` (one split of one logical run — typically from
/// SplitWorkUnit) to completion or cancellation. The caller must be
/// single-threaded at the time of the call (workers are forked
/// without exec). Throws on setup errors (unwritable work_dir,
/// inconsistent units); worker failures are handled, not thrown.
CoordinatorReport RunCoordinator(const std::vector<WorkUnit>& units,
                                 const CoordinatorOptions& options);

}  // namespace cldpc::dist
