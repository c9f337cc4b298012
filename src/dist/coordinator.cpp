#include "dist/coordinator.hpp"

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <exception>
#include <memory>
#include <thread>

#include "dist/checkpoint.hpp"
#include "dist/shard_runner.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "util/atomic_file.hpp"
#include "util/contracts.hpp"
#include "util/shutdown.hpp"

namespace cldpc::dist {
namespace {

using Clock = std::chrono::steady_clock;

/// Coordinator-side bookkeeping (all kScheduling: which worker dies
/// when is the one thing this layer does NOT control).
struct Bookkeeping {
  obs::MetricsRegistry* reg = nullptr;
  obs::CounterId dispatches, retries, timeouts, worker_deaths, failures,
      merges, checkpoints_rejected;

  explicit Bookkeeping(obs::MetricsRegistry* r) : reg(r) {
    if (!reg) return;
    using D = obs::Determinism;
    dispatches = reg->Counter("shard.dispatches", D::kScheduling);
    retries = reg->Counter("shard.retries", D::kScheduling);
    timeouts = reg->Counter("shard.timeouts", D::kScheduling);
    worker_deaths = reg->Counter("shard.worker_deaths", D::kScheduling);
    failures = reg->Counter("shard.failures", D::kScheduling);
    merges = reg->Counter("shard.merges", D::kScheduling);
    checkpoints_rejected =
        reg->Counter("shard.checkpoints_rejected", D::kScheduling);
    reg->SetShardCount(1);
  }

  void Count(obs::CounterId id, std::uint64_t delta = 1) {
    if (reg) reg->shard(0).Add(id, delta);
  }
};

std::uint64_t SumFrames(const ShardResult& r) {
  std::uint64_t total = 0;
  for (const auto& p : r.points) total += p.frames;
  return total;
}

/// Worker subprocess body. Runs in the forked child; must end in
/// _exit (never unwind into the parent's stack/atexit machinery).
int WorkerMain(const std::string& unit_path,
               const std::string& checkpoint_path, std::uint64_t attempt,
               const ShardFaultPlan& faults, std::size_t threads,
               std::uint64_t checkpoint_every_frames) {
  util::InstallShutdownHandler();  // group SIGINT -> cooperative cancel
  try {
    // Deliberately read from disk, not inherited memory: the unit
    // descriptor's serialization (and its CRC) is on the critical
    // path of every single worker.
    const auto text = util::ReadFileIfExists(unit_path);
    if (!text) return kWorkerFailed;
    const WorkUnit unit = WorkUnit::FromJson(*text);

    ShardRunOptions options;
    options.checkpoint_path = checkpoint_path;
    options.checkpoint_every_frames = checkpoint_every_frames;
    options.threads = threads;
    options.cancel = &util::ShutdownRequested();
    options.faults = ShardFaultInjector(faults);
    options.attempt = attempt;
    const auto outcome = RunShard(unit, options);
    if (outcome.complete) return kWorkerComplete;
    return util::ShutdownRequested().load() ? kWorkerInterrupted
                                            : kWorkerFailed;
  } catch (const std::exception&) {
    return kWorkerFailed;
  }
}

struct ShardState {
  WorkUnit unit;
  std::string unit_path;
  std::string checkpoint_path;
  std::uint32_t unit_crc = 0;

  enum class Status { kPending, kRunning, kDone, kExhausted };
  Status status = Status::kPending;
  bool dispatched_ever = false;
  /// Worker exited via cooperative cancel — the shard is still owned
  /// by this (interrupted) run, neither failed nor lost.
  bool interrupted = false;
  std::uint64_t attempts = 0;  // dispatches so far
  pid_t pid = -1;
  bool timed_out = false;
  Clock::time_point started;
  Clock::time_point eligible_at = Clock::time_point::min();
  /// Frames banked in the shard's checkpoint as of the last time the
  /// coordinator looked (0 when the file is absent or rejected — a
  /// corrupt checkpoint banks nothing).
  std::uint64_t latest_frames = 0;
  ShardResult result;  // valid when kDone
};

}  // namespace

std::string UnitPath(const std::string& work_dir, const WorkUnit& unit) {
  return work_dir + "/" + unit.Id() + ".unit.json";
}

std::string CheckpointPath(const std::string& work_dir,
                           const WorkUnit& unit) {
  return work_dir + "/" + unit.Id() + ".checkpoint.json";
}

CoordinatorReport RunCoordinator(const std::vector<WorkUnit>& units,
                                 const CoordinatorOptions& options) {
  CLDPC_EXPECTS(!units.empty(), "no work units");
  CLDPC_EXPECTS(options.max_workers >= 1, "need at least one worker");
  CLDPC_EXPECTS(!options.work_dir.empty(), "work_dir required");
  for (const auto& u : units)
    CLDPC_EXPECTS(u.RunCrc() == units.front().RunCrc(),
                  "units belong to different logical runs");

  Bookkeeping bk(options.metrics);
  const auto log = [&options](const std::string& line) {
    if (options.log) options.log(line);
  };
  const auto jot = [&options](const char* kind,
                              std::initializer_list<obs::JournalArg> args) {
    if (options.journal != nullptr) options.journal->Append(kind, "dist", args);
  };
  const auto cancelled = [&options] {
    return options.cancel != nullptr &&
           options.cancel->load(std::memory_order_acquire);
  };

  CoordinatorReport report;
  report.shards = units.size();

  std::vector<ShardState> shards;
  shards.reserve(units.size());
  for (const auto& unit : units) {
    ShardState st;
    st.unit = unit;
    st.unit_path = UnitPath(options.work_dir, unit);
    st.checkpoint_path = CheckpointPath(options.work_dir, unit);
    st.unit_crc = unit.ContentCrc();
    // Persist the descriptor first: the worker's only input.
    util::WriteFileAtomic(st.unit_path, unit.ToJson());
    shards.push_back(std::move(st));
  }

  // Classify + read banked frames from a shard's checkpoint file.
  const auto banked_frames = [&bk](ShardState& st) -> std::uint64_t {
    Checkpoint cp;
    const auto status =
        LoadCheckpointFile(st.checkpoint_path, st.unit_crc, &cp);
    if (status == CheckpointStatus::kOk) return SumFrames(cp.result);
    if (status != CheckpointStatus::kMissing)
      bk.Count(bk.checkpoints_rejected);
    return 0;
  };
  // Non-counting variant for periodic PROGRESS scans: a worker
  // mid-write must never inflate shard.checkpoints_rejected (that
  // counter means a reaped attempt banked nothing).
  const auto scan_banked_frames = [](const ShardState& st) -> std::uint64_t {
    Checkpoint cp;
    if (LoadCheckpointFile(st.checkpoint_path, st.unit_crc, &cp) ==
        CheckpointStatus::kOk)
      return SumFrames(cp.result);
    return 0;
  };

  // Live ledger gauges: the identity's four totals, re-published by
  // the main loop so a mid-run snapshot shows real progress (final
  // re-publish happens after the loop closes the ledger).
  const auto publish_ledger_gauges = [&options, &report](bool final_totals) {
    if (options.metrics == nullptr) return;
    // Mid-run, in_flight is whatever is assigned but neither merged
    // nor lost yet; the FINAL value is computed independently when
    // the ledger closes (that independence is the accounting check).
    const std::uint64_t spoken_for =
        report.frames_merged + report.frames_lost_and_retried;
    const std::uint64_t in_flight =
        final_totals ? report.frames_in_flight
                     : (report.frames_assigned > spoken_for
                            ? report.frames_assigned - spoken_for
                            : 0);
    options.metrics->SetGauge("shard.frames_assigned",
                              static_cast<double>(report.frames_assigned));
    options.metrics->SetGauge("shard.frames_merged",
                              static_cast<double>(report.frames_merged));
    options.metrics->SetGauge("shard.frames_in_flight",
                              static_cast<double>(in_flight));
    options.metrics->SetGauge(
        "shard.frames_lost_and_retried",
        static_cast<double>(report.frames_lost_and_retried));
  };

  std::uint64_t merge_index = 0;
  const auto merge_shard = [&](ShardState& st, ShardResult result) {
    st.status = ShardState::Status::kDone;
    st.result = std::move(result);
    st.pid = -1;
    report.frames_merged += st.unit.TotalFrames();
    ++report.merged_shards;
    bk.Count(bk.merges);
    jot("reap_merge", {{"unit", st.unit.Id()},
                       {"frames", st.unit.TotalFrames()}});
    log(st.unit.Id() + ": merged (" +
        std::to_string(st.unit.TotalFrames()) + " frames)");
    if (options.on_shard_merged) options.on_shard_merged(merge_index, st.result);
    ++merge_index;
  };

  // A shard whose checkpoint is already complete (work_dir reuse)
  // merges without dispatching a worker; its frames still count as
  // assigned — they belong to this run's ledger.
  for (auto& st : shards) {
    Checkpoint cp;
    if (LoadCheckpointFile(st.checkpoint_path, st.unit_crc, &cp) ==
            CheckpointStatus::kOk &&
        cp.complete) {
      report.frames_assigned += st.unit.TotalFrames();
      st.dispatched_ever = true;
      merge_shard(st, std::move(cp.result));
    }
  }

  const auto dispatch = [&](ShardState& st) {
    const std::uint64_t banked = banked_frames(st);
    const std::uint64_t total = st.unit.TotalFrames();
    if (!st.dispatched_ever) {
      // First dispatch assigns the WHOLE shard — including frames a
      // previous coordinator run banked in the checkpoint; they enter
      // this run's ledger as assigned work the worker inherits.
      report.frames_assigned += total;
      st.dispatched_ever = true;
    } else {
      report.frames_assigned += total - banked;
      bk.Count(bk.retries);
    }
    st.latest_frames = banked;
    const std::uint64_t attempt = st.attempts++;
    bk.Count(bk.dispatches);
    jot("dispatch", {{"unit", st.unit.Id()},
                     {"attempt", attempt},
                     {"resume_at", banked}});
    log(st.unit.Id() + ": dispatch attempt " + std::to_string(attempt) +
        " (resume at " + std::to_string(banked) + "/" +
        std::to_string(total) + " frames)");

    const pid_t pid = ::fork();
    CLDPC_EXPECTS(pid >= 0, "fork failed");
    if (pid == 0) {
      // Child: run the shard and die without touching the parent's
      // stack, buffers or atexit handlers.
      ::_exit(WorkerMain(st.unit_path, st.checkpoint_path, attempt,
                         options.faults, options.worker_threads,
                         options.checkpoint_every_frames));
    }
    st.pid = pid;
    st.status = ShardState::Status::kRunning;
    st.timed_out = false;
    st.started = Clock::now();
  };

  const auto reap = [&](ShardState& st, int wait_status) {
    const bool signaled = WIFSIGNALED(wait_status);
    const int exit_code =
        WIFEXITED(wait_status) ? WEXITSTATUS(wait_status) : -1;
    st.pid = -1;

    Checkpoint cp;
    const auto cp_status =
        LoadCheckpointFile(st.checkpoint_path, st.unit_crc, &cp);
    if (cp_status == CheckpointStatus::kOk) {
      st.latest_frames = SumFrames(cp.result);
    } else {
      // Absent or rejected: NOTHING is banked — a corrupt checkpoint
      // zeroes the shard's bank, and the ledger must say so.
      st.latest_frames = 0;
      if (cp_status != CheckpointStatus::kMissing)
        bk.Count(bk.checkpoints_rejected);
    }

    if (cp_status == CheckpointStatus::kOk && cp.complete) {
      // The checkpoint is the ground truth: a worker that finished
      // its shard and then died (or was killed) still succeeded.
      merge_shard(st, std::move(cp.result));
      return;
    }
    if (exit_code == kWorkerInterrupted && cancelled()) {
      // Cooperative interruption, not a failure: the shard stays
      // owned by this run and resumes next time.
      st.status = ShardState::Status::kPending;
      st.interrupted = true;
      jot("reap_interrupted",
          {{"unit", st.unit.Id()}, {"banked", st.latest_frames}});
      log(st.unit.Id() + ": interrupted at " +
          std::to_string(st.latest_frames) + " frames");
      return;
    }

    // Failure: crash, kill, timeout, lying exit-0, or spurious
    // interrupt. Everything not banked in the surviving checkpoint is
    // lost; the retry dispatch will re-assign exactly that much, so
    // the ledger stays balanced attempt by attempt.
    bk.Count(bk.failures);
    if (signaled) bk.Count(bk.worker_deaths);
    report.frames_lost_and_retried +=
        st.unit.TotalFrames() - st.latest_frames;
    log(st.unit.Id() + ": attempt " + std::to_string(st.attempts - 1) +
        (signaled ? " died (signal)" : " failed (exit " +
                                           std::to_string(exit_code) + ")") +
        (st.timed_out ? " [timeout]" : "") + ", banked " +
        std::to_string(st.latest_frames) + " frames");
    jot("reap_retry", {{"unit", st.unit.Id()},
                       {"attempt", st.attempts - 1},
                       {"banked", st.latest_frames},
                       {"signaled", signaled ? 1 : 0}});
    if (st.attempts > options.max_retries) {
      st.status = ShardState::Status::kExhausted;
      jot("retries_exhausted", {{"unit", st.unit.Id()}});
      log(st.unit.Id() + ": retries exhausted");
    } else {
      st.status = ShardState::Status::kPending;
      st.eligible_at =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(
                                 options.retry_backoff_s));
    }
  };

  // Live snapshot publisher. The coordinator forks workers WITHOUT
  // exec, so it must stay single-threaded: the publisher's timer
  // thread is never Start()ed — the main loop (already a 5 ms poll)
  // drives PublishNow() on the interval itself, and Stop() at the end
  // publishes the final snapshot without a join. A child forked while
  // a publisher thread held the malloc or file locks could deadlock.
  std::unique_ptr<obs::SnapshotPublisher> publisher;
  auto next_snapshot = Clock::time_point::max();
  if (options.metrics != nullptr && options.snapshots != nullptr) {
    for (const auto& st : shards)
      options.metrics->SetGauge(
          "shard.unit." + st.unit.Id() + ".frames_total",
          static_cast<double>(st.unit.TotalFrames()));
    publisher = std::make_unique<obs::SnapshotPublisher>(*options.metrics,
                                                         *options.snapshots);
    next_snapshot = Clock::now() + options.snapshots->interval;
  }

  bool sent_interrupt = false;
  for (;;) {
    // 1. Reap exited workers.
    for (auto& st : shards) {
      if (st.status != ShardState::Status::kRunning) continue;
      int wait_status = 0;
      const pid_t r = ::waitpid(st.pid, &wait_status, WNOHANG);
      if (r == st.pid) reap(st, wait_status);
    }

    // 2. Enforce timeouts (the kill is reaped next iteration).
    if (options.shard_timeout_s > 0.0) {
      for (auto& st : shards) {
        if (st.status != ShardState::Status::kRunning || st.timed_out)
          continue;
        const double running_s =
            std::chrono::duration<double>(Clock::now() - st.started)
                .count();
        if (running_s > options.shard_timeout_s) {
          log(st.unit.Id() + ": timeout after " +
              std::to_string(running_s) + "s, killing worker");
          bk.Count(bk.timeouts);
          jot("timeout", {{"unit", st.unit.Id()}});
          st.timed_out = true;
          ::kill(st.pid, SIGKILL);
        }
      }
    }

    // 3. On cancellation: forward one SIGINT to running workers so
    // they checkpoint and exit; dispatch nothing new.
    if (cancelled()) {
      report.interrupted = true;
      if (!sent_interrupt) {
        sent_interrupt = true;
        for (auto& st : shards)
          if (st.status == ShardState::Status::kRunning)
            ::kill(st.pid, SIGINT);
      }
    } else {
      // 4. Dispatch pending shards into free worker slots.
      std::size_t running = 0;
      for (const auto& st : shards)
        if (st.status == ShardState::Status::kRunning) ++running;
      for (auto& st : shards) {
        if (running >= options.max_workers) break;
        if (st.status != ShardState::Status::kPending) continue;
        if (Clock::now() < st.eligible_at) continue;
        dispatch(st);
        ++running;
      }
    }

    // 4b. Live observability tick: refresh per-shard progress gauges
    // by scanning checkpoints this coordinator already owns (the
    // non-counting scan — a worker mid-write must not look like a
    // rejected checkpoint), re-publish the ledger gauges, and emit one
    // snapshot. Inline on this thread — see the publisher comment.
    if (publisher != nullptr && Clock::now() >= next_snapshot) {
      for (auto& st : shards) {
        if (st.status != ShardState::Status::kRunning) continue;
        const std::uint64_t banked = scan_banked_frames(st);
        if (banked > st.latest_frames) {
          st.latest_frames = banked;
          jot("checkpoint_bank",
              {{"unit", st.unit.Id()}, {"frames", banked}});
        }
        options.metrics->SetGauge(
            "shard.unit." + st.unit.Id() + ".frames_banked",
            static_cast<double>(st.latest_frames));
      }
      publish_ledger_gauges(false);
      publisher->PublishNow(false);
      next_snapshot = Clock::now() + options.snapshots->interval;
    }

    // 5. Exit when nothing is running and nothing more will be.
    bool any_running = false, any_pending = false;
    for (const auto& st : shards) {
      any_running |= st.status == ShardState::Status::kRunning;
      any_pending |= st.status == ShardState::Status::kPending;
    }
    if (!any_running && (!any_pending || cancelled())) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // Close the ledger: unfinished shards' frames are either still in
  // flight (interrupted / awaiting a retry that never came) or banked
  // in checkpoints of exhausted shards.
  report.all_complete = true;
  for (auto& st : shards) {
    switch (st.status) {
      case ShardState::Status::kDone:
        break;
      case ShardState::Status::kPending:
        report.all_complete = false;
        // An interrupted (or still-retryable) shard is wholly owned
        // by this resumable run; an undispatched one was never
        // assigned.
        if (st.dispatched_ever) {
          if (st.interrupted || !cancelled()) {
            report.frames_in_flight += st.unit.TotalFrames();
          } else {
            // Cancelled while awaiting retry: only the banked frames
            // remain in flight (the rest was already counted lost).
            report.frames_in_flight += st.latest_frames;
          }
        }
        break;
      case ShardState::Status::kExhausted:
        report.all_complete = false;
        report.frames_in_flight += st.latest_frames;
        break;
      case ShardState::Status::kRunning:
        report.all_complete = false;  // unreachable after the loop
        report.frames_in_flight += st.unit.TotalFrames();
        break;
    }
  }

  if (report.all_complete) {
    std::vector<ShardResult> results;
    results.reserve(shards.size());
    for (auto& st : shards) results.push_back(std::move(st.result));
    report.merged = MergeShardResults(results);
    // The merged engine.* counters join the registry before the final
    // snapshot below, so that snapshot and the final export agree.
    if (options.metrics != nullptr)
      MergedCountersToRegistry(report.merged, *options.metrics);
  }

  publish_ledger_gauges(/*final_totals=*/true);
  jot("coordinator_done", {{"merged_shards", report.merged_shards},
                           {"all_complete", report.all_complete ? 1 : 0},
                           {"interrupted", report.interrupted ? 1 : 0}});
  if (publisher != nullptr) {
    for (const auto& st : shards)
      options.metrics->SetGauge(
          "shard.unit." + st.unit.Id() + ".frames_banked",
          static_cast<double>(st.status == ShardState::Status::kDone
                                  ? st.unit.TotalFrames()
                                  : st.latest_frames));
    publisher->Stop();  // never Start()ed: publishes the final snapshot
  }
  return report;
}

}  // namespace cldpc::dist
