// Sharded Monte-Carlo driver: split one sweep into frame-range work
// units, run them in worker subprocesses under a fault-tolerant
// coordinator, and merge the results into the single-run-equivalent
// curve (bit-identical to --reference — see dist/coordinator.hpp).
//
//   ./shard_coordinator --dir=<work_dir>
//                       [--code=<spec>] [--decoder=<spec>]
//                       [--snrs=3.0,3.5,...] [--frames=N] [--seed=N]
//                       [--batch=N] [--shards=N] [--workers=N]
//                       [--timeout-s=S] [--retries=N] [--backoff-s=S]
//                       [--worker-threads=N] [--checkpoint-every=N]
//                       [--fault-seed=N] [--crash-permille=N]
//                       [--corrupt-permille=N] [--stale-permille=N]
//                       [--kill-coordinator-permille=N]
//                       [--curve-out=<path>]
//                       [--metrics] [--metrics-json=<path>]
//                       [--metrics-interval-ms=N] [--metrics-latest=<path>]
//                       [--snapshots-jsonl=<path>] [--events-jsonl=<path>]
//
// Live observability: with --metrics-interval-ms > 0 the coordinator
// publishes cldpc-metrics-snapshot-v1 documents on the interval (the
// ledger gauges plus per-shard shard.unit.<id>.frames_banked /
// .frames_total progress from scanning its own checkpoints), and
// --events-jsonl journals every dispatch / reap / retry / timeout /
// checkpoint-bank transition as cldpc-events-v1 — `tail -f` either
// file to watch a chaotic fault run live.
//
//   ./shard_coordinator --reference --curve-out=<path> [sweep flags]
//       Single-process run of the same sweep, written in the same
//       cldpc-shard-result-v1 JSON: `diff` it against the
//       coordinator's --curve-out to verify bit-identical merging.
//
//   ./shard_coordinator --worker --unit=<path> --checkpoint=<path>
//                       [--attempt=N] [--worker-threads=N]
//                       [--checkpoint-every=N]
//       Run one work-unit file directly (what a forked worker does
//       internally); exits 0 complete / 3 interrupted / 1 failed.
//
// Reusing --dir resumes a previous run: complete shard checkpoints
// merge without re-simulating a frame, partial ones continue where
// they stopped. ^C requests a graceful stop (workers keep their
// checkpoints; rerun with the same --dir to finish).
//
// Fault injection (all off by default) is seed-deterministic: the
// printed fault seed replays the exact same crashes, corrupt
// checkpoint writes, stale-version writes and coordinator kill (exit
// 42) — see dist/fault.hpp.
//
// Exit codes: 0 run complete; 2 usage error; 3 interrupted but
// resumable; 4 a shard exhausted its retries; 5 frame-accounting
// violation (a bookkeeping bug — never expected); 42 injected
// coordinator kill.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "codes/catalog.hpp"
#include "dist/coordinator.hpp"
#include "dist/shard_runner.hpp"
#include "dist/work_unit.hpp"
#include "engine/sim_engine.hpp"
#include "ldpc/core/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/session.hpp"
#include "sim/ber_runner.hpp"
#include "util/atomic_file.hpp"
#include "util/cli.hpp"
#include "util/shutdown.hpp"

namespace {

using namespace cldpc;

/// The whole-run unit (shard 0 of 1) every mode derives from.
dist::WorkUnit UnitFromFlags(const ArgParser& args) {
  dist::WorkUnit whole;
  whole.code_spec = args.GetString("code", "small");
  whole.decoder_spec = args.GetString("decoder", "fixed-nms:iters=18");
  whole.ebn0_db = args.GetDoubleList("snrs", {3.0, 4.0});
  whole.base_seed = args.GetUint("seed", 1);
  whole.first_frame = 0;
  whole.frame_count = args.GetUint("frames", 400);
  whole.batch_frames = args.GetUint("batch", 16);
  return whole;
}

dist::ShardFaultPlan FaultPlanFromFlags(const ArgParser& args) {
  dist::ShardFaultPlan plan;
  plan.seed = args.GetUint("fault-seed", 1);
  plan.crash_permille =
      static_cast<std::uint32_t>(args.GetUint("crash-permille", 0));
  plan.corrupt_permille =
      static_cast<std::uint32_t>(args.GetUint("corrupt-permille", 0));
  plan.stale_version_permille =
      static_cast<std::uint32_t>(args.GetUint("stale-permille", 0));
  plan.coordinator_kill_permille = static_cast<std::uint32_t>(
      args.GetUint("kill-coordinator-permille", 0));
  return plan;
}

/// --reference: the uninterrupted single-process run, emitted in the
/// exact ShardResult JSON a coordinator merge produces (unit_crc = 0
/// on both sides), so the two files byte-diff.
int RunReference(const ArgParser& args) {
  const auto whole = UnitFromFlags(args);
  const std::string curve_out = args.GetString("curve-out", "");

  auto system = codes::LoadCode(whole.code_spec);
  const auto spec = ldpc::DecoderSpec::Parse(whole.decoder_spec);

  sim::BerConfig config;
  config.ebn0_db = whole.ebn0_db;
  config.base_seed = whole.base_seed;
  config.max_frames = whole.frame_count;
  // Sharded runs pre-partition frames, which rules out early
  // stopping; the reference must run the same full range.
  config.min_frame_errors = std::numeric_limits<std::uint64_t>::max();
  config.info_bits_only = whole.info_bits_only;
  config.all_zero_codeword = whole.all_zero_codeword;
  config.batch_frames = whole.batch_frames;
  config.threads =
      static_cast<std::size_t>(args.GetUint("worker-threads", 1));
  config.frame_source = system.frame_source;
  config.frame_check = system.frame_check;
  obs::MetricsRegistry registry;
  config.metrics = &registry;

  engine::SimEngine engine(*system.code, *system.encoder, config);
  const auto curve = engine.Run([&system, &spec] {
    return ldpc::MakeDecoder(*system.code, spec);
  });

  dist::ShardResult result;
  result.unit_crc = 0;  // matches a merged result, which answers no unit
  result.run_crc = whole.RunCrc();
  result.first_frame = 0;
  result.frames_done = whole.frame_count;
  result.decoder_name = curve.decoder_name;
  result.has_frame_check = curve.has_frame_check;
  for (const auto& p : curve.points)
    result.points.push_back(dist::PointStats::FromBerPoint(p));
  result.counters = dist::StableCounters::FromRegistry(registry);

  std::printf("%s", sim::RenderCurves({result.ToCurve()}).c_str());
  if (!curve_out.empty()) {
    util::WriteFileAtomic(curve_out, result.ToJson());
    std::printf("Reference curve written to %s\n", curve_out.c_str());
  }
  return 0;
}

/// --worker: execute one unit file the way a forked worker does.
int RunWorker(const ArgParser& args) {
  const std::string unit_path = args.GetString("unit", "");
  if (unit_path.empty())
    throw std::invalid_argument("--worker requires --unit=<path>");
  const auto text = util::ReadFileIfExists(unit_path);
  if (!text)
    throw std::invalid_argument("no work unit at " + unit_path);
  const auto unit = dist::WorkUnit::FromJson(*text);

  util::InstallShutdownHandler();
  dist::ShardRunOptions options;
  options.checkpoint_path = args.GetString("checkpoint", "");
  options.checkpoint_every_frames = args.GetUint("checkpoint-every", 4096);
  options.threads = static_cast<std::size_t>(args.GetUint("worker-threads", 1));
  options.cancel = &util::ShutdownRequested();
  options.attempt = args.GetUint("attempt", 0);

  const auto outcome = dist::RunShard(unit, options);
  std::printf("%s: %s, %llu/%llu frames per point (resume: %s)\n",
              unit.Id().c_str(),
              outcome.complete ? "complete" : "interrupted",
              static_cast<unsigned long long>(outcome.result.frames_done),
              static_cast<unsigned long long>(unit.frame_count),
              dist::ToString(outcome.resume_status));
  if (outcome.complete) return dist::kWorkerComplete;
  return util::ShutdownRequested() ? dist::kWorkerInterrupted
                                   : dist::kWorkerFailed;
}

int RunMain(int argc, char** argv) {
  const ArgParser args(argc, argv);
  if (args.GetBool("reference")) return RunReference(args);
  if (args.GetBool("worker")) return RunWorker(args);

  const std::string work_dir = args.GetString("dir", "");
  if (work_dir.empty())
    throw std::invalid_argument(
        "--dir=<work_dir> is required (checkpoints and unit files live "
        "there; reuse it to resume)");

  std::filesystem::create_directories(work_dir);

  const auto whole = UnitFromFlags(args);
  const std::uint64_t shards = args.GetUint("shards", 4);
  const auto units = dist::SplitWorkUnit(whole, shards);

  dist::CoordinatorOptions options;
  options.work_dir = work_dir;
  options.max_workers = static_cast<std::size_t>(args.GetUint("workers", 2));
  options.max_retries = args.GetUint("retries", 3);
  options.shard_timeout_s = args.GetDouble("timeout-s", 0.0);
  options.retry_backoff_s = args.GetDouble("backoff-s", 0.0);
  options.worker_threads =
      static_cast<std::size_t>(args.GetUint("worker-threads", 1));
  options.checkpoint_every_frames = args.GetUint("checkpoint-every", 4096);
  util::InstallShutdownHandler();
  options.cancel = &util::ShutdownRequested();
  options.faults = FaultPlanFromFlags(args);
  options.log = [](const std::string& line) {
    std::printf("[coordinator] %s\n", line.c_str());
  };

  obs::Session obs_session(args, {.live = true});
  options.metrics = obs_session.metrics();
  options.snapshots = obs_session.snapshots();
  options.journal = obs_session.journal();

  const dist::ShardFaultInjector injector(options.faults);
  if (injector.armed()) {
    std::printf("Fault injection armed: seed=%llu crash=%u‰ "
                "corrupt=%u‰ stale=%u‰ kill-coordinator=%u‰ "
                "(replay with --fault-seed=%llu)\n",
                static_cast<unsigned long long>(options.faults.seed),
                options.faults.crash_permille,
                options.faults.corrupt_permille,
                options.faults.stale_version_permille,
                options.faults.coordinator_kill_permille,
                static_cast<unsigned long long>(options.faults.seed));
  }
  options.on_shard_merged = [&injector](std::uint64_t merge_index,
                                        const dist::ShardResult&) {
    if (injector.KillCoordinatorAfterMerge(merge_index)) {
      std::printf("[fault] coordinator killed after merge #%llu "
                  "(exit 42); rerun with the same --dir to resume\n",
                  static_cast<unsigned long long>(merge_index));
      std::fflush(stdout);
      // The honest coordinator death: no unwinding, no final report.
      std::_Exit(42);
    }
  };

  std::printf("Run: code=%s decoder=%s points=%zu frames/point=%llu -> "
              "%llu shards x %llu frames (%llu workers)\n",
              whole.code_spec.c_str(), whole.decoder_spec.c_str(),
              whole.ebn0_db.size(),
              static_cast<unsigned long long>(whole.frame_count),
              static_cast<unsigned long long>(shards),
              static_cast<unsigned long long>(units[0].frame_count),
              static_cast<unsigned long long>(options.max_workers));

  const auto report = dist::RunCoordinator(units, options);

  std::printf("\nShards merged: %llu/%llu%s\n",
              static_cast<unsigned long long>(report.merged_shards),
              static_cast<unsigned long long>(report.shards),
              report.interrupted ? " (interrupted — resumable)" : "");
  std::printf("Frame ledger: assigned=%llu merged=%llu in_flight=%llu "
              "lost_and_retried=%llu -> %s\n",
              static_cast<unsigned long long>(report.frames_assigned),
              static_cast<unsigned long long>(report.frames_merged),
              static_cast<unsigned long long>(report.frames_in_flight),
              static_cast<unsigned long long>(report.frames_lost_and_retried),
              report.AccountingHolds() ? "balanced" : "VIOLATION");

  if (report.all_complete) {
    std::printf("\n%s", sim::RenderCurves({report.merged.ToCurve()}).c_str());
    const std::string curve_out = args.GetString("curve-out", "");
    if (!curve_out.empty()) {
      util::WriteFileAtomic(curve_out, report.merged.ToJson());
      std::printf("Merged curve written to %s (diff against "
                  "--reference --curve-out)\n", curve_out.c_str());
    }
  }
  obs_session.Export();

  // The accounting identity gates every exit path: a bookkeeping bug
  // beats any other status.
  if (!report.AccountingHolds()) return 5;
  if (report.all_complete) return 0;
  return report.interrupted ? 3 : 4;
}

}  // namespace

int main(int argc, char** argv) {
  return cldpc::GuardedMain(argc, argv, RunMain);
}
