// The sharded Monte-Carlo bit-identity chain: work-unit round-trips,
// deterministic splits, and the load-bearing claim of src/dist/ —
// that ANY shard split, with any number of kills, corrupt
// checkpoints and resumes in between, merges to the byte-exact
// statistics of one uninterrupted single-process run.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "codes/catalog.hpp"
#include "dist/fault.hpp"
#include "dist/shard_result.hpp"
#include "dist/shard_runner.hpp"
#include "dist/sweep.hpp"
#include "dist/work_unit.hpp"
#include "engine/sim_engine.hpp"
#include "ldpc/core/registry.hpp"
#include "obs/metrics.hpp"
#include "sim/ber_runner.hpp"
#include "util/atomic_file.hpp"

namespace cldpc::dist {
namespace {

WorkUnit SmallUnit() {
  WorkUnit unit;
  unit.code_spec = "small";
  unit.decoder_spec = "fixed-nms:iters=6";
  unit.ebn0_db = {2.5, 3.5};
  unit.base_seed = 5;
  unit.first_frame = 0;
  unit.frame_count = 48;
  unit.batch_frames = 8;
  return unit;
}

/// The uninterrupted single-process run of `whole`, as a ShardResult
/// with unit_crc = 0 — the byte-level target every merge must hit.
ShardResult Reference(const WorkUnit& whole) {
  auto system = codes::LoadCode(whole.code_spec);
  const auto spec = ldpc::DecoderSpec::Parse(whole.decoder_spec);
  sim::BerConfig config;
  config.ebn0_db = whole.ebn0_db;
  config.base_seed = whole.base_seed;
  config.max_frames = whole.frame_count;
  config.min_frame_errors = std::numeric_limits<std::uint64_t>::max();
  config.info_bits_only = whole.info_bits_only;
  config.all_zero_codeword = whole.all_zero_codeword;
  config.batch_frames = whole.batch_frames;
  config.frame_source = system.frame_source;
  config.frame_check = system.frame_check;
  obs::MetricsRegistry registry;
  config.metrics = &registry;

  engine::SimEngine engine(*system.code, *system.encoder, config);
  const auto curve = engine.Run(
      [&system, &spec] { return ldpc::MakeDecoder(*system.code, spec); });

  ShardResult result;
  result.run_crc = whole.RunCrc();
  result.first_frame = 0;
  result.frames_done = whole.frame_count;
  result.decoder_name = curve.decoder_name;
  result.has_frame_check = curve.has_frame_check;
  for (const auto& p : curve.points)
    result.points.push_back(PointStats::FromBerPoint(p));
  result.counters = StableCounters::FromRegistry(registry);
  return result;
}

std::uint64_t CounterValue(const obs::MetricsRegistry& registry,
                           const std::string& name) {
  for (const auto& c : registry.Snapshot().counters)
    if (c.name == name) return c.value;
  return 0;
}

class ScratchFiles : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const auto& path : cleanup_) std::remove(path.c_str());
  }
  std::string Track(const std::string& path) {
    cleanup_.push_back(path);
    return path;
  }
  std::vector<std::string> cleanup_;
};

// ---------------------------------------------------------------- //
// Work-unit descriptor
// ---------------------------------------------------------------- //

TEST(WorkUnitTest, JsonRoundTripPreservesEveryField) {
  auto unit = SmallUnit();
  unit.first_frame = 17;
  unit.frame_count = 31;
  unit.shard_index = 2;
  unit.shard_count = 5;
  unit.all_zero_codeword = true;
  const auto copy = WorkUnit::FromJson(unit.ToJson());
  EXPECT_EQ(copy.ToJson(), unit.ToJson());
  EXPECT_EQ(copy.ContentCrc(), unit.ContentCrc());
  EXPECT_EQ(copy.Id(), "shard-002-of-005");
}

TEST(WorkUnitTest, EveryFlippedByteIsRejectedOrExact) {
  const auto good = SmallUnit().ToJson();
  const auto good_crc = WorkUnit::FromJson(good).ContentCrc();
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x01);
    try {
      // A mutation that still parses must decode to the same unit
      // (the flip landed somewhere inert, e.g. inside the crc field's
      // own digits would throw): silently different is the only
      // forbidden outcome.
      EXPECT_EQ(WorkUnit::FromJson(bad).ContentCrc(), good_crc)
          << "byte " << i;
    } catch (const std::invalid_argument&) {
      // Loud rejection — the designed outcome.
    }
  }
}

TEST(WorkUnitTest, RunCrcIgnoresShardCoordinatesOnly) {
  const auto whole = SmallUnit();
  for (const auto& part : SplitWorkUnit(whole, 4)) {
    EXPECT_EQ(part.RunCrc(), whole.RunCrc());
    EXPECT_NE(part.ContentCrc(), whole.ContentCrc());
  }
  auto other = whole;
  other.base_seed += 1;
  EXPECT_NE(other.RunCrc(), whole.RunCrc());
}

TEST(WorkUnitTest, SplitCoversExactlyTheWholeRange) {
  auto whole = SmallUnit();
  whole.frame_count = 47;  // deliberately not divisible
  for (const std::uint64_t shards : {1u, 3u, 8u, 47u}) {
    const auto parts = SplitWorkUnit(whole, shards);
    ASSERT_EQ(parts.size(), shards);
    std::uint64_t next = whole.first_frame;
    for (std::size_t i = 0; i < parts.size(); ++i) {
      EXPECT_EQ(parts[i].first_frame, next);
      EXPECT_EQ(parts[i].shard_index, i);
      EXPECT_EQ(parts[i].shard_count, shards);
      // Balanced: no shard more than one frame bigger than another.
      EXPECT_GE(parts[i].frame_count, whole.frame_count / shards);
      EXPECT_LE(parts[i].frame_count, whole.frame_count / shards + 1);
      next += parts[i].frame_count;
    }
    EXPECT_EQ(next, whole.first_frame + whole.frame_count);
  }
}

// ---------------------------------------------------------------- //
// Merge bit-identity
// ---------------------------------------------------------------- //

class MergeIdentityTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MergeIdentityTest, ShardedRunMergesByteIdenticalToSingleProcess) {
  const auto whole = SmallUnit();
  const auto reference = Reference(whole);

  std::vector<ShardResult> results;
  for (const auto& part : SplitWorkUnit(whole, GetParam())) {
    ShardRunOptions options;  // no checkpointing: pure compute path
    const auto outcome = RunShard(part, options);
    ASSERT_TRUE(outcome.complete);
    results.push_back(outcome.result);
  }
  // Byte-level equality of the full document: per-point statistics,
  // kStable counters AND the iteration histogram, all at once.
  EXPECT_EQ(MergeShardResults(results).ToJson(), reference.ToJson());
}

INSTANTIATE_TEST_SUITE_P(Splits, MergeIdentityTest,
                         ::testing::Values(1u, 3u, 8u));

TEST(MergeGuardTest, RefusesGapsOverlapsAndForeignRuns) {
  const auto whole = SmallUnit();
  std::vector<ShardResult> results;
  for (const auto& part : SplitWorkUnit(whole, 3)) {
    ShardRunOptions options;
    results.push_back(RunShard(part, options).result);
  }
  auto gap = results;
  gap.erase(gap.begin() + 1);  // missing middle shard = lost frames
  EXPECT_THROW(MergeShardResults(gap), std::invalid_argument);

  auto overlap = results;
  overlap.push_back(results[1]);  // duplicated shard = double count
  EXPECT_THROW(MergeShardResults(overlap), std::invalid_argument);

  auto foreign = results;
  foreign[2].run_crc ^= 1;  // result from a different logical run
  EXPECT_THROW(MergeShardResults(foreign), std::invalid_argument);
}

// ---------------------------------------------------------------- //
// Kill / corrupt / resume bit-identity
// ---------------------------------------------------------------- //

/// Marker thrown by the test's injected-crash hook in place of the
/// real SIGKILL (same abruptness as far as RunShard's caller is
/// concerned: the function never returns normally).
struct InjectedCrash {};

TEST_F(ScratchFiles, CrashedShardsResumeToTheSameBytes) {
  const auto whole = SmallUnit();
  const auto reference = Reference(whole);

  ShardFaultPlan plan;
  plan.seed = 21;
  plan.crash_permille = 400;  // crashes expected across the chunks

  std::vector<ShardResult> results;
  std::uint64_t crashes = 0;
  for (const auto& part : SplitWorkUnit(whole, 3)) {
    const auto path = Track("dist_test_crash_" +
                            std::to_string(part.shard_index) + ".json");
    ShardRunOptions options;
    options.checkpoint_path = path;
    options.checkpoint_every_frames = 8;  // 6 chunks/point: many dice rolls
    options.faults = ShardFaultInjector(plan);
    options.on_injected_crash = [] { throw InjectedCrash{}; };

    // Keep re-dispatching the shard until an attempt survives — the
    // coordinator's retry loop in miniature, bounded only as a
    // test-hang guard.
    bool complete = false;
    for (std::uint64_t attempt = 0; attempt < 64 && !complete; ++attempt) {
      options.attempt = attempt;
      try {
        const auto outcome = RunShard(part, options);
        ASSERT_TRUE(outcome.complete);
        results.push_back(outcome.result);
        complete = true;
      } catch (const InjectedCrash&) {
        ++crashes;  // dead worker; its checkpoint survives on disk
      }
    }
    ASSERT_TRUE(complete) << part.Id() << " never survived 64 attempts";
  }
  EXPECT_GE(crashes, 1u) << "fault plan injected nothing — dead test";
  EXPECT_EQ(MergeShardResults(results).ToJson(), reference.ToJson());
}

TEST_F(ScratchFiles, CorruptCheckpointRestartsCleanToTheSameBytes) {
  const auto whole = SmallUnit();
  const auto parts = SplitWorkUnit(whole, 2);
  const auto& part = parts[0];
  const auto path = Track("dist_test_corrupt.json");

  // First execution is killed mid-shard, leaving a valid partial
  // checkpoint...
  ShardFaultPlan crash_plan;
  crash_plan.seed = 4;
  crash_plan.crash_permille = 1000;  // certain death after chunk 0
  ShardRunOptions options;
  options.checkpoint_path = path;
  options.checkpoint_every_frames = 8;
  options.faults = ShardFaultInjector(crash_plan);
  options.on_injected_crash = [] { throw InjectedCrash{}; };
  EXPECT_THROW(RunShard(part, options), InjectedCrash);

  // ...which then rots on disk (one flipped byte).
  auto bytes = util::ReadFileIfExists(path);
  ASSERT_TRUE(bytes.has_value());
  (*bytes)[bytes->size() / 2] =
      static_cast<char>((*bytes)[bytes->size() / 2] ^ 0x01);
  util::WriteFileAtomic(path, *bytes);

  // The retry must classify the damage, restart from frame 0, and
  // still produce the exact bytes — corruption costs work, never
  // correctness.
  obs::MetricsRegistry metrics;
  ShardRunOptions retry;
  retry.checkpoint_path = path;
  retry.checkpoint_every_frames = 8;
  retry.metrics = &metrics;
  const auto outcome = RunShard(part, retry);
  EXPECT_EQ(outcome.resume_status, CheckpointStatus::kCorrupt);
  EXPECT_EQ(outcome.frames_resumed, 0u);
  ASSERT_TRUE(outcome.complete);

  ShardRunOptions clean;  // same shard, never interrupted
  clean.checkpoint_path = "";
  const auto uninterrupted = RunShard(part, clean);
  EXPECT_EQ(outcome.result.ToJson(), uninterrupted.result.ToJson());

  EXPECT_EQ(CounterValue(metrics, "shard.restarts_corrupt"), 1u);
}

TEST_F(ScratchFiles, StaleVersionCheckpointRestartsClean) {
  const auto whole = SmallUnit();
  const auto part = SplitWorkUnit(whole, 2)[1];
  const auto path = Track("dist_test_stale.json");

  // Every checkpoint write carries a foreign schema version — as if
  // the worker fleet were downgraded mid-run. Each next attempt must
  // classify and restart; the final attempt (faults disarmed, the
  // upgrade completed) still lands the exact bytes.
  ShardFaultPlan stale_plan;
  stale_plan.seed = 9;
  stale_plan.stale_version_permille = 1000;
  ShardRunOptions options;
  options.checkpoint_path = path;
  options.checkpoint_every_frames = 16;
  options.faults = ShardFaultInjector(stale_plan);
  const auto first = RunShard(part, options);
  ASSERT_TRUE(first.complete);  // the run itself succeeds...

  obs::MetricsRegistry metrics;
  ShardRunOptions retry;  // ...but its checkpoint is unusable
  retry.checkpoint_path = path;
  retry.metrics = &metrics;
  const auto second = RunShard(part, retry);
  EXPECT_EQ(second.resume_status, CheckpointStatus::kVersionMismatch);
  ASSERT_TRUE(second.complete);
  EXPECT_EQ(second.result.ToJson(), first.result.ToJson());
  EXPECT_EQ(CounterValue(metrics, "shard.restarts_stale"), 1u);
}

// ---------------------------------------------------------------- //
// Fault-injection replay
// ---------------------------------------------------------------- //

TEST(FaultReplayTest, DecisionsAreAPureFunctionOfTheSeed) {
  ShardFaultPlan plan;
  plan.seed = 1234;
  plan.crash_permille = 300;
  plan.corrupt_permille = 200;
  plan.stale_version_permille = 100;
  plan.coordinator_kill_permille = 250;
  const ShardFaultInjector a(plan), b(plan);

  std::uint64_t fired = 0, spared = 0;
  for (std::uint64_t shard = 0; shard < 4; ++shard)
    for (std::uint64_t attempt = 0; attempt < 4; ++attempt)
      for (std::uint64_t chunk = 0; chunk < 8; ++chunk) {
        // Replay: a second injector built from the same plan agrees
        // on every single decision (this is what makes "rerun with
        // --fault-seed=N" reproduce a failure exactly).
        EXPECT_EQ(a.CrashAfterChunk(shard, attempt, chunk),
                  b.CrashAfterChunk(shard, attempt, chunk));
        EXPECT_EQ(a.CorruptCheckpoint(shard, attempt, chunk),
                  b.CorruptCheckpoint(shard, attempt, chunk));
        EXPECT_EQ(a.StaleVersion(shard, attempt, chunk),
                  b.StaleVersion(shard, attempt, chunk));
        (a.CrashAfterChunk(shard, attempt, chunk) ? fired : spared) += 1;
      }
  // Statistical sanity at 300‰ over 128 draws: both outcomes occur.
  EXPECT_GT(fired, 0u);
  EXPECT_GT(spared, 0u);

  EXPECT_EQ(a.KillCoordinatorAfterMerge(3), b.KillCoordinatorAfterMerge(3));
  ShardFaultPlan other = plan;
  other.seed += 1;
  const ShardFaultInjector c(other);
  bool any_difference = false;
  for (std::uint64_t chunk = 0; chunk < 64 && !any_difference; ++chunk)
    any_difference =
        a.CrashAfterChunk(0, 0, chunk) != c.CrashAfterChunk(0, 0, chunk);
  EXPECT_TRUE(any_difference) << "seed does not select the fault pattern";
}

TEST(FaultReplayTest, AttemptIsACoordinateOfEveryDecision) {
  ShardFaultPlan plan;
  plan.seed = 77;
  plan.crash_permille = 500;
  const ShardFaultInjector injector(plan);
  // A retried attempt must draw FRESH decisions for the same chunks —
  // otherwise a crash-fated shard re-crashes at the same chunk
  // forever and retries cannot make progress.
  bool differs = false;
  for (std::uint64_t chunk = 0; chunk < 64 && !differs; ++chunk)
    differs = injector.CrashAfterChunk(0, 0, chunk) !=
              injector.CrashAfterChunk(0, 1, chunk);
  EXPECT_TRUE(differs);
}

// ---------------------------------------------------------------- //
// Resumable sweep (the ber_waterfall --checkpoint/--resume path)
// ---------------------------------------------------------------- //

TEST_F(ScratchFiles, InterruptedSweepResumesBitIdenticalWithEarlyStops) {
  auto system = codes::LoadCode("small");
  sim::BerConfig config;
  config.ebn0_db = {2.0, 3.0, 4.0};
  config.max_frames = 60;
  config.min_frame_errors = 5;  // early stop is part of the contract
  config.batch_frames = 8;
  const std::vector<std::string> specs = {"nms:iters=6"};

  // Reference: the uninterrupted run through the same sweep code.
  ResumableSweep uninterrupted(*system.code, *system.encoder, "small",
                               config, specs);
  ASSERT_TRUE(uninterrupted.Run());
  const auto want = sim::RenderCurves(uninterrupted.curves());
  // Frames each point consumed in the uninterrupted run; determinism
  // makes the interrupted runs consume the identical sequence up to
  // the cut, so cuts placed before the last point starts are
  // guaranteed to leave the sweep incomplete.
  const auto ref_points = uninterrupted.curves()[0].points;
  ASSERT_EQ(ref_points.size(), 3u);
  const std::uint64_t f0 = ref_points[0].frames;
  const std::uint64_t f1 = ref_points[1].frames;
  ASSERT_GE(f0, 2u);

  // Interrupt at several absolute frame counts — mid-point and
  // across point boundaries. Whatever the interruption point,
  // resuming finishes to the same rendered table (rates and all —
  // the derived doubles ride on exact integers).
  for (const std::uint64_t cut : {std::uint64_t{1}, f0, f0 + f1 / 2}) {
    const auto path = Track("dist_test_sweep_" + std::to_string(cut) +
                            ".json");
    std::atomic<bool> cancel{false};
    auto cfg = config;
    cfg.cancel = &cancel;
    ResumableSweep first(*system.code, *system.encoder, "small", cfg, specs);
    std::uint64_t frames_seen = 0;
    first.Run(path, [&](std::size_t, std::uint64_t, bool) {
      if (++frames_seen == cut) cancel.store(true, std::memory_order_release);
    });
    ASSERT_FALSE(first.complete()) << "cut=" << cut;

    ResumableSweep resumed(*system.code, *system.encoder, "small", config,
                           specs);
    ASSERT_EQ(resumed.LoadCheckpoint(path), CheckpointStatus::kOk);
    ASSERT_TRUE(resumed.Run(path));
    EXPECT_EQ(sim::RenderCurves(resumed.curves()), want)
        << "interrupted at frame " << cut;
  }
}

TEST_F(ScratchFiles, SweepRefusesForeignCheckpoints) {
  auto system = codes::LoadCode("small");
  sim::BerConfig config;
  config.ebn0_db = {3.0};
  config.max_frames = 8;
  config.batch_frames = 8;
  const auto path = Track("dist_test_sweep_foreign.json");

  ResumableSweep original(*system.code, *system.encoder, "small", config,
                          {"nms:iters=4"});
  ASSERT_TRUE(original.Run(path));

  // Different frame budget → different fingerprint → refused.
  auto other_config = config;
  other_config.max_frames = 9;
  ResumableSweep other(*system.code, *system.encoder, "small", other_config,
                       {"nms:iters=4"});
  EXPECT_EQ(other.LoadCheckpoint(path), CheckpointStatus::kUnitMismatch);

  // Different decoder list → refused.
  ResumableSweep third(*system.code, *system.encoder, "small", config,
                       {"nms:iters=6"});
  EXPECT_EQ(third.LoadCheckpoint(path), CheckpointStatus::kUnitMismatch);
}

}  // namespace
}  // namespace cldpc::dist
