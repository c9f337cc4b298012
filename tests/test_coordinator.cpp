// The fork-based coordinator under real process deaths: clean runs,
// injected SIGKILLed workers, retry exhaustion, timeouts, cooperative
// cancellation and work-dir resume — each closing the frame ledger
//
//   assigned == merged + in_flight + lost_and_retried
//
// and, whenever the run completes, merging byte-identical to the
// uninterrupted single-process reference.
#include "dist/coordinator.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "codes/catalog.hpp"
#include "dist/shard_result.hpp"
#include "dist/work_unit.hpp"
#include "engine/sim_engine.hpp"
#include "ldpc/core/registry.hpp"
#include "obs/metrics.hpp"
#include "sim/ber_runner.hpp"

namespace cldpc::dist {
namespace {

WorkUnit SmallUnit() {
  WorkUnit unit;
  unit.code_spec = "small";
  unit.decoder_spec = "fixed-nms:iters=6";
  unit.ebn0_db = {2.5, 3.5};
  unit.base_seed = 5;
  unit.frame_count = 48;
  unit.batch_frames = 8;
  return unit;
}

/// Uninterrupted single-process run (same construction as
/// tests/test_dist.cpp and shard_coordinator --reference).
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

class CoordinatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "coordinator_test_" +
           std::string(
               ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directory(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  CoordinatorOptions BaseOptions() {
    CoordinatorOptions options;
    options.work_dir = dir_;
    options.max_workers = 2;
    options.checkpoint_every_frames = 8;
    return options;
  }

  std::string dir_;
};

TEST_F(CoordinatorTest, CleanRunMergesByteIdenticalToReference) {
  const auto whole = SmallUnit();
  obs::MetricsRegistry metrics;
  auto options = BaseOptions();
  options.metrics = &metrics;

  const auto report = RunCoordinator(SplitWorkUnit(whole, 3), options);
  ASSERT_TRUE(report.all_complete);
  EXPECT_FALSE(report.interrupted);
  EXPECT_TRUE(report.AccountingHolds());
  EXPECT_EQ(report.merged_shards, 3u);
  EXPECT_EQ(report.frames_assigned, whole.TotalFrames());
  EXPECT_EQ(report.frames_merged, whole.TotalFrames());
  EXPECT_EQ(report.frames_lost_and_retried, 0u);
  EXPECT_EQ(report.merged.ToJson(), Reference(whole).ToJson());

  EXPECT_EQ(CounterValue(metrics, "shard.dispatches"), 3u);
  EXPECT_EQ(CounterValue(metrics, "shard.merges"), 3u);
  EXPECT_EQ(CounterValue(metrics, "shard.failures"), 0u);
  // The report's ledger is republished as gauges for the exporter.
  const auto gauges = metrics.Snapshot().gauges;
  const auto assigned =
      std::find_if(gauges.begin(), gauges.end(), [](const auto& g) {
        return g.name == "shard.frames_assigned";
      });
  ASSERT_NE(assigned, gauges.end()) << "shard.frames_assigned not exported";
  EXPECT_EQ(assigned->value, static_cast<double>(report.frames_assigned));
}

TEST_F(CoordinatorTest, SigkilledWorkersRetryToTheSameBytes) {
  const auto whole = SmallUnit();
  auto options = BaseOptions();
  // Real SIGKILLs: the injected crash in a forked worker takes the
  // default raise(SIGKILL) path — no unwinding, no atexit, exactly
  // the death the coordinator must absorb. Every crashed attempt has
  // checkpointed its last chunk BEFORE dying, so each retry advances
  // at least one chunk: 12 chunks per shard bounds the attempts and
  // the test cannot hang on any fault-seed choice.
  options.faults.seed = 21;
  options.faults.crash_permille = 300;
  options.max_retries = 12;
  obs::MetricsRegistry metrics;
  options.metrics = &metrics;

  const auto report = RunCoordinator(SplitWorkUnit(whole, 3), options);
  ASSERT_TRUE(report.all_complete);
  EXPECT_TRUE(report.AccountingHolds());
  EXPECT_GE(CounterValue(metrics, "shard.worker_deaths"), 1u)
      << "fault plan injected nothing — dead test";
  EXPECT_GT(report.frames_lost_and_retried, 0u);
  EXPECT_GT(report.frames_assigned, whole.TotalFrames());
  EXPECT_EQ(report.frames_merged, whole.TotalFrames());
  EXPECT_EQ(report.merged.ToJson(), Reference(whole).ToJson());
}

TEST_F(CoordinatorTest, ExhaustedRetriesCloseTheLedger) {
  const auto whole = SmallUnit();
  auto options = BaseOptions();
  options.faults.seed = 2;
  options.faults.crash_permille = 1000;  // every attempt dies
  options.max_retries = 1;               // 2 attempts per shard
  obs::MetricsRegistry metrics;
  options.metrics = &metrics;

  const auto report = RunCoordinator(SplitWorkUnit(whole, 2), options);
  EXPECT_FALSE(report.all_complete);
  EXPECT_FALSE(report.interrupted);
  EXPECT_EQ(report.merged_shards, 0u);
  // Even total failure balances: banked chunks are in flight, the
  // rest was declared lost, attempt by attempt.
  EXPECT_TRUE(report.AccountingHolds());
  EXPECT_GT(report.frames_in_flight, 0u);  // each death banked a chunk
  EXPECT_GT(report.frames_lost_and_retried, 0u);
  EXPECT_EQ(CounterValue(metrics, "shard.failures"), 4u);
}

TEST_F(CoordinatorTest, TimeoutKillsAndAccountsHungWorkers) {
  auto whole = SmallUnit();
  // A shard far too large to finish inside the timeout, with a
  // checkpoint interval it never reaches: every attempt is killed by
  // the watchdog with nothing banked.
  whole.frame_count = 200000;
  auto options = BaseOptions();
  options.checkpoint_every_frames = 1000000;
  options.shard_timeout_s = 0.05;
  options.max_retries = 1;
  options.max_workers = 1;
  obs::MetricsRegistry metrics;
  options.metrics = &metrics;

  const auto report = RunCoordinator(SplitWorkUnit(whole, 1), options);
  EXPECT_FALSE(report.all_complete);
  EXPECT_TRUE(report.AccountingHolds());
  EXPECT_EQ(report.frames_merged, 0u);
  EXPECT_EQ(report.frames_lost_and_retried, report.frames_assigned);
  EXPECT_GE(CounterValue(metrics, "shard.timeouts"), 1u);
  EXPECT_GE(CounterValue(metrics, "shard.worker_deaths"), 1u);
}

TEST_F(CoordinatorTest, CancelInterruptsResumablyAndResumeFinishes) {
  const auto whole = SmallUnit();
  const auto units = SplitWorkUnit(whole, 3);

  std::atomic<bool> cancel{false};
  auto options = BaseOptions();
  options.max_workers = 1;  // serialize so one merge precedes the rest
  options.cancel = &cancel;
  options.on_shard_merged = [&cancel](std::uint64_t, const ShardResult&) {
    cancel.store(true, std::memory_order_release);
  };

  const auto first = RunCoordinator(units, options);
  EXPECT_TRUE(first.interrupted);
  EXPECT_FALSE(first.all_complete);
  EXPECT_TRUE(first.AccountingHolds());
  EXPECT_GE(first.merged_shards, 1u);
  EXPECT_LT(first.merged_shards, 3u);

  // Same work_dir, no cancel: completed shards pre-merge from their
  // checkpoints without re-running, the rest finish, and the final
  // curve is the reference, byte for byte.
  auto resume_options = BaseOptions();
  obs::MetricsRegistry metrics;
  resume_options.metrics = &metrics;
  const auto second = RunCoordinator(units, resume_options);
  ASSERT_TRUE(second.all_complete);
  EXPECT_TRUE(second.AccountingHolds());
  EXPECT_EQ(second.merged.ToJson(), Reference(whole).ToJson());
  // The already-done shards must NOT have been dispatched again.
  EXPECT_EQ(CounterValue(metrics, "shard.dispatches"),
            3u - first.merged_shards);
}

TEST_F(CoordinatorTest, RefusesUnitsFromDifferentRuns) {
  const auto whole = SmallUnit();
  auto units = SplitWorkUnit(whole, 2);
  units[1].base_seed += 1;  // now a different logical run
  EXPECT_THROW(RunCoordinator(units, BaseOptions()), std::exception);
}

}  // namespace
}  // namespace cldpc::dist
