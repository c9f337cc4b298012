// Tests for the live observability plane's snapshot half
// (src/obs/snapshot.hpp + MetricsRegistry::Snapshot): lock-free
// shard-consistent reads under concurrent load, the snapshot-sum-
// equals-final-flush delta identity, publisher file outputs, and the
// SIGINT emergency flush.
#include "obs/snapshot.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "util/histogram.hpp"
#include "util/json.hpp"
#include "util/shutdown.hpp"

namespace cldpc::obs {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

// --- Histogram bucket math -----------------------------------------

TEST(HistBuckets, TileTheRange) {
  // Lower bounds strictly increase and every bucket starts exactly
  // where its predecessor ends, so each value lands in one bucket.
  EXPECT_EQ(HistBucket(std::numeric_limits<std::int64_t>::min()), 0u);
  EXPECT_EQ(HistBucket(-127), 0u);
  EXPECT_EQ(HistBucket(std::numeric_limits<std::int64_t>::max()),
            kHistBuckets - 1);
  EXPECT_EQ(HistBucket((std::int64_t{1} << 40) - 1), kHistBuckets - 1);
  for (std::size_t b = 1; b < kHistBuckets; ++b) {
    const std::int64_t lower = HistBucketLowerBound(b);
    ASSERT_GT(lower, HistBucketLowerBound(b - 1)) << b;
    ASSERT_EQ(HistBucket(lower), b) << b;
    ASSERT_EQ(HistBucket(lower - 1), b - 1) << b;
  }
}

TEST(HistBuckets, ExactBelow128) {
  for (std::int64_t v = -127; v < 128; ++v)
    ASSERT_EQ(HistBucketLowerBound(HistBucket(v)), v) << v;
  EXPECT_EQ(HistBucketLowerBound(HistBucket(128)), 128);
  EXPECT_EQ(HistBucketLowerBound(HistBucket(131)), 128);
}

TEST(HistBuckets, LowerBoundWithinOneThirtySecond) {
  // q̂ <= q < q̂ * (1 + 1/32) for every value the buckets resolve:
  // all of [128, 2^16), then both edges of every bucket up to 2^40.
  const auto check = [](std::int64_t v) {
    const std::int64_t lower = HistBucketLowerBound(HistBucket(v));
    ASSERT_LE(lower, v) << v;
    ASSERT_LT(32 * v, 33 * lower) << v;
  };
  for (std::int64_t v = 128; v < (1 << 16); ++v) check(v);
  for (std::size_t b = kHistLinearBuckets; b < kHistBuckets; ++b) {
    check(HistBucketLowerBound(b));
    const std::int64_t next = b + 1 < kHistBuckets
                                  ? HistBucketLowerBound(b + 1)
                                  : std::int64_t{1} << 40;
    check(next - 1);
  }
}

// --- Registry snapshots ---------------------------------------------

TEST(RegistrySnapshotTest, QuiescentSnapshotEqualsMerge) {
  // The view of a quiescent registry is the exact merge of what the
  // shards recorded: every value here is below 128, where buckets are
  // exact, so all stats equal an exact nearest-rank histogram's.
  MetricsRegistry reg;
  const CounterId c = reg.Counter("t.count");
  const HistogramId h = reg.Hist("t.lat", Determinism::kWallClock, "us");
  reg.SetShardCount(3);
  Histogram exact;
  for (std::size_t s = 0; s < 3; ++s) {
    reg.shard(s).Add(c, 10 * (s + 1));
    for (int i = 1; i <= 8; ++i) {
      const auto v = static_cast<std::int64_t>(i * (s + 1));
      reg.shard(s).Record(h, v);
      exact.Add(v);
    }
  }
  reg.SetGauge("t.gauge", 2.5);

  const auto live = reg.Snapshot();
  ASSERT_EQ(live.counters.size(), 1u);
  EXPECT_EQ(live.counters[0].value, 60u);
  ASSERT_EQ(live.histograms.size(), 1u);
  const auto& hist = live.histograms[0];
  const auto want = exact.Summarize();
  EXPECT_EQ(hist.count, want.count);
  EXPECT_EQ(hist.min, want.min);
  EXPECT_EQ(hist.max, want.max);
  EXPECT_DOUBLE_EQ(hist.mean, want.mean);
  EXPECT_EQ(hist.p50, want.p50);
  EXPECT_EQ(hist.p90, want.p90);
  EXPECT_EQ(hist.p99, want.p99);
  EXPECT_EQ(hist.bins, (std::vector<std::pair<std::int64_t, std::uint64_t>>(
                           exact.bins().begin(), exact.bins().end())));
  ASSERT_EQ(live.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(live.gauges[0].value, 2.5);
}

TEST(RegistrySnapshotTest, SetIsAbsoluteAndIdempotent) {
  MetricsRegistry reg;
  const CounterId c = reg.Counter("t.synced");
  reg.SetShardCount(1);
  reg.shard(0).Set(c, 41);
  reg.shard(0).Set(c, 41);  // republish must not double-count
  reg.shard(0).Set(c, 42);
  EXPECT_EQ(reg.Snapshot().counters[0].value, 42u);
  EXPECT_EQ(reg.MergedCounter(c), 42u);
}

TEST(RegistrySnapshotTest, ConcurrentSnapshotsSeeConsistentShards) {
  // Writers hammer one counter and one histogram per shard while a
  // reader snapshots continuously. Every snapshot must be internally
  // consistent (histogram count == bucket sum by construction, so the
  // derived stats can never be torn) and monotonic in time.
  MetricsRegistry reg;
  const CounterId c = reg.Counter("t.frames");
  const HistogramId h = reg.Hist("t.lat", Determinism::kWallClock, "us");
  constexpr std::size_t kWriters = 3;
  constexpr std::uint64_t kPerWriter = 40000;
  reg.SetShardCount(kWriters);

  // The writers are held until the reader has taken its first
  // snapshot: on a busy or single CPU the reader thread could
  // otherwise start only after every writer finished, and no snapshot
  // would overlap the writes at all.
  std::atomic<bool> reading{false}, done{false};
  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      while (!reading.load()) std::this_thread::yield();
      Shard& shard = reg.shard(w);
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        shard.Add(c, 1);
        shard.Record(h, static_cast<std::int64_t>(i % 1024));
      }
    });
  }

  std::uint64_t prev_count = 0, prev_hist = 0, snapshots = 0;
  std::thread reader([&] {
    while (!done.load()) {
      const auto snap = reg.Snapshot();
      ++snapshots;
      reading.store(true);
      // Counters only ever grow.
      ASSERT_GE(snap.counters[0].value, prev_count);
      prev_count = snap.counters[0].value;
      const auto& hist = snap.histograms[0];
      ASSERT_GE(hist.count, prev_hist);
      prev_hist = hist.count;
      if (hist.count > 0) {
        ASSERT_GE(hist.min, 0);
        ASSERT_LE(hist.min, hist.max);
        ASSERT_LT(hist.max, 1024);
        ASSERT_GE(hist.mean, 0.0);
      }
    }
  });

  for (auto& t : writers) t.join();
  done.store(true);
  reader.join();
  EXPECT_GT(snapshots, 0u);

  // Quiescent: the view holds every recorded value.
  const auto final_snap = reg.Snapshot();
  EXPECT_EQ(final_snap.counters[0].value, kWriters * kPerWriter);
  EXPECT_EQ(final_snap.histograms[0].count, kWriters * kPerWriter);
  EXPECT_EQ(final_snap.histograms[0].max, 1023);
}

// --- SnapshotPublisher ----------------------------------------------

TEST(SnapshotPublisherTest, DeltasTelescopeToFinalTotal) {
  MetricsRegistry reg;
  const CounterId c = reg.Counter("t.frames");
  reg.SetShardCount(1);

  SnapshotOptions options;
  options.interval = std::chrono::milliseconds(10);
  SnapshotPublisher publisher(reg, options);
  publisher.Start();
  for (int i = 0; i < 40; ++i) {
    reg.shard(0).Add(c, 7);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  publisher.Stop();

  const auto history = publisher.History();
  ASSERT_GE(history.size(), 2u);  // several ticks + the final flush
  std::uint64_t seq = 0, delta_sum = 0;
  for (const auto& snap : history) {
    EXPECT_EQ(snap.seq, ++seq);
    delta_sum += snap.counter_deltas[0];
    EXPECT_EQ(snap.final_flush, &snap == &history.back());
  }
  // The identity the external validator enforces, in-process: deltas
  // telescope to the exact final total.
  EXPECT_EQ(delta_sum, 40u * 7u);
  EXPECT_EQ(history.back().counters[0].value, 40u * 7u);
}

TEST(SnapshotPublisherTest, PreSnapshotHookRunsBeforeEveryBuild) {
  // The hook is how DecodeService republishes its atomics; it must
  // run before each snapshot including the final one.
  MetricsRegistry reg;
  const CounterId c = reg.Counter("t.synced");
  reg.SetShardCount(1);
  std::atomic<std::uint64_t> syncs{0};
  SnapshotOptions options;
  options.interval = std::chrono::milliseconds(5);
  options.pre_snapshot = [&] { reg.shard(0).Set(c, ++syncs); };
  SnapshotPublisher publisher(reg, options);
  publisher.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  publisher.Stop();
  EXPECT_GE(syncs.load(), 2u);
  EXPECT_EQ(publisher.History().back().counters[0].value, syncs.load());
}

TEST(SnapshotPublisherTest, WritesLatestAndHistoryFiles) {
  MetricsRegistry reg;
  const CounterId c = reg.Counter("t.frames");
  reg.SetShardCount(1);
  reg.shard(0).Add(c, 5);

  SnapshotOptions options;
  options.interval = std::chrono::hours(1);  // only explicit publishes
  options.latest_json_path = TempPath("snap_latest.json");
  options.history_jsonl_path = TempPath("snap_history.jsonl");
  SnapshotPublisher publisher(reg, options);
  publisher.PublishNow(false);
  reg.shard(0).Add(c, 3);
  // Never Start()ed: Stop() just publishes the final snapshot — the
  // shard coordinator's fork-safe single-threaded mode — and makes
  // the destructor a no-op.
  publisher.Stop();

  std::ifstream latest(options.latest_json_path);
  ASSERT_TRUE(latest.good());
  std::stringstream latest_text;
  latest_text << latest.rdbuf();
  const auto doc = util::JsonValue::Parse(latest_text.str());
  EXPECT_EQ(doc.At("schema").AsString(), "cldpc-metrics-snapshot-v1");
  EXPECT_TRUE(doc.At("final").AsBool());
  EXPECT_EQ(doc.At("counters").At("t.frames").At("total").AsUint(), 8u);
  EXPECT_EQ(doc.At("counters").At("t.frames").At("delta").AsUint(), 3u);

  std::ifstream history(options.history_jsonl_path);
  std::string line;
  std::uint64_t lines = 0, seq = 0;
  while (std::getline(history, line)) {
    const auto entry = util::JsonValue::Parse(line);
    EXPECT_EQ(entry.At("seq").AsUint(), ++seq);
    ++lines;
  }
  EXPECT_EQ(lines, 2u);
  std::remove(options.latest_json_path.c_str());
  std::remove(options.history_jsonl_path.c_str());
}

TEST(SnapshotPublisherTest, RingIsBounded) {
  MetricsRegistry reg;
  reg.Counter("t.c");
  reg.SetShardCount(1);
  SnapshotOptions options;
  options.interval = std::chrono::hours(1);
  options.ring_capacity = 3;
  SnapshotPublisher publisher(reg, options);
  for (int i = 0; i < 10; ++i) publisher.PublishNow(false);
  const auto history = publisher.History();
  ASSERT_EQ(history.size(), 3u);
  EXPECT_EQ(history.front().seq, 8u);  // oldest dropped
  EXPECT_EQ(history.back().seq, 10u);
  EXPECT_EQ(publisher.published(), 10u);
}

TEST(SnapshotPublisherTest, EmergencyFlushOnShutdownRequest) {
  // The SIGINT satellite: once the cooperative shutdown flag is up,
  // the next tick writes a complete, valid cldpc-metrics-v1 document
  // so a process that dies before Stop() still leaves metrics behind.
  MetricsRegistry reg;
  const CounterId c = reg.Counter("t.frames");
  const HistogramId h = reg.Hist("t.lat", Determinism::kWallClock, "us");
  reg.SetShardCount(1);
  reg.shard(0).Add(c, 12);
  reg.shard(0).Record(h, 100);
  reg.shard(0).Record(h, 3000);

  SnapshotOptions options;
  options.interval = std::chrono::hours(1);
  options.emergency_metrics_json = TempPath("snap_emergency.json");
  SnapshotPublisher publisher(reg, options);

  publisher.PublishNow(false);
  EXPECT_FALSE(std::ifstream(options.emergency_metrics_json).good());

  util::RequestShutdownForTest(true);
  publisher.PublishNow(false);
  util::RequestShutdownForTest(false);

  std::ifstream in(options.emergency_metrics_json);
  ASSERT_TRUE(in.good());
  std::stringstream text;
  text << in.rdbuf();
  const auto doc = util::JsonValue::Parse(text.str());
  EXPECT_EQ(doc.At("schema").AsString(), "cldpc-metrics-v1");
  EXPECT_EQ(doc.At("counters").At("t.frames").AsUint(), 12u);
  EXPECT_EQ(doc.At("histograms").At("t.lat").At("count").AsUint(), 2u);
  // The emergency doc carries the same bucket bins, summing to count.
  std::uint64_t bin_sum = 0;
  for (const auto& bin : doc.At("histograms").At("t.lat").At("bins").AsArray())
    bin_sum += bin.AsArray()[1].AsUint();
  EXPECT_EQ(bin_sum, 2u);
  std::remove(options.emergency_metrics_json.c_str());
}

TEST(SnapshotPublisherTest, QuiescentEmergencyDocMatchesFinalExport) {
  // Both documents come from the one cldpc-metrics-v1 writer and the
  // same histogram buckets: after quiescence the emergency flush must
  // equal the final export in every field, bins and quantiles too.
  MetricsRegistry reg;
  const CounterId frames = reg.Counter("t.frames");
  const CounterId lanes = reg.Counter("t.lanes", Determinism::kScheduling);
  const HistogramId h = reg.Hist("t.lat", Determinism::kWallClock, "us");
  const HistogramId iters = reg.Hist("t.iters", Determinism::kStable, "it");
  reg.SetShardCount(2);
  for (std::size_t s = 0; s < 2; ++s) {
    reg.shard(s).Add(frames, 10 + s);
    reg.shard(s).Add(lanes, 3);
    for (std::int64_t v : {0, 7, 7, 100, 3000})
      reg.shard(s).Record(h, v + static_cast<std::int64_t>(s));
    reg.shard(s).Record(iters, 12, 4);
  }
  reg.SetGauge("t.rate", 123.25);

  SnapshotOptions options;
  options.interval = std::chrono::hours(1);
  options.emergency_metrics_json = TempPath("snap_emergency_vs_final.json");
  SnapshotPublisher publisher(reg, options);
  util::RequestShutdownForTest(true);
  publisher.PublishNow(false);
  util::RequestShutdownForTest(false);

  std::ifstream in(options.emergency_metrics_json);
  ASSERT_TRUE(in.good());
  std::stringstream text;
  text << in.rdbuf();
  const auto emergency = util::JsonValue::Parse(text.str());
  std::ostringstream final_text;
  WriteMetricsJson(reg.Snapshot(), final_text);
  const auto exact = util::JsonValue::Parse(final_text.str());

  for (const char* section : {"schema", "counters", "histograms", "gauges",
                              "nondeterministic"}) {
    EXPECT_EQ(emergency.At(section).Serialize(), exact.At(section).Serialize())
        << section;
  }
  std::remove(options.emergency_metrics_json.c_str());
}

}  // namespace
}  // namespace cldpc::obs
