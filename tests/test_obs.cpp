// Tests for the decode-telemetry layer (src/obs/): sharded registry
// merge determinism, engine integration (metrics never perturb the
// curve; deterministic metrics are thread-count-invariant), disabled
// path, exporter well-formedness, and the opt-in alloc probe (this
// test binary compiles the real probe TU in — see CMakeLists.txt).
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "engine/sim_engine.hpp"
#include "ldpc/core/registry.hpp"
#include "obs/alloc_probe.hpp"
#include "obs/decode_sink.hpp"
#include "obs/export.hpp"
#include "qc/small_codes.hpp"
#include "util/contracts.hpp"

namespace cldpc::obs {
namespace {

// --- Registry core --------------------------------------------------

TEST(MetricsRegistry, NamesDeduplicate) {
  MetricsRegistry reg;
  const CounterId a = reg.Counter("x.count");
  const CounterId b = reg.Counter("x.count");
  EXPECT_EQ(a.v, b.v);
  const HistogramId h = reg.Hist("x.hist", Determinism::kWallClock, "us");
  const HistogramId h2 = reg.Hist("x.hist", Determinism::kWallClock, "us");
  EXPECT_EQ(h.v, h2.v);
}

TEST(MetricsRegistry, TagMismatchThrows) {
  MetricsRegistry reg;
  reg.Counter("x", Determinism::kStable);
  EXPECT_THROW(reg.Counter("x", Determinism::kScheduling),
               ContractViolation);
  reg.Hist("h", Determinism::kStable, "us");
  EXPECT_THROW(reg.Hist("h", Determinism::kWallClock, "us"),
               ContractViolation);
}

TEST(MetricsRegistry, MergeIsShardOrderInvariant) {
  // Record the same multiset of facts distributed over shards two
  // different ways; the merged view must be identical (the property
  // that makes kStable metrics thread-count-invariant).
  const auto fill = [](MetricsRegistry& reg, bool flipped) {
    const CounterId c = reg.Counter("c");
    const HistogramId h = reg.Hist("h", Determinism::kStable, "items");
    reg.SetShardCount(3);
    Shard& first = reg.shard(flipped ? 2 : 0);
    Shard& second = reg.shard(1);
    first.Add(c, 5);
    first.Record(h, 7);
    first.Record(h, 7);
    second.Add(c, 11);
    second.Record(h, -2);
  };
  MetricsRegistry a;
  fill(a, false);
  MetricsRegistry b;
  fill(b, true);
  const MetricsView ma = a.Snapshot();
  const MetricsView mb = b.Snapshot();
  ASSERT_EQ(ma.counters.size(), 1u);
  EXPECT_EQ(ma.counters[0].value, 16u);
  EXPECT_EQ(ma.counters[0].value, mb.counters[0].value);
  ASSERT_EQ(ma.histograms.size(), 1u);
  EXPECT_EQ(ma.histograms[0].bins, mb.histograms[0].bins);
}

TEST(MetricsRegistry, GrowingShardsPreservesData) {
  MetricsRegistry reg;
  const CounterId c = reg.Counter("c");
  reg.SetShardCount(1);
  reg.shard(0).Add(c, 3);
  reg.SetShardCount(4);
  reg.shard(3).Add(c, 4);
  EXPECT_EQ(reg.MergedCounter(c), 7u);
}

TEST(MetricsRegistry, GaugesOverwriteByName) {
  MetricsRegistry reg;
  reg.SetGauge("g", 1.0);
  reg.SetGauge("g", 2.5);
  reg.SetGauge("other", -1.0);
  const auto merged = reg.Snapshot();
  ASSERT_EQ(merged.gauges.size(), 2u);
  EXPECT_EQ(merged.gauges[0].name, "g");
  EXPECT_DOUBLE_EQ(merged.gauges[0].value, 2.5);
}

// --- Disabled path --------------------------------------------------

TEST(DecodeSink, NullByDefaultAndAfterNullScope) {
  EXPECT_EQ(CurrentDecodeSink(), nullptr);
  {
    ScopedDecodeSink scope(nullptr, nullptr);
    EXPECT_EQ(CurrentDecodeSink(), nullptr);
  }
  EXPECT_EQ(CurrentDecodeSink(), nullptr);
}

TEST(DecodeSink, InstallsAndRestores) {
  MetricsRegistry reg;
  const DecodeMetricIds ids = RegisterDecodeMetrics(reg);
  reg.SetShardCount(1);
  {
    ScopedDecodeSink scope(&reg.shard(0), &ids);
    ASSERT_NE(CurrentDecodeSink(), nullptr);
    CurrentDecodeSink()->shard->Add(ids.lane_groups, 2);
  }
  EXPECT_EQ(CurrentDecodeSink(), nullptr);
  EXPECT_EQ(reg.MergedCounter(ids.lane_groups), 2u);
}

TEST(ScopedTimerTest, NullShardIsInert) {
  // Must not crash or record anywhere; this is the disabled hot path.
  for (int i = 0; i < 1000; ++i) {
    ScopedTimer t(nullptr, HistogramId{});
  }
  ScopedTrace s(nullptr, "x");
  s.Arg("k", 1);
}

// --- Engine integration ---------------------------------------------

struct Fixture {
  ldpc::LdpcCode code{qc::MakeSmallQcCode().Expand()};
  ldpc::Encoder encoder{code};
};

Fixture& Shared() {
  static Fixture f;
  return f;
}

sim::BerConfig BaseConfig() {
  sim::BerConfig config;
  config.ebn0_db = {2.0, 4.0};
  config.max_frames = 48;
  config.min_frame_errors = 1000;  // never reached
  config.base_seed = 7;
  config.batch_frames = 8;
  return config;
}

sim::BerCurve RunWith(sim::BerConfig config, MetricsRegistry* reg,
                      const std::string& spec = "layered-nms:iters=10") {
  auto& f = Shared();
  config.metrics = reg;
  return engine::SimEngine(f.code, f.encoder, config)
      .Run(ldpc::MakeDecoderFactory(f.code, spec));
}

void ExpectIdentical(const sim::BerCurve& a, const sim::BerCurve& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].bit_errors.errors(),
              b.points[i].bit_errors.errors());
    EXPECT_EQ(a.points[i].frame_errors.errors(),
              b.points[i].frame_errors.errors());
    EXPECT_EQ(a.points[i].frames, b.points[i].frames);
    EXPECT_EQ(a.points[i].avg_iterations, b.points[i].avg_iterations);
  }
}

TEST(ObsEngine, MetricsDoNotPerturbTheCurve) {
  const auto off = RunWith(BaseConfig(), nullptr);
  MetricsRegistry reg;
  const auto on = RunWith(BaseConfig(), &reg);
  ExpectIdentical(off, on);
  MetricsRegistry traced;
  traced.EnableTracing();
  const auto with_trace = RunWith(BaseConfig(), &traced);
  ExpectIdentical(off, with_trace);
}

/// The deterministic (kStable) projection of a merged registry.
struct StableView {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string,
                        std::vector<std::pair<std::int64_t, std::uint64_t>>>>
      histograms;
};

StableView Stable(const MetricsRegistry& reg) {
  StableView view;
  const auto merged = reg.Snapshot();
  for (const auto& c : merged.counters)
    if (c.det == Determinism::kStable)
      view.counters.emplace_back(c.name, c.value);
  for (const auto& h : merged.histograms)
    if (h.det == Determinism::kStable)
      view.histograms.emplace_back(h.name, h.bins);
  return view;
}

TEST(ObsEngine, StableMetricsAreThreadCountInvariant) {
  MetricsRegistry ref_reg;
  auto config = BaseConfig();
  config.threads = 1;
  const auto reference = RunWith(config, &ref_reg);
  const auto ref_view = Stable(ref_reg);
  EXPECT_FALSE(ref_view.counters.empty());
  EXPECT_FALSE(ref_view.histograms.empty());

  for (const std::size_t threads : {2u, 4u, 8u}) {
    MetricsRegistry reg;
    config.threads = threads;
    const auto curve = RunWith(config, &reg);
    ExpectIdentical(reference, curve);
    const auto view = Stable(reg);
    EXPECT_EQ(ref_view.counters, view.counters) << threads << " threads";
    EXPECT_EQ(ref_view.histograms, view.histograms) << threads << " threads";
  }
}

TEST(ObsEngine, CountsMatchTheCurve) {
  MetricsRegistry reg;
  const auto curve = RunWith(BaseConfig(), &reg);
  std::uint64_t frames = 0;
  std::uint64_t frame_errors = 0;
  std::uint64_t bit_errors = 0;
  for (const auto& p : curve.points) {
    frames += p.frames;
    frame_errors += p.frame_errors.errors();
    bit_errors += p.bit_errors.errors();
  }
  const auto merged = reg.Snapshot();
  const auto counter = [&](const std::string& name) -> std::uint64_t {
    for (const auto& c : merged.counters)
      if (c.name == name) return c.value;
    ADD_FAILURE() << "no counter " << name;
    return 0;
  };
  EXPECT_EQ(counter("engine.frames"), frames);
  EXPECT_EQ(counter("engine.frame_errors"), frame_errors);
  EXPECT_EQ(counter("engine.bit_errors"), bit_errors);
  EXPECT_EQ(counter("engine.points"), curve.points.size());
  // The layered decoder reports syndrome-tracker work.
  EXPECT_GT(counter("decode.syndrome_bit_scans"), 0u);
  // The iterations histogram holds one sample per consumed frame.
  for (const auto& h : merged.histograms) {
    if (h.name == "decode.iterations") {
      EXPECT_EQ(h.count, frames);
    }
  }
}

TEST(ObsEngine, BatchedDecoderReportsLaneOccupancy) {
  MetricsRegistry reg;
  auto config = BaseConfig();
  config.batch_frames = 16;
  RunWith(config, &reg, "layered-nms-f32:batch=16,iters=10");
  const auto merged = reg.Snapshot();
  std::uint64_t groups = 0;
  std::uint64_t filled = 0;
  std::uint64_t capacity = 0;
  for (const auto& c : merged.counters) {
    if (c.name == "decode.lane_groups") groups = c.value;
    if (c.name == "decode.lanes_filled") filled = c.value;
    if (c.name == "decode.lane_capacity") capacity = c.value;
  }
  EXPECT_GT(groups, 0u);
  EXPECT_GT(filled, 0u);
  EXPECT_GE(capacity, filled);
}

// --- Exporters ------------------------------------------------------

/// Minimal JSON syntax checker (objects/arrays/strings/numbers/
/// true/false/null) — enough to prove the exporters emit well-formed
/// documents without a JSON dependency.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}
  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }
  bool Object() {
    ++pos_;  // {
    SkipWs();
    if (Peek('}')) return true;
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (!Expect(':')) return false;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek('}')) return true;
      if (!Expect(',')) return false;
    }
  }
  bool Array() {
    ++pos_;  // [
    SkipWs();
    if (Peek(']')) return true;
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek(']')) return true;
      if (!Expect(',')) return false;
    }
  }
  bool String() {
    if (!Expect('"')) return false;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    return Expect('"');
  }
  bool Number() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool Literal(const char* lit) {
    for (const char* p = lit; *p != '\0'; ++p) {
      if (pos_ >= s_.size() || s_[pos_] != *p) return false;
      ++pos_;
    }
    return true;
  }
  void SkipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  bool Peek(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool Expect(char c) { return Peek(c); }

  const std::string& s_;
  std::size_t pos_ = 0;
};

TEST(ObsExport, MetricsJsonBytesArePinned) {
  // The writer's exact bytes: registration order, the two-space
  // layout, %.12g doubles, exact bins, and the nondeterministic list
  // (non-kStable counters and histograms, then every gauge).
  MetricsRegistry reg;
  const CounterId frames = reg.Counter("t.frames");
  const CounterId lanes = reg.Counter("t.lanes", Determinism::kScheduling);
  const HistogramId iters = reg.Hist("t.iters", Determinism::kStable, "it");
  reg.SetShardCount(2);
  reg.shard(0).Add(frames, 7);
  reg.shard(1).Add(lanes, 3);
  reg.shard(0).Record(iters, 5);
  reg.shard(1).Record(iters, 5);
  reg.shard(1).Record(iters, 9);
  reg.shard(0).Record(iters, -1);
  reg.SetGauge("t.rate", 2.5);
  std::ostringstream os;
  WriteMetricsJson(reg.Snapshot(), os);
  EXPECT_EQ(os.str(),
            "{\n"
            "  \"schema\": \"cldpc-metrics-v1\",\n"
            "  \"counters\": {\n"
            "    \"t.frames\": 7,\n"
            "    \"t.lanes\": 3\n"
            "  },\n"
            "  \"histograms\": {\n"
            "    \"t.iters\": {\"unit\": \"it\", \"count\": 4, \"min\": -1, "
            "\"max\": 9, \"mean\": 4.5, \"p50\": 5, \"p90\": 9, \"p99\": 9, "
            "\"bins\": [[-1, 1], [5, 2], [9, 1]]}\n"
            "  },\n"
            "  \"gauges\": {\n"
            "    \"t.rate\": 2.5\n"
            "  },\n"
            "  \"nondeterministic\": [\"t.lanes\", \"t.rate\"]\n"
            "}\n");
}

TEST(ObsExport, MetricsJsonIsWellFormedWithRequiredKeys) {
  MetricsRegistry reg;
  const auto curve = RunWith(BaseConfig(), &reg);
  (void)curve;
  reg.SetGauge("engine.frames_per_second", 123.5);
  std::ostringstream os;
  WriteMetricsJson(reg.Snapshot(), os);
  const std::string json = os.str();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  for (const char* key :
       {"\"schema\": \"cldpc-metrics-v1\"", "\"counters\"",
        "\"histograms\"", "\"gauges\"", "\"nondeterministic\"",
        "\"engine.frames\"", "\"decode.iterations\"", "\"p99\"",
        "\"bins\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

TEST(ObsExport, TraceJsonIsWellFormed) {
  MetricsRegistry reg;
  reg.EnableTracing();
  auto config = BaseConfig();
  config.threads = 2;
  RunWith(config, &reg);
  ASSERT_FALSE(reg.CollectTrace().empty());
  std::ostringstream os;
  WriteTraceJson(reg, os);
  const std::string json = os.str();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"M\""), std::string::npos);
  EXPECT_NE(json.find("\"batch\""), std::string::npos);
}

TEST(ObsExport, TracingOffProducesNoEvents) {
  MetricsRegistry reg;
  RunWith(BaseConfig(), &reg);
  EXPECT_TRUE(reg.CollectTrace().empty());
}

TEST(ObsExport, TableTagsNondeterministicMetrics) {
  MetricsRegistry reg;
  RunWith(BaseConfig(), &reg);
  const auto table = RenderMetricsTable(reg.Snapshot());
  EXPECT_NE(table.find("engine.frames"), std::string::npos);
  EXPECT_NE(table.find("[scheduling]"), std::string::npos);
  EXPECT_NE(table.find("[wall-clock]"), std::string::npos);
}

// --- Alloc probe ----------------------------------------------------

TEST(AllocProbe, ActiveAndCounting) {
  // CMakeLists compiles the real probe TU into this test binary.
  ASSERT_TRUE(AllocProbeActive());
  const AllocStats before = AllocSnapshot();
  auto* p = new std::vector<int>(1024);
  const AllocStats delta = AllocDelta(before);
  delete p;
  EXPECT_GE(delta.count, 1u);
  EXPECT_GE(delta.bytes, sizeof(std::vector<int>));
}

TEST(AllocProbe, RecordAllocatesNothing) {
  // Histogram storage is sized by SetShardCount; recording any number
  // of distinct values afterwards is bucket adds only.
  ASSERT_TRUE(AllocProbeActive());
  MetricsRegistry reg;
  const HistogramId h = reg.Hist("t.lat", Determinism::kWallClock, "us");
  reg.SetShardCount(1);
  Shard& shard = reg.shard(0);
  const AllocStats before = AllocSnapshot();
  for (std::int64_t v = 0; v < 10000; ++v) shard.Record(h, v * 977 - 300);
  const AllocStats delta = AllocDelta(before);
  EXPECT_EQ(delta.count, 0u);
  EXPECT_EQ(reg.Snapshot().histograms[0].count, 10000u);
}

}  // namespace
}  // namespace cldpc::obs
