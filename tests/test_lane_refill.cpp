// Lane refill (ldpc/batched_lane_impl.inc): a lane-batched decoder
// keeps one lane group standing and reloads each lane whose frame
// finished with the next frame. Every frame must still come out byte
// for byte as the scalar oracle decodes it alone — on every lane
// policy, every dispatch tier, any frame count, any mix of fast and
// slow frames, and any way the feed chunks the frames or stalls.
#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "channel/awgn.hpp"
#include "codes/catalog.hpp"
#include "engine/sim_engine.hpp"
#include "ldpc/core/dispatch.hpp"
#include "ldpc/core/registry.hpp"
#include "ldpc/encoder.hpp"
#include "obs/decode_sink.hpp"
#include "obs/metrics.hpp"
#include "qc/small_codes.hpp"
#include "util/rng.hpp"

namespace cldpc::ldpc {
namespace {

using core::Isa;

constexpr int kIters = 18;
const std::size_t kFrameCounts[] = {1, 7, 8, 31, 32, 33, 100};

const LdpcCode& SmallCode() {
  static const auto qc = qc::MakeSmallQcCode();
  static const LdpcCode code(qc.Expand(), qc.q());
  return code;
}

/// 100 frames alternating between a channel where decoding often
/// fails (2.5 dB: all kIters iterations) and a clean one (6 dB: one
/// iteration), so fast lanes refill next to slow ones.
const std::vector<double>& MixedFrames() {
  static const std::vector<double> llrs = [] {
    const LdpcCode& code = SmallCode();
    const Encoder encoder(code);
    std::vector<double> all;
    std::vector<std::uint8_t> info(code.k());
    for (std::size_t f = 0; f < 100; ++f) {
      Xoshiro256pp rng(DeriveSeed(31, 0, f, 1));
      for (auto& b : info) b = rng.NextBit() ? 1 : 0;
      const double ebn0 = f % 2 == 0 ? 2.5 : 6.0;
      const auto frame = channel::TransmitBpskAwgn(
          encoder.Encode(info), ebn0, code.Rate(), DeriveSeed(31, 0, f, 2));
      all.insert(all.end(), frame.begin(), frame.end());
    }
    return all;
  }();
  return llrs;
}

std::vector<Isa> UsableTiers() {
  std::vector<Isa> tiers;
  for (const Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512})
    if (core::IsaAvailable(isa)) tiers.push_back(isa);
  return tiers;
}

/// Restores the dispatch tier a test forced.
struct TierGuard {
  Isa original = core::DetectIsa();
  ~TierGuard() { core::ForceIsaForTesting(original); }
};

/// One lane policy: its batched spec (lane cap appended) and the
/// oracle that decodes each frame alone. The i8 lanes match the
/// scalar fixed decoder (reached through both fixed-layered-nms-i8
/// and fixed-layered-nms:batch=N), the double lanes the scalar
/// layered one; f32 has no scalar twin, so its oracle is a one-lane
/// group per frame, which no other frame ever shares.
struct LanePolicy {
  const char* name;
  std::string batched;
  std::string oracle;
};

std::vector<LanePolicy> Policies(bool early_termination) {
  const std::string p = "iters=" + std::to_string(kIters) +
                        ",et=" + (early_termination ? "1" : "0");
  return {
      {"double", "layered-nms:alpha=1.23," + p, "layered-nms:alpha=1.23," + p},
      {"f32", "layered-nms-f32:alpha=1.23," + p,
       "layered-nms-f32:alpha=1.23,batch=1," + p},
      {"fixed", "fixed-layered-nms:" + p, "fixed-layered-nms:" + p},
      {"i8", "fixed-layered-nms-i8:" + p, "fixed-layered-nms:" + p},
  };
}

std::vector<DecodeResult> OracleResults(const std::string& spec) {
  const LdpcCode& code = SmallCode();
  const auto decoder = MakeDecoder(code, spec);
  const std::size_t n = code.n();
  const auto& llrs = MixedFrames();
  std::vector<DecodeResult> results;
  for (std::size_t f = 0; f < llrs.size() / n; ++f)
    results.push_back(decoder->Decode({llrs.data() + f * n, n}));
  return results;
}

void ExpectSameResult(const DecodeResult& got, const DecodeResult& want,
                      const std::string& what) {
  EXPECT_EQ(got.bits, want.bits) << what;
  EXPECT_EQ(got.converged, want.converged) << what;
  EXPECT_EQ(got.iterations_run, want.iterations_run) << what;
}

/// A feed over the first `frames` mixed frames that hands them out in
/// chunks following `pattern` (cycled): p frames (capped by the
/// request), or for p == 0 "nothing now" while the decoder has frames
/// in flight. Records every delivery by stream number, and the most
/// frames the decoder ever held undelivered.
class ChoppyFeed final : public FrameFeed {
 public:
  ChoppyFeed(std::size_t frames, std::vector<std::size_t> pattern)
      : frames_(frames), pattern_(std::move(pattern)), got_(frames) {}

  FrameChunk Pull(std::size_t max_frames, bool idle) override {
    EXPECT_GE(max_frames, 1u);
    if (next_ == frames_) return {};
    std::size_t p = pattern_[step_++ % pattern_.size()];
    if (p == 0) {
      if (!idle) {
        ++stalls_;
        return {};
      }
      p = 1;  // an idle decoder must get a frame or the end
    }
    const std::size_t n = SmallCode().n();
    const std::size_t count = std::min({p, max_frames, frames_ - next_});
    const FrameChunk chunk{{MixedFrames().data() + next_ * n, count * n},
                           count};
    next_ += count;
    outstanding_ += count;
    max_outstanding_ = std::max(max_outstanding_, outstanding_);
    return chunk;
  }

  bool Deliver(std::uint64_t seq, const DecodeResult& result) override {
    EXPECT_LT(seq, next_) << "delivered a frame never pulled";
    EXPECT_FALSE(got_.at(seq).has_value()) << "frame " << seq << " twice";
    got_.at(seq) = result;
    --outstanding_;
    return true;
  }

  std::uint64_t Remaining() const override { return frames_ - next_; }

  const std::vector<std::optional<DecodeResult>>& got() const {
    return got_;
  }
  std::size_t stalls() const { return stalls_; }
  std::size_t max_outstanding() const { return max_outstanding_; }

 private:
  std::size_t frames_;
  std::vector<std::size_t> pattern_;
  std::size_t next_ = 0;
  std::size_t step_ = 0;
  std::size_t stalls_ = 0;
  std::size_t outstanding_ = 0;
  std::size_t max_outstanding_ = 0;
  std::vector<std::optional<DecodeResult>> got_;
};

TEST(LaneRefill, MixedFramesMixConvergence) {
  // The fixture must really put 1-iteration and capped frames side by
  // side, or the refill paths below go unexercised.
  const auto oracle = OracleResults("fixed-layered-nms:iters=18");
  std::size_t fast = 0, capped = 0;
  for (const auto& r : oracle) {
    fast += r.iterations_run == 1;
    capped += r.iterations_run == kIters && !r.converged;
  }
  EXPECT_GE(fast, 10u);
  EXPECT_GE(capped, 5u);
}

TEST(LaneRefill, DecodeBatchMatchesOracleOnEveryPolicyAndTier) {
  const TierGuard guard;
  const LdpcCode& code = SmallCode();
  const std::size_t n = code.n();
  for (const bool et : {true, false}) {
    for (const auto& policy : Policies(et)) {
      const auto oracle = OracleResults(policy.oracle);
      for (const Isa isa : UsableTiers()) {
        core::ForceIsaForTesting(isa);
        for (const int batch : {8, 32}) {
          const auto decoder = MakeDecoder(
              code, policy.batched + ",batch=" + std::to_string(batch));
          for (const std::size_t frames : kFrameCounts) {
            const auto results = decoder->DecodeBatch(
                {MixedFrames().data(), frames * n}, frames);
            ASSERT_EQ(results.size(), frames);
            for (std::size_t f = 0; f < frames; ++f)
              ExpectSameResult(results[f], oracle[f],
                               std::string(policy.name) + " et=" +
                                   (et ? "1" : "0") + " " +
                                   core::IsaName(isa) + " batch=" +
                                   std::to_string(batch) + " frames=" +
                                   std::to_string(frames) + " frame " +
                                   std::to_string(f));
          }
        }
      }
    }
  }
}

TEST(LaneRefill, ChoppyFeedMatchesOracleOnEveryPolicyAndTier) {
  const TierGuard guard;
  const LdpcCode& code = SmallCode();
  // Uneven chunks, with stalls while lanes are busy.
  const std::vector<std::size_t> pattern = {3, 0, 1, 0, 0, 7, 2, 0, 13, 1};
  for (const bool et : {true, false}) {
    for (const auto& policy : Policies(et)) {
      const auto oracle = OracleResults(policy.oracle);
      for (const Isa isa : UsableTiers()) {
        core::ForceIsaForTesting(isa);
        for (const int batch : {8, 32}) {
          const auto decoder = MakeDecoder(
              code, policy.batched + ",batch=" + std::to_string(batch));
          for (const std::size_t frames : kFrameCounts) {
            ChoppyFeed feed(frames, pattern);
            decoder->DecodeStream(feed);
            const std::string what =
                std::string(policy.name) + " et=" + (et ? "1" : "0") + " " +
                core::IsaName(isa) + " batch=" + std::to_string(batch) +
                " frames=" + std::to_string(frames);
            EXPECT_EQ(feed.Remaining(), 0u) << what;
            if (frames > 1) {
              EXPECT_GT(feed.stalls(), 0u) << what;
            }
            for (std::size_t f = 0; f < frames; ++f) {
              ASSERT_TRUE(feed.got()[f].has_value()) << what << " frame " << f;
              ExpectSameResult(*feed.got()[f], oracle[f],
                               what + " frame " + std::to_string(f));
            }
          }
        }
      }
    }
  }
}

TEST(LaneRefill, GroupNeverHoldsMoreFramesThanTheLaneCap) {
  // batch=8 runs a 16-lane int8 group; its lanes from 8 up stay dead.
  const auto oracle = OracleResults("fixed-layered-nms:iters=18");
  for (const char* spec : {"fixed-layered-nms-i8:iters=18,batch=8",
                           "fixed-layered-nms:iters=18,batch=8"}) {
    const auto decoder = MakeDecoder(SmallCode(), spec);
    obs::MetricsRegistry registry;
    const auto ids = obs::RegisterDecodeMetrics(registry);
    registry.SetShardCount(1);
    ChoppyFeed feed(20, {20});  // every frame the decoder asks for
    {
      const obs::ScopedDecodeSink sink(&registry.shard(0), &ids);
      decoder->DecodeStream(feed);
    }
    EXPECT_EQ(feed.max_outstanding(), 8u) << spec;
    // Occupancy counts the usable lanes, never more than the cap.
    EXPECT_EQ(registry.MergedCounter(ids.lanes_filled), 8u) << spec;
    EXPECT_EQ(registry.MergedCounter(ids.lane_capacity), 8u) << spec;
    for (std::size_t f = 0; f < 20; ++f) {
      ASSERT_TRUE(feed.got()[f].has_value()) << spec << " frame " << f;
      ExpectSameResult(*feed.got()[f], oracle[f],
                       std::string(spec) + " frame " + std::to_string(f));
    }
  }
}

/// Ends the stream from Deliver after `stop_after` frames.
class StoppingFeed final : public FrameFeed {
 public:
  explicit StoppingFeed(std::size_t stop_after) : stop_after_(stop_after) {}

  FrameChunk Pull(std::size_t max_frames, bool) override {
    const std::size_t n = SmallCode().n();
    const std::size_t count = std::min<std::size_t>(max_frames, 100 - next_);
    const FrameChunk chunk{{MixedFrames().data() + next_ * n, count * n},
                           count};
    next_ += count;
    return chunk;
  }

  bool Deliver(std::uint64_t, const DecodeResult&) override {
    ++delivered_;
    return delivered_ < stop_after_;
  }

  std::uint64_t Remaining() const override { return 100 - next_; }
  std::size_t delivered() const { return delivered_; }

 private:
  std::size_t stop_after_;
  std::size_t next_ = 0;
  std::size_t delivered_ = 0;
};

TEST(LaneRefill, DeliverCanEndTheStream) {
  for (const auto& policy : Policies(true)) {
    const auto decoder = MakeDecoder(SmallCode(), policy.batched + ",batch=8");
    StoppingFeed feed(5);
    decoder->DecodeStream(feed);
    EXPECT_EQ(feed.delivered(), 5u) << policy.name;
  }
  // The base implementation (a scalar decoder) honours it too.
  const auto scalar = MakeDecoder(SmallCode(), "layered-nms");
  StoppingFeed feed(5);
  scalar->DecodeStream(feed);
  EXPECT_EQ(feed.delivered(), 5u);
}

TEST(LaneRefill, ScalarDecodersStreamThroughDecodeBatch) {
  const auto oracle = OracleResults("fixed-layered-nms:iters=18");
  const auto decoder = MakeDecoder(SmallCode(), "fixed-layered-nms:iters=18");
  ChoppyFeed feed(33, {4, 9, 1});
  decoder->DecodeStream(feed);
  for (std::size_t f = 0; f < 33; ++f) {
    ASSERT_TRUE(feed.got()[f].has_value()) << f;
    ExpectSameResult(*feed.got()[f], oracle[f], "frame " + std::to_string(f));
  }
}

/// Hands out the mixed frames, the first pull only `first` of them and
/// the second (still filling the first group) none, so the group runs
/// its first iteration with idle lanes and pulls again at that
/// iteration's boundary; `on_pull` runs at every pull from there on.
class ProbeFeed final : public FrameFeed {
 public:
  ProbeFeed(std::size_t first, std::function<void()> on_pull)
      : first_(first), on_pull_(std::move(on_pull)) {}

  FrameChunk Pull(std::size_t max_frames, bool) override {
    const std::size_t pull = pulls_++;
    if (pull == 1) return {};
    if (pull > 1) on_pull_();
    const std::size_t n = SmallCode().n();
    const std::size_t count = std::min(
        {pull == 0 ? first_ : max_frames, max_frames, kFrames - next_});
    const FrameChunk chunk{{MixedFrames().data() + next_ * n, count * n},
                           count};
    next_ += count;
    return chunk;
  }

  bool Deliver(std::uint64_t, const DecodeResult&) override { return true; }

  std::uint64_t Remaining() const override { return kFrames - next_; }

 private:
  static constexpr std::size_t kFrames = 100;
  std::size_t first_;
  std::function<void()> on_pull_;
  std::size_t pulls_ = 0;
  std::size_t next_ = 0;
};

std::uint64_t CounterValue(const obs::MetricsView& view,
                           const std::string& name) {
  for (const auto& c : view.counters)
    if (c.name == name) return c.value;
  ADD_FAILURE() << "no counter " << name;
  return 0;
}

TEST(LaneTelemetry, LiveSnapshotSeesTheStandingStream) {
  // A standing stream reports each iteration as it ends, so a live
  // snapshot taken while it runs already sees its lane work.
  obs::MetricsRegistry registry;
  const auto ids = obs::RegisterDecodeMetrics(registry);
  registry.SetShardCount(1);
  const auto decoder = MakeDecoder(SmallCode(), "fixed-layered-nms-i8:batch=8");
  std::uint64_t first_seen = 0;
  ProbeFeed feed(4, [&] {
    if (first_seen == 0)
      first_seen =
          CounterValue(registry.Snapshot(), "decode.lane_iterations_run");
  });
  {
    const obs::ScopedDecodeSink sink(&registry.shard(0), &ids);
    decoder->DecodeStream(feed);
  }
  EXPECT_GT(first_seen, 0u);
  EXPECT_GT(registry.MergedCounter(ids.msg_clamp_events), 0u);
}

TEST(LaneTelemetry, ThrowingFeedKeepsTheSaturationCounts) {
  // The feed fails at the first iteration boundary; the iteration it
  // ran still reports its int8 saturation events.
  obs::MetricsRegistry registry;
  const auto ids = obs::RegisterDecodeMetrics(registry);
  registry.SetShardCount(1);
  const auto decoder = MakeDecoder(
      SmallCode(), "fixed-layered-nms-i8:batch=8,wm=4,wapp=5,scale=8");
  ProbeFeed feed(4, [] { throw std::runtime_error("feed failed"); });
  {
    const obs::ScopedDecodeSink sink(&registry.shard(0), &ids);
    EXPECT_THROW(decoder->DecodeStream(feed), std::runtime_error);
  }
  const auto view = registry.Snapshot();
  EXPECT_GT(CounterValue(view, "decode.i8_msg_clamps"), 0u);
  EXPECT_EQ(CounterValue(view, "decode.lane_iterations_run"), 8u);
}

TEST(LaneTelemetry, DeadLanesCountNothing) {
  // batch=8 runs a 16-lane int8 group whose upper 8 lanes are dead. A
  // one-frame decode first leaves its 1-lane layout in the buffers;
  // the dead lanes must still add no saturation events.
  const auto counts = [](bool decode_one_first) {
    const auto decoder = MakeDecoder(
        SmallCode(), "fixed-layered-nms-i8:batch=8,wm=4,wapp=5,scale=8");
    const std::size_t n = SmallCode().n();
    if (decode_one_first) decoder->Decode({MixedFrames().data() + 9 * n, n});
    obs::MetricsRegistry registry;
    const auto ids = obs::RegisterDecodeMetrics(registry);
    registry.SetShardCount(1);
    {
      const obs::ScopedDecodeSink sink(&registry.shard(0), &ids);
      decoder->DecodeBatch({MixedFrames().data(), 8 * n}, 8);
    }
    return std::pair(registry.MergedCounter(ids.msg_clamp_events),
                     registry.MergedCounter(ids.bn_sat_events));
  };
  const auto fresh = counts(false);
  EXPECT_GT(fresh.first, 0u);
  EXPECT_EQ(counts(true), fresh);
}

/// Lane utilisation on the benchmark's waterfall configuration: C2 at
/// 3.7 dB, one thread, 128 frames, curve seed 8, 32 int8 lanes. Without
/// refill a group ran until its slowest frame (utilisation ~0.37);
/// with it only the drain at the end of the point idles lanes.
TEST(LaneRefill, UtilisationOnTheWaterfallConfiguration) {
  const auto system = codes::LoadCode("c2");
  obs::MetricsRegistry registry;
  sim::BerConfig config;
  config.ebn0_db = {3.7};
  config.base_seed = 8;
  config.max_frames = 128;
  config.min_frame_errors = std::numeric_limits<std::uint64_t>::max();
  config.threads = 1;
  config.batch_frames = 32;
  config.metrics = &registry;
  engine::SimEngine engine(*system.code, *system.encoder, config);
  const auto curve = engine.Run(MakeDecoderFactory(
      *system.code, "fixed-layered-nms-i8:batch=32,iters=18,et=1,wm=6"));
  std::uint64_t run = 0, used = 0;
  for (const auto& c : registry.Snapshot().counters) {
    if (c.name == "decode.lane_iterations_run") run = c.value;
    if (c.name == "decode.lane_iterations_used") used = c.value;
  }
  ASSERT_GT(run, 0u);
  // Every lane-iteration that carried a frame is one of the curve's
  // iterations: nothing was abandoned on this fixed-length point.
  EXPECT_EQ(used, curve.points.at(0).iterations_total);
  EXPECT_EQ(run % 32, 0u);
  EXPECT_GE(static_cast<double>(used) / static_cast<double>(run), 0.70);
}

}  // namespace
}  // namespace cldpc::ldpc
