// The int8 lane datapath and runtime ISA dispatch contracts:
//
//  1. Oracle identity: the compressed i8 batched decoder matches a
//     stored-per-edge scalar int8 reference (written here from the
//     FixedI8Datapath semantics alone) bit for bit — so compression
//     and lane batching change nothing about the arithmetic.
//  2. Width-contract identity: under the enforced contract (wm <= 8,
//     wapp <= 14, norm <= 1) the i8 decoder is byte-identical to the
//     int32 FixedLayeredMinSumDecoder per frame, across batch sizes
//     and early-termination settings; through the engine, the BER
//     curve equals the int32 fixed curve exactly at every thread
//     count.
//  3. Spec validation: widths outside the contract are loud errors.
//  4. Dispatch: the scalar kernel table always exists, every usable
//     ISA tier produces byte-identical decodes, and the forced-ISA
//     hook + name grammar behave.
//  5. Saturation counters: with a sink installed the i8 decoder
//     reports clamp events without changing any decode result, and
//     the counts are exact (pinned per lane-group width and tier).
//  6. Quantize-in: on every tier the fixed lane paths load exactly
//     the scalar fixed decoder's channel words, including ties,
//     saturation boundaries, huge values, infinities and NaN.
#include "ldpc/batched_layered_decoder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "channel/awgn.hpp"
#include "engine/sim_engine.hpp"
#include "ldpc/core/dispatch.hpp"
#include "ldpc/core/registry.hpp"
#include "ldpc/encoder.hpp"
#include "ldpc/fixed_layered_decoder.hpp"
#include "obs/decode_sink.hpp"
#include "qc/small_codes.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace cldpc::ldpc {
namespace {

const LdpcCode& SmallCode() {
  static const auto qc = qc::MakeSmallQcCode();
  static const LdpcCode code(qc.Expand(), qc.q());
  return code;
}

std::vector<double> NoisyFrame(const LdpcCode& code, double ebn0,
                               std::uint64_t seed) {
  static const Encoder encoder(SmallCode());
  Xoshiro256pp rng(seed);
  std::vector<std::uint8_t> info(code.k());
  for (auto& b : info) b = rng.NextBit() ? 1 : 0;
  const auto cw = encoder.Encode(info);
  return channel::TransmitBpskAwgn(cw, ebn0, code.Rate(), seed ^ 0xBEEF);
}

std::vector<double> NoisyFrames(const LdpcCode& code, std::size_t count,
                                double ebn0, std::uint64_t base_seed) {
  std::vector<double> llrs;
  llrs.reserve(count * code.n());
  for (std::size_t f = 0; f < count; ++f) {
    const auto frame = NoisyFrame(code, ebn0, base_seed + f);
    llrs.insert(llrs.end(), frame.begin(), frame.end());
  }
  return llrs;
}

void ExpectSameResult(const DecodeResult& got, const DecodeResult& want,
                      const std::string& context) {
  EXPECT_EQ(got.bits, want.bits) << context;
  EXPECT_EQ(got.converged, want.converged) << context;
  EXPECT_EQ(got.iterations_run, want.iterations_run) << context;
}

// ---- 1. Stored-per-edge int8 oracle. ------------------------------

// A deliberately naive scalar int8 layered decoder: every check keeps
// its dc check-to-bit messages as literal int8 values (no compressed
// records, no lanes), APPs accumulate in int16, and every narrowing
// is an explicit symmetric saturation. Written straight from the
// datapath definition so it shares no kernel code with the
// implementation under test.
DecodeResult ReferenceI8Decode(const LdpcCode& code,
                               const FixedMinSumOptions& o,
                               std::span<const double> llr) {
  const auto& sched = code.schedule();
  const auto& dp = o.datapath;
  const LlrQuantizer quantizer(dp.channel_bits, dp.channel_scale);
  const std::int8_t kMax = 127;

  std::vector<std::int16_t> app(code.n());
  for (std::size_t n = 0; n < code.n(); ++n) {
    app[n] = static_cast<std::int16_t>(
        SaturateSymmetric(quantizer.Quantize(llr[n]), dp.app_bits));
  }
  std::vector<std::vector<std::int8_t>> msgs(sched.num_checks());
  for (std::size_t m = 0; m < sched.num_checks(); ++m)
    msgs[m].assign(sched.Degree(m), 0);

  DecodeResult result;
  std::vector<std::uint8_t> hard(code.n());
  const auto harden = [&] {
    for (std::size_t n = 0; n < code.n(); ++n)
      hard[n] = app[n] < 0 ? 1 : 0;
  };

  for (int iter = 1; iter <= o.iter.max_iterations; ++iter) {
    for (std::size_t m = 0; m < sched.num_checks(); ++m) {
      const std::size_t dc = sched.Degree(m);
      if (dc == 0) continue;
      const auto bits = sched.CheckBits(m);
      std::vector<std::int16_t> extr(dc);
      std::vector<std::int8_t> bc(dc);
      for (std::size_t i = 0; i < dc; ++i) {
        extr[i] = static_cast<std::int16_t>(app[bits[i]] - msgs[m][i]);
        bc[i] = static_cast<std::int8_t>(
            SaturateSymmetric(extr[i], dp.message_bits));
      }
      // The CN scan, longhand: two smallest magnitudes, where the
      // smallest sits (first occurrence), and the overall sign.
      std::int8_t min1 = kMax, min2 = kMax;
      std::size_t argmin = 0;
      bool sign_product_negative = false;
      for (std::size_t i = 0; i < dc; ++i) {
        const std::int8_t mag =
            static_cast<std::int8_t>(bc[i] < 0 ? -bc[i] : bc[i]);
        if (mag < min1) {
          min2 = min1;
          min1 = mag;
          argmin = i;
        } else if (mag < min2) {
          min2 = mag;
        }
        sign_product_negative ^= bc[i] < 0;
      }
      for (std::size_t i = 0; i < dc; ++i) {
        const std::int8_t excl = i == argmin ? min2 : min1;
        const std::int8_t mag =
            static_cast<std::int8_t>(dp.normalization.Apply(excl));
        const bool negative = sign_product_negative ^ (bc[i] < 0);
        msgs[m][i] = static_cast<std::int8_t>(negative ? -mag : mag);
        app[bits[i]] = static_cast<std::int16_t>(
            SaturateSymmetric(static_cast<Fixed>(extr[i]) + msgs[m][i],
                              dp.app_bits));
      }
    }
    harden();
    result.iterations_run = iter;
    if (o.iter.early_termination && code.IsCodeword(hard)) break;
  }
  harden();
  result.bits = hard;
  result.converged = code.IsCodeword(hard);
  return result;
}

TEST(I8Decoder, MatchesStoredPerEdgeReference) {
  const auto& code = SmallCode();
  for (const bool et : {true, false}) {
    FixedMinSumOptions o;
    o.iter.max_iterations = 12;
    o.iter.early_termination = et;
    BatchedFixedI8LayeredDecoder dec(code, o, /*max_lanes=*/8);
    const std::size_t frames = 10;
    const auto llrs = NoisyFrames(code, frames, 4.0, 321);
    const auto results = dec.DecodeBatch(llrs, frames);
    ASSERT_EQ(results.size(), frames);
    for (std::size_t f = 0; f < frames; ++f) {
      const std::span<const double> frame(llrs.data() + f * code.n(),
                                          code.n());
      ExpectSameResult(results[f], ReferenceI8Decode(code, o, frame),
                       "et=" + std::to_string(et) + " frame " +
                           std::to_string(f));
    }
  }
}

// ---- 2. Width-contract identity with the int32 fixed decoder. -----

TEST(I8Decoder, ByteIdenticalToInt32FixedScalar) {
  const auto& code = SmallCode();
  const char* variants[] = {
      "iters=12",
      "iters=8,wm=5",
      "iters=6,et=0",
      "iters=12,wm=8,wapp=14",
      "iters=10,norm=13/16",
  };
  for (const char* variant : variants) {
    const auto scalar =
        MakeDecoder(code, std::string("fixed-layered-nms:") + variant);
    for (const std::size_t batch :
         {std::size_t{1}, std::size_t{8}, std::size_t{32}}) {
      const auto i8 = MakeDecoder(
          code, std::string("fixed-layered-nms-i8:") + variant +
                    ",batch=" + std::to_string(batch));
      // More frames than lanes, so chunking across groups (and the
      // ragged tail below the group width) is covered.
      const std::size_t frames = batch + 3;
      const auto llrs = NoisyFrames(code, frames, 4.2, 100);
      const auto results = i8->DecodeBatch(llrs, frames);
      ASSERT_EQ(results.size(), frames);
      for (std::size_t f = 0; f < frames; ++f) {
        const std::span<const double> frame(llrs.data() + f * code.n(),
                                            code.n());
        ExpectSameResult(results[f], scalar->Decode(frame),
                         std::string(variant) + " batch=" +
                             std::to_string(batch) + " frame " +
                             std::to_string(f));
      }
    }
  }
}

// Per-lane results must not depend on how frames are grouped into
// lane groups (32-wide vs 8-wide vs one frame at a time).
TEST(I8Decoder, GroupingIndependent) {
  const auto& code = SmallCode();
  const auto a = MakeDecoder(code, "fixed-layered-nms-i8:iters=10,batch=32");
  const auto b = MakeDecoder(code, "fixed-layered-nms-i8:iters=10,batch=5");
  const auto c = MakeDecoder(code, "fixed-layered-nms-i8:iters=10,batch=1");
  const std::size_t frames = 35;
  const auto llrs = NoisyFrames(code, frames, 4.2, 700);
  const auto ra = a->DecodeBatch(llrs, frames);
  const auto rb = b->DecodeBatch(llrs, frames);
  ASSERT_EQ(ra.size(), frames);
  ASSERT_EQ(rb.size(), frames);
  for (std::size_t f = 0; f < frames; ++f) {
    ExpectSameResult(ra[f], rb[f], "batch 32 vs 5, frame " +
                                       std::to_string(f));
    const std::span<const double> frame(llrs.data() + f * code.n(),
                                        code.n());
    ExpectSameResult(ra[f], c->Decode(frame),
                     "batch 32 vs Decode, frame " + std::to_string(f));
  }
}

// Through the engine: the i8 spec's BER curve equals the int32 fixed
// spec's exactly, at every thread count (identity makes the usual
// "close in BER" ablation an equality).
TEST(I8Decoder, EngineCurveIdenticalToInt32FixedSpec) {
  const auto& code = SmallCode();
  static const Encoder encoder(code);
  sim::BerConfig config;
  config.ebn0_db = {4.0};
  config.max_frames = 48;
  config.min_frame_errors = 12;
  config.batch_frames = 32;

  const auto run = [&](std::size_t threads, const std::string& spec) {
    auto cfg = config;
    cfg.threads = threads;
    return engine::SimEngine(code, encoder, cfg)
        .Run(MakeDecoderFactory(code, spec));
  };

  const auto scalar = run(1, "fixed-layered-nms:iters=12");
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    const auto i8 = run(threads, "fixed-layered-nms-i8:iters=12,batch=32");
    ASSERT_EQ(i8.points.size(), scalar.points.size());
    for (std::size_t i = 0; i < scalar.points.size(); ++i) {
      EXPECT_EQ(i8.points[i].bit_errors.errors(),
                scalar.points[i].bit_errors.errors())
          << "threads " << threads;
      EXPECT_EQ(i8.points[i].frame_errors.errors(),
                scalar.points[i].frame_errors.errors())
          << "threads " << threads;
      EXPECT_EQ(i8.points[i].frames, scalar.points[i].frames)
          << "threads " << threads;
      EXPECT_EQ(i8.points[i].avg_iterations,
                scalar.points[i].avg_iterations)
          << "threads " << threads;
    }
  }
}

// ---- 3. Spec validation. ------------------------------------------

TEST(I8Decoder, RejectsOutOfContractWidths) {
  const auto& code = SmallCode();
  // Messages wider than int8.
  EXPECT_THROW(MakeDecoder(code, "fixed-layered-nms-i8:wm=9"),
               ContractViolation);
  // APP wider than the int16 headroom allows.
  EXPECT_THROW(MakeDecoder(code, "fixed-layered-nms-i8:wapp=15"),
               ContractViolation);
  // Amplifying normalization (9/8 > 1) could push magnitudes out of
  // int8.
  EXPECT_THROW(MakeDecoder(code, "fixed-layered-nms-i8:norm=9/8"),
               ContractViolation);
  // Lane bounds are the shared batch grammar.
  EXPECT_THROW(MakeDecoder(code, "fixed-layered-nms-i8:batch=0"),
               ContractViolation);
  EXPECT_THROW(MakeDecoder(code, "fixed-layered-nms-i8:batch=33"),
               ContractViolation);
  // In-contract specs (and the alias) construct fine; the name makes
  // the datapath visible in reports.
  EXPECT_EQ(MakeDecoder(code, "fixed-layered-nms-i8")->Name(),
            "fixed-layered-nms-i8(w6)");
  EXPECT_EQ(MakeDecoder(code, "fixed-layered-i8:wm=8,wapp=14")->Name(),
            "fixed-layered-nms-i8(w8)");
}

// ---- 4. Runtime ISA dispatch. -------------------------------------

TEST(Dispatch, ScalarTableAlwaysUsable) {
  const auto* scalar = core::LaneKernelsFor(core::Isa::kScalar);
  ASSERT_NE(scalar, nullptr);
  EXPECT_STREQ(scalar->name, "scalar");
  EXPECT_NE(scalar->decode_double, nullptr);
  EXPECT_NE(scalar->decode_f32, nullptr);
  EXPECT_NE(scalar->decode_i8, nullptr);
  EXPECT_TRUE(core::IsaAvailable(core::Isa::kScalar));
}

TEST(Dispatch, IsaNamesRoundTrip) {
  for (const auto isa :
       {core::Isa::kScalar, core::Isa::kAvx2, core::Isa::kAvx512}) {
    EXPECT_EQ(core::ParseIsaName(core::IsaName(isa)), isa);
  }
  EXPECT_THROW(core::ParseIsaName("sse9"), ContractViolation);
  EXPECT_THROW(core::ParseIsaName(""), ContractViolation);
}

TEST(Dispatch, DescribeMentionsSelectedTier) {
  const std::string desc = core::DescribeCpuDispatch();
  EXPECT_NE(desc.find(core::IsaName(core::DetectIsa())), std::string::npos);
  EXPECT_NE(desc.find("scalar"), std::string::npos);
}

// Every tier this build + CPU can run must produce byte-identical
// decodes on every datapath — dispatch may only ever move throughput.
TEST(Dispatch, AllUsableTiersByteIdentical) {
  const auto& code = SmallCode();
  const auto original = core::DetectIsa();
  const std::size_t frames = 9;
  const auto llrs = NoisyFrames(code, frames, 4.2, 555);

  const char* specs[] = {
      "layered-nms:iters=10,batch=8",
      "layered-nms-f32:iters=10,batch=8",
      "fixed-layered-nms:iters=10,batch=8",
      "fixed-layered-nms-i8:iters=10,batch=32",
  };
  for (const char* spec : specs) {
    core::ForceIsaForTesting(core::Isa::kScalar);
    auto decoder = MakeDecoder(code, spec);
    const auto baseline = decoder->DecodeBatch(llrs, frames);
    for (const auto isa : {core::Isa::kAvx2, core::Isa::kAvx512}) {
      if (!core::IsaAvailable(isa)) continue;
      core::ForceIsaForTesting(isa);
      const auto got = decoder->DecodeBatch(llrs, frames);
      ASSERT_EQ(got.size(), baseline.size());
      for (std::size_t f = 0; f < frames; ++f) {
        ExpectSameResult(got[f], baseline[f],
                         std::string(spec) + " isa " +
                             core::IsaName(isa) + " frame " +
                             std::to_string(f));
      }
    }
    core::ForceIsaForTesting(original);
  }
}

// ---- 5. Saturation counters. --------------------------------------

// A deliberately tight datapath (wapp == wm == 4 with a hot channel
// scale) clamps constantly; the counters see it, and counting must
// not change a single decoded bit at any lane-group width: batch=1
// runs a 1-lane group, batch=8 a 16-lane group with 8 dead lanes,
// batch=32 a full 32-lane group.
constexpr const char* kTightSpec =
    "fixed-layered-nms-i8:iters=8,wm=4,wapp=4,scale=8";
constexpr std::size_t kTightFrames = 40;

const std::vector<double>& TightFrames() {
  static const auto llrs =
      NoisyFrames(SmallCode(), kTightFrames, 4.2, 42);
  return llrs;
}

struct SaturationCounts {
  std::uint64_t msg_clamps = 0;
  std::uint64_t bn_saturations = 0;
};

/// Run `decode` with a decode sink installed and read both saturation
/// counters back out of the registry.
template <class Fn>
SaturationCounts CountSaturations(const Fn& decode) {
  obs::MetricsRegistry registry;
  const obs::DecodeMetricIds ids = obs::RegisterDecodeMetrics(registry);
  registry.SetShardCount(1);
  {
    obs::ScopedDecodeSink scope(&registry.shard(0), &ids);
    decode();
  }
  return {registry.MergedCounter(ids.msg_clamp_events),
          registry.MergedCounter(ids.bn_sat_events)};
}

std::string TightSpec(int batch) {
  return std::string(kTightSpec) + ",batch=" + std::to_string(batch);
}

TEST(I8Decoder, SaturationCountersCountWithoutChangingResults) {
  const auto& code = SmallCode();
  for (const int batch : {1, 8, 32}) {
    const auto decoder = MakeDecoder(code, TightSpec(batch));
    const auto plain = decoder->DecodeBatch(TightFrames(), kTightFrames);
    std::vector<DecodeResult> counted;
    const auto counts = CountSaturations(
        [&] { counted = decoder->DecodeBatch(TightFrames(), kTightFrames); });
    ASSERT_EQ(counted.size(), plain.size());
    for (std::size_t f = 0; f < kTightFrames; ++f)
      ExpectSameResult(counted[f], plain[f],
                       "batch=" + std::to_string(batch) + " frame " +
                           std::to_string(f));
    EXPECT_GT(counts.msg_clamps, 0u) << "batch=" << batch;
    EXPECT_GT(counts.bn_saturations, 0u) << "batch=" << batch;
  }
}

// A feed that stages TightFrames() in uneven chunks and sometimes
// stages nothing while lanes are busy, so lanes idle and refill
// mid-stream.
class ChoppyFeed final : public FrameFeed {
 public:
  FrameChunk Pull(std::size_t max_frames, bool idle) override {
    static constexpr std::size_t kPattern[] = {3, 0, 1, 0, 0, 7, 2, 0, 13, 1};
    if (next_ == kTightFrames) return {};
    std::size_t p = kPattern[step_++ % std::size(kPattern)];
    if (p == 0) {
      if (!idle) return {};
      p = 1;  // an idle decoder must get a frame or the end
    }
    const std::size_t n = SmallCode().n();
    const std::size_t count = std::min({p, max_frames, kTightFrames - next_});
    const FrameChunk chunk{{TightFrames().data() + next_ * n, count * n},
                           count};
    next_ += count;
    return chunk;
  }
  bool Deliver(std::uint64_t, const DecodeResult&) override { return true; }
  std::uint64_t Remaining() const override { return kTightFrames - next_; }

 private:
  std::size_t next_ = 0;
  std::size_t step_ = 0;
};

// The exact counts of the 40 tight frames. A tally that drops or
// double-counts an event, or counts a dead or idle lane, moves them.
// Only lanes that hold a frame count, so a one-lane group, a full
// 32-lane group and groups whose lanes idle and refill through the
// choppy feed must all give the same counts (before idle lanes were
// masked out, the same frames read 6,427 / 53,833 at batch=1, 6,744 /
// 54,383 at batch=32 and 6,968 / 54,589 through the choppy feed at
// batch=32). Every ISA tier must give the same counts.
TEST(I8Decoder, SaturationCountsMatchRecordedValues) {
  struct Case {
    int batch;
    bool choppy;
    SaturationCounts want;
  };
  const Case cases[] = {
      {1, false, {6427, 53833}},
      {8, false, {6427, 53833}},
      {32, false, {6427, 53833}},
      {8, true, {6427, 53833}},
      {32, true, {6427, 53833}},
  };
  const auto& code = SmallCode();
  const auto original = core::DetectIsa();
  for (const auto isa :
       {core::Isa::kScalar, core::Isa::kAvx2, core::Isa::kAvx512}) {
    if (!core::IsaAvailable(isa)) continue;
    core::ForceIsaForTesting(isa);
    for (const Case& c : cases) {
      const auto decoder = MakeDecoder(code, TightSpec(c.batch));
      const auto got = CountSaturations([&] {
        if (c.choppy) {
          ChoppyFeed feed;
          decoder->DecodeStream(feed);
        } else {
          (void)decoder->DecodeBatch(TightFrames(), kTightFrames);
        }
      });
      const std::string what = std::string(core::IsaName(isa)) +
                               " batch=" + std::to_string(c.batch) +
                               (c.choppy ? " choppy" : "");
      EXPECT_EQ(got.msg_clamps, c.want.msg_clamps) << what;
      EXPECT_EQ(got.bn_saturations, c.want.bn_saturations) << what;
    }
  }
  core::ForceIsaForTesting(original);
}

// Wide-open widths on a clean channel must count (near) nothing —
// the counters measure real datapath stress, not decode volume.
TEST(I8Decoder, SaturationCountersQuietWhenWide) {
  const auto& code = SmallCode();
  const auto decoder =
      MakeDecoder(code, "fixed-layered-nms-i8:iters=8,wm=8,wapp=14,batch=8");
  const std::size_t frames = 8;
  const auto llrs = NoisyFrames(code, frames, 7.0, 4242);

  obs::MetricsRegistry registry;
  const obs::DecodeMetricIds ids = obs::RegisterDecodeMetrics(registry);
  registry.SetShardCount(1);
  {
    obs::ScopedDecodeSink scope(&registry.shard(0), &ids);
    (void)decoder->DecodeBatch(llrs, frames);
  }
  const auto merged = registry.Snapshot();
  for (const auto& c : merged.counters) {
    if (c.name == "decode.i8_bn_saturations") {
      EXPECT_EQ(c.value, 0u);
    }
  }
}

// ---- 6. Quantize-in edges. ----------------------------------------

// Frames whose LLRs sit on the quantizer's edges (scale 2, so every
// scaled value below is exact): each half step from 0 to past the
// 6- and 8-bit saturation bounds (ties included), the largest double
// below a tie, just above and below ±SymmetricMax, values far past the
// int32 range, infinities and NaN — with random signs.
std::vector<double> EdgeLlrFrames(const LdpcCode& code, std::size_t frames) {
  constexpr double kScale = 2.0;
  std::vector<double> scaled;
  for (int k = 0; k <= 300; ++k) scaled.push_back(k * 0.5);
  for (const double v : {31.0, 127.0}) {
    scaled.push_back(std::nextafter(v + 0.5, 0.0));
    scaled.push_back(std::nextafter(v - 0.5, 0.0));
  }
  scaled.push_back(0.49999999999999994);
  scaled.push_back(std::nextafter(0.5, 1.0));
  scaled.push_back(1e10);
  scaled.push_back(2147483658.0);  // wraps when lround'ed into int32
  scaled.push_back(std::numeric_limits<double>::infinity());
  scaled.push_back(std::numeric_limits<double>::quiet_NaN());
  Xoshiro256pp rng(2024);
  std::vector<double> llrs(frames * code.n());
  for (auto& llr : llrs) {
    const double v = scaled[rng.NextBounded(scaled.size())] / kScale;
    llr = rng.NextBit() ? -v : v;
  }
  return llrs;
}

TEST(QuantizeIn, EdgeLlrsMatchScalarFixedDecoderOnEveryTier) {
  const auto& code = SmallCode();
  const auto original = core::DetectIsa();
  // 37 frames: more than one group's worth, so lanes refill.
  const std::size_t frames = 37;
  const auto llrs = EdgeLlrFrames(code, frames);
  // The second datapath's channel word (wc=8, max 127) is wider than
  // its APP word (wapp=5, max 15): the lane path folds both clamps.
  for (const std::string params :
       {"iters=2,scale=2", "iters=2,scale=2,wc=8,wm=4,wapp=5"}) {
    auto scalar = MakeDecoder(code, "fixed-layered-nms:" + params);
    std::vector<DecodeResult> want;
    for (std::size_t f = 0; f < frames; ++f)
      want.push_back(scalar->Decode(
          std::span<const double>(llrs).subspan(f * code.n(), code.n())));
    for (const std::string& spec :
         {"fixed-layered-nms-i8:batch=32," + params,
          "fixed-layered-nms:batch=16," + params}) {
      auto batched = MakeDecoder(code, spec);
      for (const auto isa :
           {core::Isa::kScalar, core::Isa::kAvx2, core::Isa::kAvx512}) {
        if (!core::IsaAvailable(isa)) continue;
        core::ForceIsaForTesting(isa);
        const auto got = batched->DecodeBatch(llrs, frames);
        ASSERT_EQ(got.size(), frames);
        for (std::size_t f = 0; f < frames; ++f)
          ExpectSameResult(got[f], want[f],
                           spec + " isa " + core::IsaName(isa) + " frame " +
                               std::to_string(f));
      }
      core::ForceIsaForTesting(original);
    }
  }
}

}  // namespace
}  // namespace cldpc::ldpc
