// Thin dispatch shims: each decoder validates its configuration,
// owns the lane buffers, and hands a LaneArgs bundle to the
// runtime-selected kernel table (core/dispatch.hpp). The lane engine
// itself lives in batched_lane_impl.inc, compiled once per ISA by the
// batched_lanes_*.cpp TUs — this TU stays baseline-ISA and does
// everything the ISA TUs must not (std::vector sizing, string
// formatting), see LaneDecodeCommon.
#include "ldpc/batched_layered_decoder.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "ldpc/core/dispatch.hpp"
#include "util/contracts.hpp"

namespace cldpc::ldpc {
namespace {

core::Float32CheckRule F32Rule(const MinSumOptions& options) {
  const auto rule = MinSumCheckRule(options);
  return {static_cast<float>(rule.scale), static_cast<float>(rule.beta)};
}

std::size_t ValidatedLanes(std::size_t max_lanes) {
  CLDPC_EXPECTS(max_lanes >= 1 && max_lanes <= 32,
                "batch lanes must be in [1, 32]");
  return max_lanes;
}

/// The feed DecodeBatch streams: hands out the span's frames and
/// stores each result at its frame's index.
class SpanFeed final : public FrameFeed {
 public:
  SpanFeed(std::span<const double> llrs, std::size_t n,
           std::vector<DecodeResult>& results)
      : llrs_(llrs), n_(n), results_(results) {}

  FrameChunk Pull(std::size_t max_frames, bool) override {
    const std::size_t count = std::min(max_frames, results_.size() - next_);
    const FrameChunk chunk{llrs_.subspan(next_ * n_, count * n_), count};
    next_ += count;
    return chunk;
  }

  bool Deliver(std::uint64_t seq, const DecodeResult& result) override {
    results_[seq] = result;
    return true;
  }

  std::uint64_t Remaining() const override {
    return results_.size() - next_;
  }

 private:
  std::span<const double> llrs_;
  std::size_t n_;
  std::vector<DecodeResult>& results_;
  std::size_t next_ = 0;
};

}  // namespace

bool FitsI8Datapath(const FixedDatapathParams& datapath) {
  const DyadicFraction& norm = datapath.normalization;
  return datapath.message_bits >= 2 && datapath.message_bits <= 8 &&
         datapath.app_bits >= datapath.message_bits &&
         datapath.app_bits <= 14 && norm.shift >= 0 && norm.shift <= 8 &&
         norm.num <= (Fixed{1} << norm.shift);
}

// ---- BatchedLaneDecoder (shared stream plumbing) -------------------

BatchedLaneDecoder::BatchedLaneDecoder(const LdpcCode& code,
                                       std::size_t max_lanes)
    : code_(code),
      max_lanes_(ValidatedLanes(max_lanes)),
      hard_(code.graph().num_bits()),
      syndrome_(code.schedule()) {
  // Resolve the lane-kernel table now, so a bad CLDPC_ISA fails the
  // decoder's construction (MakeDecoderFactory, the service's tier
  // pools) instead of every decode on a worker.
  core::ActiveLaneKernels();
  result_.bits.resize(code.graph().num_bits());
}

DecodeResult BatchedLaneDecoder::Decode(std::span<const double> llr) {
  auto results = DecodeBatch(llr, 1);
  return std::move(results.front());
}

std::vector<DecodeResult> BatchedLaneDecoder::DecodeBatch(
    std::span<const double> llrs, std::size_t num_frames) {
  const std::size_t n = code_.graph().num_bits();
  CLDPC_EXPECTS(num_frames > 0, "need at least one frame");
  CLDPC_EXPECTS(llrs.size() == num_frames * n,
                "LLR block must be num_frames frames of length n");
  std::vector<DecodeResult> results(num_frames);
  SpanFeed feed(llrs, n, results);
  DecodeStream(feed);
  return results;
}

void BatchedLaneDecoder::FillCommon(core::LaneDecodeCommon& c,
                                    FrameFeed& feed,
                                    const IterOptions& iter) {
  c.code = &code_;
  c.iter = iter;
  c.feed = &feed;
  c.max_lanes = max_lanes_;
  c.hard_mask = hard_.data();
  c.syndrome = &syndrome_;
  c.result = &result_;
}

// ---- BatchedLayeredDecoder (double lanes) --------------------------

BatchedLayeredDecoder::BatchedLayeredDecoder(const LdpcCode& code,
                                             MinSumOptions options,
                                             std::size_t max_lanes)
    : BatchedLaneDecoder(code, max_lanes), options_(options) {
  CLDPC_EXPECTS(options_.iter.max_iterations > 0, "need >= 1 iteration");
  CLDPC_EXPECTS(options_.alpha >= 1.0, "alpha must be >= 1");
  rule_ = MinSumCheckRule(options_);
  const std::size_t w = std::min(max_lanes_, kMaxLaneGroup);
  app_.resize(code_.graph().num_bits() * w);
  extr_.resize(code_.schedule().max_check_degree() * w);
  msgs_.Resize(code_.graph().num_checks(), w);
}

std::string BatchedLayeredDecoder::Name() const {
  return "layered-" + MinSumFamilyName(options_);
}

void BatchedLayeredDecoder::DecodeStream(FrameFeed& feed) {
  core::LaneArgsDouble a;
  FillCommon(a.common, feed, options_.iter);
  a.rule = rule_;
  a.app = app_.data();
  a.store = &msgs_;
  a.extr = extr_.data();
  core::ActiveLaneKernels().decode_double(a);
}

// ---- BatchedLayeredDecoderF32 (float lanes) ------------------------

BatchedLayeredDecoderF32::BatchedLayeredDecoderF32(const LdpcCode& code,
                                                   MinSumOptions options,
                                                   std::size_t max_lanes)
    : BatchedLaneDecoder(code, max_lanes), options_(options) {
  CLDPC_EXPECTS(options_.iter.max_iterations > 0, "need >= 1 iteration");
  CLDPC_EXPECTS(options_.alpha >= 1.0, "alpha must be >= 1");
  rule_ = F32Rule(options_);
  const std::size_t w = std::min(max_lanes_, kMaxLaneGroup);
  app_.resize(code_.graph().num_bits() * w);
  extr_.resize(code_.schedule().max_check_degree() * w);
  msgs_.Resize(code_.graph().num_checks(), w);
}

std::string BatchedLayeredDecoderF32::Name() const {
  return "layered-f32-" + MinSumFamilyName(options_);
}

void BatchedLayeredDecoderF32::DecodeStream(FrameFeed& feed) {
  core::LaneArgsF32 a;
  FillCommon(a.common, feed, options_.iter);
  a.rule = rule_;
  a.app = app_.data();
  a.store = &msgs_;
  a.extr = extr_.data();
  core::ActiveLaneKernels().decode_f32(a);
}

// ---- BatchedFixedI8LayeredDecoder (int8 lanes) ---------------------

BatchedFixedI8LayeredDecoder::BatchedFixedI8LayeredDecoder(
    const LdpcCode& code, FixedMinSumOptions options, std::size_t max_lanes,
    std::string kind)
    : BatchedLaneDecoder(code, max_lanes),
      options_(options),
      kind_(std::move(kind)),
      quantizer_(options.datapath.channel_bits,
                 options.datapath.channel_scale) {
  CLDPC_EXPECTS(options_.iter.max_iterations > 0, "need >= 1 iteration");
  // Outside the width contract the int8 lanes would silently wrap.
  CLDPC_EXPECTS(FitsI8Datapath(options_.datapath),
                "i8 datapath needs wm in [2, 8], wapp in [wm, 14] and a "
                "normalization factor <= 1 with denominator <= 256");
  // Sized for the widest group DecodeStream can run under this cap.
  const std::size_t w = I8GroupWidth(max_lanes_);
  app_.resize(code_.graph().num_bits() * w);
  extr_.resize(code_.schedule().max_check_degree() * w);
  msgs_.Resize(code_.graph().num_checks(), w);
}

std::string BatchedFixedI8LayeredDecoder::Name() const {
  std::ostringstream os;
  os << kind_ << "(w" << options_.datapath.message_bits << ")";
  return os.str();
}

void BatchedFixedI8LayeredDecoder::DecodeStream(FrameFeed& feed) {
  core::LaneArgsI8 a;
  FillCommon(a.common, feed, options_.iter);
  a.norm = options_.datapath.normalization;
  a.quantizer = &quantizer_;
  a.message_bits = options_.datapath.message_bits;
  a.app_bits = options_.datapath.app_bits;
  a.app = app_.data();
  a.store = &msgs_;
  a.extr = extr_.data();
  core::ActiveLaneKernels().decode_i8(a);
}

}  // namespace cldpc::ldpc
