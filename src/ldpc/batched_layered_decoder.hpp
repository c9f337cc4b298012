// Frame-batched layered decoders: B codeword frames decoded in
// lockstep through one layered schedule walk, with compressed
// per-check message storage (one min1/min2/argmin/sign-word record
// per check per lane, see core/cn_compress.hpp) so the CN kernel's
// min1/min2/sign scan vectorizes across lanes while the extrinsic
// state stays O(checks * lanes) — the software analogue of the
// paper's multi-frame compressed memory words.
//
// Three lane engines, one for fixed point and two for floating point:
//   BatchedLayeredDecoder        — double lanes; per-lane results are
//                                  byte-identical to LayeredMinSumDecoder
//                                  (registry spec `layered-*:batch=N`).
//   BatchedLayeredDecoderF32     — float lanes: twice the SIMD width; a
//                                  new datapath (spec kind
//                                  `layered-nms-f32`), validated by
//                                  BER-curve equivalence, not byte
//                                  identity.
//   BatchedFixedI8LayeredDecoder — the fixed-point lane engine: int8
//                                  message lanes over an int16
//                                  saturating APP accumulator; under
//                                  its width contract (FitsI8Datapath)
//                                  byte-identical per lane to
//                                  FixedLayeredMinSumDecoder. It runs
//                                  `fixed-layered-nms-i8` and, inside
//                                  the contract,
//                                  `fixed-layered-nms:batch=N`.
//
// Frames stream through one standing lane group. The float groups
// are 16/8/4/2/1 lanes wide, the widest that fits both the lane cap
// and the frames the stream can still deliver; the i8 groups are 32,
// 16 or 1 lanes wide (I8GroupWidth), lanes past the cap left dead.
// Each lane carries its own frame and iteration count: early
// termination is tracked per lane with the incremental
// BatchSyndromeTracker, and at every iteration boundary a lane whose
// frame finished (converged, or out of iterations) is delivered and
// reloaded with the next pending frame, so the group pays for the
// iterations its frames run rather than for its slowest lane.
// Per-lane results are independent of the grouping and of the other
// frames sharing the group, so any DecodeBatch size — including 1,
// which is what Decode uses — and any DecodeStream feed reproduce the
// same outputs. DecodeBatch is the stream over one fixed span.
//
// The lane engine itself is compiled once per ISA and selected at
// runtime (core/dispatch.hpp): DecodeStream packs the decoder's
// buffers into a LaneArgs struct and calls through the active
// LaneKernelTable. Every table computes bit-identical results, so the
// selection only moves throughput.
#pragma once

#include "ldpc/core/batch_kernel.hpp"
#include "ldpc/core/cn_compress.hpp"
#include "ldpc/core/syndrome_tracker.hpp"
#include "ldpc/decoder.hpp"
#include "ldpc/fixed_minsum_decoder.hpp"
#include "ldpc/minsum_decoder.hpp"

namespace cldpc::ldpc {

/// Largest lane-group width the double and f32 engines instantiate; a
/// larger lane cap runs a group this wide.
inline constexpr std::size_t kMaxLaneGroup = 16;

/// The i8 datapath's widest lane group: int8 lanes are 4x denser per
/// SIMD register, so it gets a 32-wide group (the packed uint32 lane
/// masks cap any further widening).
inline constexpr std::size_t kMaxLaneGroupI8 = 32;

/// The i8 lane group that holds up to `frames` frames: 32 lanes when
/// 32 fit, one lane for a single frame, and 16 otherwise — an int8
/// group of 2, 4 or 8 lanes costs more per call than a 16-lane one.
constexpr std::size_t I8GroupWidth(std::size_t frames) {
  return frames >= 32 ? 32 : (frames == 1 ? 1 : 16);
}

/// The FixedI8Datapath width contract (core/batch_kernel.hpp):
/// message_bits in [2, 8], app_bits in [message_bits, 14] and a
/// normalization factor <= 1 with a denominator <= 256. Inside it the
/// int8 lane engine is byte-identical to the int32 fixed decoders.
bool FitsI8Datapath(const FixedDatapathParams& datapath);

namespace core {
struct LaneDecodeCommon;
}

/// The stream plumbing the three lane-batched decoders share: Decode
/// and DecodeBatch are streams over one fixed span, and each
/// datapath's DecodeStream hands its lane buffers to the kernels.
class BatchedLaneDecoder : public Decoder {
 public:
  DecodeResult Decode(std::span<const double> llr) override;
  std::vector<DecodeResult> DecodeBatch(std::span<const double> llrs,
                                        std::size_t num_frames) override;

  std::size_t max_lanes() const { return max_lanes_; }

 protected:
  /// The code must outlive the decoder. `max_lanes` (in [1, 32]) caps
  /// the frames decoded in lockstep.
  BatchedLaneDecoder(const LdpcCode& code, std::size_t max_lanes);

  /// The kernel arguments every datapath shares, for one stream.
  void FillCommon(core::LaneDecodeCommon& c, FrameFeed& feed,
                  const IterOptions& iter);

  const LdpcCode& code_;
  const std::size_t max_lanes_;

 private:
  std::vector<std::uint32_t> hard_;  // packed per-bit lane sign masks
  core::BatchSyndromeTracker syndrome_;
  DecodeResult result_;  // each finished frame's capture, bits sized n
};

class BatchedLayeredDecoder final : public BatchedLaneDecoder {
 public:
  BatchedLayeredDecoder(const LdpcCode& code, MinSumOptions options,
                        std::size_t max_lanes);

  void DecodeStream(FrameFeed& feed) override;
  /// Same name as the scalar layered decoder: the outputs are
  /// byte-identical, only the throughput differs.
  std::string Name() const override;

  const MinSumOptions& options() const { return options_; }

 private:
  MinSumOptions options_;
  core::FloatCheckRule rule_;
  // Lane-group state, sized once for the widest group (satellite of
  // the scratch-hoisting rule: no per-decode allocation). msgs_ is
  // the compressed per-check extrinsic memory.
  std::vector<double> app_, extr_;
  core::CompressedCnLanes<core::FloatDatapath> msgs_;
};

class BatchedLayeredDecoderF32 final : public BatchedLaneDecoder {
 public:
  BatchedLayeredDecoderF32(const LdpcCode& code, MinSumOptions options,
                           std::size_t max_lanes);

  void DecodeStream(FrameFeed& feed) override;
  std::string Name() const override;

  const MinSumOptions& options() const { return options_; }

 private:
  MinSumOptions options_;
  core::Float32CheckRule rule_;
  std::vector<float> app_, extr_;
  core::CompressedCnLanes<core::Float32Datapath> msgs_;
};

/// The int8 lane datapath: CN messages travel as saturating int8
/// lanes, APPs accumulate in int16 (the "wider intermediate"), and
/// lane groups go up to 32 wide. Construction enforces the width
/// contract (FitsI8Datapath), under which every lane reproduces the
/// int32 FixedLayeredMinSumDecoder bit for bit (see batch_kernel.hpp
/// for the argument), so the narrow datapath costs nothing in BER.
/// `kind` is the name's stem: the registry builds this decoder for
/// both `fixed-layered-nms-i8` and `fixed-layered-nms:batch=N`, and
/// each keeps its own name.
class BatchedFixedI8LayeredDecoder final : public BatchedLaneDecoder {
 public:
  BatchedFixedI8LayeredDecoder(const LdpcCode& code,
                               FixedMinSumOptions options,
                               std::size_t max_lanes,
                               std::string kind = "fixed-layered-nms-i8");

  void DecodeStream(FrameFeed& feed) override;
  std::string Name() const override;

  const FixedMinSumOptions& options() const { return options_; }

 private:
  FixedMinSumOptions options_;
  std::string kind_;
  LlrQuantizer quantizer_;
  std::vector<std::int16_t> app_, extr_;  // int16 BN accumulator lanes
  core::CompressedCnLanes<core::FixedI8Datapath> msgs_;
};

}  // namespace cldpc::ldpc
