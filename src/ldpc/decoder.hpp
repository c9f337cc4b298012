// Common decoder interface.
//
// LLR sign convention: positive LLR means "bit 0 more likely"
// (L = log P(x=0) / P(x=1)); the hard decision of an LLR is therefore
// bit = (L < 0). All decoders in this library follow it.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ldpc/code.hpp"

namespace cldpc::ldpc {

struct DecodeResult {
  /// Hard decisions for all n bits.
  std::vector<std::uint8_t> bits;
  /// True if the syndrome was zero when decoding stopped.
  bool converged = false;
  /// Iterations actually executed (== max unless early-terminated).
  int iterations_run = 0;
};

/// Options shared by the iterative decoders.
struct IterOptions {
  int max_iterations = 18;
  /// Stop as soon as the hard decisions satisfy all checks. The
  /// paper's hardware runs a fixed iteration count — its output rate
  /// must be constant regardless of channel quality, so it never
  /// checks the syndrome mid-decode; set this to false (spec param
  /// `et=0`) to model that fixed-latency behaviour, e.g. when
  /// comparing against the cycle-accurate architecture model.
  /// Simulations keep the default true for speed. This default is the
  /// single source of truth: every decoder (fixed-point ones
  /// included) and the registry inherit it rather than re-declaring
  /// their own.
  bool early_termination = true;
};

/// A block of whole frames handed out by a FrameFeed: `frames`
/// frames of channel LLRs, concatenated frame-major in `llrs`.
struct FrameChunk {
  std::span<const double> llrs;
  std::size_t frames = 0;
};

/// The frame source and result sink of Decoder::DecodeStream. The
/// decoder pulls frames as it has room for them and delivers each
/// frame's result as soon as that frame is done, so a lane-batched
/// decoder can load a finished lane with the next frame instead of
/// waiting for its slowest lane. Frames are numbered 0, 1, ... in
/// pull order; results arrive in completion order, not pull order.
class FrameFeed {
 public:
  virtual ~FrameFeed() = default;

  /// Up to `max_frames` (>= 1) more frames; the chunk's LLRs stay
  /// valid until the next Pull. `idle` says whether the decoder holds
  /// no undelivered frame. While it does (idle false) the feed must
  /// not block — the frames it would wait for may be the ones still
  /// in flight — and an empty chunk only means "nothing now". When
  /// idle, the feed may block until it can stage a frame, and an
  /// empty chunk ends the stream.
  virtual FrameChunk Pull(std::size_t max_frames, bool idle) = 0;

  /// Frame `seq` is done; `result` is only valid during the call.
  /// Returning false ends the stream at once: frames still in flight
  /// are dropped without being delivered.
  virtual bool Deliver(std::uint64_t seq, const DecodeResult& result) = 0;

  /// An upper bound on the frames later Pulls can still return; a
  /// lane-batched decoder sizes its lane group by it.
  virtual std::uint64_t Remaining() const = 0;
};

class Decoder {
 public:
  virtual ~Decoder() = default;

  /// Decode one frame of channel LLRs (length n).
  virtual DecodeResult Decode(std::span<const double> llr) = 0;

  /// Decode `num_frames` frames of channel LLRs, concatenated
  /// frame-major (llrs.size() == num_frames * n), returning one
  /// result per frame in frame order. The base implementation decodes
  /// frame by frame; batched decoders override it to run frames in
  /// SIMD lanes. Contract: per-frame results never depend on how
  /// frames are grouped into batches — for the scalar-datapath
  /// decoders they are byte-identical to looping Decode.
  virtual std::vector<DecodeResult> DecodeBatch(std::span<const double> llrs,
                                                std::size_t num_frames);

  /// Decode every frame of `feed` until it ends the stream. The base
  /// implementation pulls whatever the feed has staged and decodes it
  /// with one DecodeBatch call at a time; the lane-batched decoders
  /// override it to keep one lane group full, refilling each lane
  /// with the next frame as soon as its frame finishes. Per-frame
  /// results are the DecodeBatch contract's: independent of how the
  /// feed chunks the frames and of what else shares the lanes.
  virtual void DecodeStream(FrameFeed& feed);

  virtual std::string Name() const = 0;
};

/// Hard decision of a single LLR.
inline std::uint8_t HardDecision(double llr) { return llr < 0.0 ? 1 : 0; }

/// Hard decisions of a whole frame.
std::vector<std::uint8_t> HardDecisions(std::span<const double> llr);

}  // namespace cldpc::ldpc
