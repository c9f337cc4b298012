#include "ldpc/decoder.hpp"

#include <limits>

#include "util/contracts.hpp"

namespace cldpc::ldpc {

std::vector<DecodeResult> Decoder::DecodeBatch(std::span<const double> llrs,
                                               std::size_t num_frames) {
  CLDPC_EXPECTS(num_frames > 0, "need at least one frame");
  CLDPC_EXPECTS(llrs.size() % num_frames == 0,
                "LLR block must be num_frames whole frames");
  const std::size_t n = llrs.size() / num_frames;
  std::vector<DecodeResult> results;
  results.reserve(num_frames);
  for (std::size_t f = 0; f < num_frames; ++f)
    results.push_back(Decode(llrs.subspan(f * n, n)));
  return results;
}

void Decoder::DecodeStream(FrameFeed& feed) {
  std::uint64_t seq = 0;
  for (;;) {
    // Every pulled frame is delivered before the next Pull, so the
    // decoder is always idle here.
    const FrameChunk chunk =
        feed.Pull(std::numeric_limits<std::size_t>::max(), /*idle=*/true);
    if (chunk.frames == 0) return;
    const auto results = DecodeBatch(chunk.llrs, chunk.frames);
    for (const auto& result : results)
      if (!feed.Deliver(seq++, result)) return;
  }
}

std::vector<std::uint8_t> HardDecisions(std::span<const double> llr) {
  std::vector<std::uint8_t> bits(llr.size());
  for (std::size_t i = 0; i < llr.size(); ++i) bits[i] = HardDecision(llr[i]);
  return bits;
}

}  // namespace cldpc::ldpc
