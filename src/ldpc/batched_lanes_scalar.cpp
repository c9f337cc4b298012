// Baseline-ISA copy of the lane-batched decode kernels (see
// core/dispatch.hpp), plus the per-frame frontend loop that is the
// frame-lane kernels' oracle (core/frame_lanes.inc). Compiled with
// the build's default flags only, so this table is safe to run on any
// CPU the binary targets — it is the guaranteed fallback, always
// present. On non-x86 targets (aarch64) this is also where the
// compiler's native SIMD lands: "scalar" names the dispatch tier, not
// the generated code.
#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "channel/awgn.hpp"
#include "ldpc/batched_layered_decoder.hpp"
#include "ldpc/core/dispatch.hpp"
#include "obs/decode_sink.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

#define CLDPC_LANE_ISA_NAME "scalar"
#define CLDPC_FRAME_LANES 1

namespace cldpc::ldpc::isa::scalar {

using namespace ::cldpc::ldpc::core;

#include "ldpc/core/lane_kernels.inc"
#include "ldpc/core/lane_compress.inc"
#include "ldpc/core/frame_lanes.inc"
#include "ldpc/batched_lane_impl.inc"

}  // namespace cldpc::ldpc::isa::scalar

namespace cldpc::ldpc::core {

const LaneKernelTable* GetLaneKernelsScalar() {
  return &::cldpc::ldpc::isa::scalar::kLaneTable;
}

}  // namespace cldpc::ldpc::core
