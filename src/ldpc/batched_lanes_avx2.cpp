// AVX2 copy of the lane-batched decode kernels (see
// core/dispatch.hpp), with the frame-lane frontend at 4 frames per
// register (core/frame_lanes.inc). CMake compiles this TU with -mavx2
// -mno-fma -ffp-contract=off and defines CLDPC_LANE_TU_ENABLED only
// when those flags actually applied; without them this TU degenerates
// to a null table and dispatch can never select it. -mno-fma +
// contract=off keep the float datapaths byte-identical to every other
// tier (no fused multiply-adds), so selection only moves throughput.
#include "ldpc/core/dispatch.hpp"

#ifdef CLDPC_LANE_TU_ENABLED

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <immintrin.h>
#include <type_traits>

#include "channel/awgn.hpp"
#include "ldpc/batched_layered_decoder.hpp"
#include "obs/decode_sink.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

#define CLDPC_LANE_ISA_NAME "avx2"
#define CLDPC_FRAME_LANES 4

namespace cldpc::ldpc::isa::avx2 {

using namespace ::cldpc::ldpc::core;

#include "ldpc/core/lane_kernels.inc"
#include "ldpc/core/lane_compress.inc"
#include "ldpc/core/frame_lanes.inc"
#include "ldpc/batched_lane_impl.inc"

}  // namespace cldpc::ldpc::isa::avx2

namespace cldpc::ldpc::core {

const LaneKernelTable* GetLaneKernelsAvx2() {
  return &::cldpc::ldpc::isa::avx2::kLaneTable;
}

}  // namespace cldpc::ldpc::core

#else  // !CLDPC_LANE_TU_ENABLED

namespace cldpc::ldpc::core {

const LaneKernelTable* GetLaneKernelsAvx2() { return nullptr; }

}  // namespace cldpc::ldpc::core

#endif
