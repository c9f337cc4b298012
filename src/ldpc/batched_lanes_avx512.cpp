// AVX-512 copy of the lane-batched decode kernels (see
// core/dispatch.hpp), with the frame-lane frontend at 8 frames per
// register (core/frame_lanes.inc). CMake compiles this TU with
// -mavx512f -mavx512bw -mavx512vl -mavx512dq -ffp-contract=off and
// defines CLDPC_LANE_TU_ENABLED only when those flags applied (BW for
// the int8/int16 lane ops, VL so 256-bit EVEX covers the 16-lane
// groups, DQ for the float paths). -ffp-contract=off is load-bearing
// here: EVEX FMA comes with AVX512F itself, -mno-fma does not gate
// it, and a contracted multiply-add would break the float datapaths'
// byte identity across dispatch tiers.
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

#define CLDPC_LANE_ISA_NAME "avx512"
#define CLDPC_FRAME_LANES 8

namespace cldpc::ldpc::isa::avx512 {

using namespace ::cldpc::ldpc::core;

#include "ldpc/core/lane_kernels.inc"
#include "ldpc/core/lane_compress.inc"
#include "ldpc/core/frame_lanes.inc"
#include "ldpc/batched_lane_impl.inc"

}  // namespace cldpc::ldpc::isa::avx512

namespace cldpc::ldpc::core {

const LaneKernelTable* GetLaneKernelsAvx512() {
  return &::cldpc::ldpc::isa::avx512::kLaneTable;
}

}  // namespace cldpc::ldpc::core

#else  // !CLDPC_LANE_TU_ENABLED

namespace cldpc::ldpc::core {

const LaneKernelTable* GetLaneKernelsAvx512() { return nullptr; }

}  // namespace cldpc::ldpc::core

#endif
