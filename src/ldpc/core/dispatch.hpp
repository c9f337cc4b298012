// Runtime ISA dispatch for the lane-batched decode kernels and the
// simulation engine's frame-lane frontend (core/frame_lanes.inc).
//
// The batched decoders' hot loops (the compressed-record
// PeelScan/Store/FoldFresh passes, the lane-group engine) are
// compiled several times — once per ISA, each kernel TU
// (ldpc/batched_lanes_*.cpp) with its own -m flags and its own
// namespace so the linker cannot merge the differently-compiled
// instantiations:
//
//   batched_lanes_scalar.cpp  — baseline flags (x86-64 SSE2 / the
//                               target's default; on aarch64 this is
//                               where NEON auto-vectorization lands)
//   batched_lanes_avx2.cpp    — -mavx2 -mno-fma
//   batched_lanes_avx512.cpp  — -mavx512{f,bw,vl,dq}
//
// Each TU exports one LaneKernelTable of plain function pointers; the
// probe below picks the best table the CPU *and* the build support at
// first use. Every table computes bit-identical results (integer
// datapaths are ISA-independent; the float paths ban FMA contraction
// per-TU), so selection is purely a throughput decision — one binary
// runs correctly anywhere, which retires the old cpu_check.cpp
// startup abort of the compile-time -mavx2 build.
//
// The environment variable CLDPC_ISA=scalar|avx2|avx512 forces a
// level at or below the detected one (requests the CPU or build
// cannot honor fall back to the best available, loudly on stderr) —
// this is how CI exercises the scalar fallback on AVX2 runners.
//
// NEON note: there is no dedicated NEON table. On aarch64 builds the
// x86 TUs compile as baseline copies, DetectIsa() reports kScalar,
// and the "scalar" table IS the NEON path (the compiler's baseline
// already includes NEON); a hand-tiered NEON table would slot in here
// the same way the AVX tables do.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ldpc/core/batch_kernel.hpp"
#include "ldpc/core/cn_compress.hpp"
#include "ldpc/core/syndrome_tracker.hpp"
#include "ldpc/decoder.hpp"
#include "util/fixed_point.hpp"

namespace cldpc::ldpc::core {

enum class Isa : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

/// "scalar" / "avx2" / "avx512".
const char* IsaName(Isa isa);

/// Parse an ISA name (the CLDPC_ISA grammar); loud error on unknown
/// names.
Isa ParseIsaName(const std::string& name);

/// The decode stream every datapath's entry point shares. The caller
/// (the decoder's DecodeStream) owns all buffers. `result` must be
/// pre-sized by the caller — bits already sized to n — so the
/// ISA-compiled kernels never touch std::vector growth paths
/// (container template instantiations are weak symbols shared across
/// TUs; an ISA-flagged copy winning the link would leak AVX code into
/// baseline callers).
struct LaneDecodeCommon {
  const LdpcCode* code = nullptr;
  IterOptions iter;
  FrameFeed* feed = nullptr;
  std::size_t max_lanes = 0;
  std::uint32_t* hard_mask = nullptr;  // packed per-bit lane masks
  BatchSyndromeTracker* syndrome = nullptr;
  /// Scratch each finished frame is captured into before it is
  /// delivered to the feed (pre-sized, see above).
  DecodeResult* result = nullptr;
};

struct LaneArgsDouble {
  LaneDecodeCommon common;
  FloatCheckRule rule;
  double* app = nullptr;
  CompressedCnLanes<FloatDatapath>* store = nullptr;
  double* extr = nullptr;
};

struct LaneArgsF32 {
  LaneDecodeCommon common;
  Float32CheckRule rule;
  float* app = nullptr;
  CompressedCnLanes<Float32Datapath>* store = nullptr;
  float* extr = nullptr;
};

struct LaneArgsI8 {
  LaneDecodeCommon common;
  DyadicFraction norm;
  const LlrQuantizer* quantizer = nullptr;
  int message_bits = 0;
  int app_bits = 0;
  std::int16_t* app = nullptr;  // int16 BN accumulator lanes
  CompressedCnLanes<FixedI8Datapath>* store = nullptr;
  std::int16_t* extr = nullptr;
};

/// A batch's information bits (draw_info_bits): frame f's k bytes
/// (0/1) are the first k Xoshiro256pp(seeds[f]).NextBit() draws.
struct InfoBitsArgs {
  const std::uint64_t* seeds = nullptr;  // num_frames data-stream seeds
  std::size_t num_frames = 0;
  std::size_t k = 0;
  std::uint8_t* info = nullptr;  // out: num_frames * k, frame-major
};

/// A batch's channel frontend (transmit_llrs): frame f's n LLRs are
/// those AwgnChannel(sigma, seeds[f]).TransmitLlrsInto writes for the
/// BPSK symbols of codeword f.
struct ChannelArgs {
  const std::uint64_t* seeds = nullptr;  // num_frames noise-stream seeds
  std::size_t num_frames = 0;
  std::size_t n = 0;
  const std::uint8_t* codewords = nullptr;  // num_frames * n, frame-major
  double sigma = 1.0;
  double* llrs = nullptr;     // out: num_frames * n, frame-major
  double* symbols = nullptr;  // n doubles of scratch (per-frame tier)
};

/// One ISA's set of lane-decode stream entry points, plus the frame-lane
/// frontend (core/frame_lanes.inc): the scalar tier's entries are the
/// per-frame loop over the scalar API, the AVX tiers draw 4 or 8
/// frames per register, bit-identically.
struct LaneKernelTable {
  const char* name = "";
  void (*decode_double)(const LaneArgsDouble&) = nullptr;
  void (*decode_f32)(const LaneArgsF32&) = nullptr;
  void (*decode_i8)(const LaneArgsI8&) = nullptr;
  void (*draw_info_bits)(const InfoBitsArgs&) = nullptr;
  void (*transmit_llrs)(const ChannelArgs&) = nullptr;
};

/// The per-TU tables. A TU whose flags the compiler did not support
/// returns null (CMake only defines CLDPC_LANE_TU_ENABLED where the
/// -m flags actually applied), so dispatch can never select a table
/// that is not genuinely compiled for its ISA.
const LaneKernelTable* GetLaneKernelsScalar();
const LaneKernelTable* GetLaneKernelsAvx2();
const LaneKernelTable* GetLaneKernelsAvx512();

/// True when `isa` is usable here: the executing CPU supports it AND
/// this build compiled a table for it.
bool IsaAvailable(Isa isa);

/// The best usable ISA, after applying a CLDPC_ISA override if set.
/// Computed once and cached.
Isa DetectIsa();

/// The kernel table DetectIsa() selected (never null: the scalar
/// table always exists).
const LaneKernelTable& ActiveLaneKernels();

/// The table for a specific level, or null when unavailable — lets
/// tests run the same decode through two ISA levels and compare.
const LaneKernelTable* LaneKernelsFor(Isa isa);

/// Test hook: force the active table to `isa` (must be available).
/// Decoders consult ActiveLaneKernels() per DecodeStream call, so the
/// override applies immediately; pass DetectIsa()'s original value to
/// restore.
void ForceIsaForTesting(Isa isa);

/// Human-readable dispatch report for --cpu-info: per-level CPU/build
/// support, the selected kernel set, and the override knob.
std::string DescribeCpuDispatch();

}  // namespace cldpc::ldpc::core
