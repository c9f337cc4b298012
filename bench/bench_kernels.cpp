// google-benchmark microbenchmarks of the decoding kernels: the
// check-node and bit-node primitives, whole decoder iterations
// (scalar and lane-batched), encoding, syndrome checking and the
// cycle-accurate architecture model itself (simulation throughput,
// not hardware throughput).
//
// Custom main: in addition to the standard google-benchmark flags,
// `--json <path>` (or `--json=<path>`) writes the results as a flat
// JSON array — one record per benchmark with the name, the real time
// per iteration in ns, and (where SetItemsProcessed was called) the
// items/s rate and ns per item. Decode benchmarks count frames as
// items, so their rate is frames/s; CN-pass benchmarks count edges,
// so theirs inverts to ns/edge. This is the machine-readable feed
// for BENCH_*.json perf trajectories.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "arch/decoder_core.hpp"
#include "channel/awgn.hpp"
#include "codes/crc.hpp"
#include "codes/ft8.hpp"
#include "ldpc/batched_layered_decoder.hpp"
#include "ldpc/bp_decoder.hpp"
#include "ldpc/c2_system.hpp"
#include "ldpc/core/batch_kernel.hpp"
#include "ldpc/core/cn_compress.hpp"
#include "ldpc/core/cn_kernel.hpp"
#include "ldpc/encoder.hpp"
#include "ldpc/fixed_layered_decoder.hpp"
#include "ldpc/fixed_minsum_decoder.hpp"
#include "ldpc/layered_decoder.hpp"
#include "ldpc/minsum_decoder.hpp"
#include "obs/decode_sink.hpp"
#include "obs/metrics.hpp"
#include "qc/small_codes.hpp"
#include "util/rng.hpp"

namespace {

using namespace cldpc;

const ldpc::C2System& C2() {
  static const ldpc::C2System system = ldpc::MakeC2System();
  return system;
}

struct SmallFixture {
  qc::QcMatrix qc = qc::MakeSmallQcCode();
  ldpc::LdpcCode code{qc.Expand(), qc.q()};
  ldpc::Encoder encoder{code};
};

SmallFixture& Small() {
  static SmallFixture f;
  return f;
}

std::vector<double> NoisyC2Frame(std::uint64_t seed) {
  const auto& system = C2();
  Xoshiro256pp rng(seed);
  std::vector<std::uint8_t> info(system.code->k());
  for (auto& b : info) b = rng.NextBit() ? 1 : 0;
  const auto cw = system.encoder->Encode(info);
  return channel::TransmitBpskAwgn(cw, 4.0, system.code->Rate(), seed ^ 1);
}

void BM_CnSummaryDegree32(benchmark::State& state) {
  Xoshiro256pp rng(1);
  std::vector<Fixed> inputs(32);
  for (auto& v : inputs)
    v = static_cast<Fixed>(rng.NextBounded(63)) - 31;
  const DyadicFraction norm{13, 4};
  for (auto _ : state) {
    const auto summary = ldpc::ComputeCnSummary(inputs);
    Fixed acc = 0;
    for (std::size_t pos = 0; pos < inputs.size(); ++pos)
      acc += ldpc::CnOutput(summary, pos, norm);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_CnSummaryDegree32);

void BM_BnUpdateDegree4(benchmark::State& state) {
  const std::vector<Fixed> cbs = {7, -13, 2, 25};
  for (auto _ : state) {
    const Fixed app = ldpc::BnApp(-9, cbs, 9);
    Fixed acc = 0;
    for (const auto cb : cbs) acc += ldpc::BnOutput(app, cb, 6);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * 4);
}
BENCHMARK(BM_BnUpdateDegree4);

void BM_BoxPlus(benchmark::State& state) {
  double a = 1.7, b = -2.3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ldpc::BoxPlus(a, b));
    a += 1e-9;  // defeat constant folding
  }
}
BENCHMARK(BM_BoxPlus);

void BM_C2Encode(benchmark::State& state) {
  const auto& system = C2();
  Xoshiro256pp rng(3);
  std::vector<std::uint8_t> info(system.code->k());
  for (auto& b : info) b = rng.NextBit() ? 1 : 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(system.encoder->Encode(info));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(info.size()));
}
BENCHMARK(BM_C2Encode);

void BM_C2Syndrome(benchmark::State& state) {
  const auto& system = C2();
  const std::vector<std::uint8_t> zero(system.code->n(), 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(system.code->IsCodeword(zero));
  }
}
BENCHMARK(BM_C2Syndrome);

void BM_C2FixedMinSum18(benchmark::State& state) {
  const auto& system = C2();
  ldpc::FixedMinSumOptions o;
  o.iter.max_iterations = 18;
  o.iter.early_termination = false;
  ldpc::FixedMinSumDecoder dec(*system.code, o);
  const auto llr = NoisyC2Frame(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dec.Decode(llr));
  }
  state.SetItemsProcessed(state.iterations() * 7136);
}
BENCHMARK(BM_C2FixedMinSum18)->Unit(benchmark::kMillisecond);

void BM_C2FloatBp10(benchmark::State& state) {
  const auto& system = C2();
  ldpc::BpDecoder dec(*system.code,
                      {.max_iterations = 10, .early_termination = false});
  const auto llr = NoisyC2Frame(13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dec.Decode(llr));
  }
}
BENCHMARK(BM_C2FloatBp10)->Unit(benchmark::kMillisecond);

void BM_SmallCodeMinSum(benchmark::State& state) {
  auto& f = Small();
  ldpc::MinSumOptions o;
  o.iter.max_iterations = 20;
  o.iter.early_termination = false;
  ldpc::MinSumDecoder dec(f.code, o);
  Xoshiro256pp rng(5);
  std::vector<std::uint8_t> info(f.code.k());
  for (auto& b : info) b = rng.NextBit() ? 1 : 0;
  const auto cw = f.encoder.Encode(info);
  const auto llr = channel::TransmitBpskAwgn(cw, 4.0, f.code.Rate(), 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dec.Decode(llr));
  }
}
BENCHMARK(BM_SmallCodeMinSum);

// --- PR-2 before/after: a full check-node pass over the C2 code, run
// the pre-refactor way (scalar walk over the Tanner graph's edge-id
// spans, one indirection per message) and through the precomputed
// z-blocked LayerSchedule (the shared CN kernel over each check's
// contiguous edge slice). Same math, same outputs — the measured gap
// is the cost of the graph indirection the refactor removed.

std::vector<double> RandomFloatMessages(std::size_t count,
                                        std::uint64_t seed) {
  Xoshiro256pp rng(seed);
  std::vector<double> out(count);
  for (auto& v : out)
    v = (static_cast<double>(rng.NextBounded(2000)) - 1000.0) / 100.0;
  return out;
}

std::vector<Fixed> RandomFixedMessages(std::size_t count,
                                       std::uint64_t seed) {
  Xoshiro256pp rng(seed);
  std::vector<Fixed> out(count);
  for (auto& v : out) v = static_cast<Fixed>(rng.NextBounded(63)) - 31;
  return out;
}

void BM_C2CnPassFloatGraphWalk(benchmark::State& state) {
  const auto& graph = C2().code->graph();
  const auto b2c = RandomFloatMessages(graph.num_edges(), 21);
  std::vector<double> c2b(graph.num_edges());
  const double scale = 13.0 / 16.0;
  for (auto _ : state) {
    for (std::size_t m = 0; m < graph.num_checks(); ++m) {
      const auto edges = graph.CheckEdges(m);
      double min1 = std::numeric_limits<double>::infinity();
      double min2 = min1;
      std::size_t argmin = 0;
      bool sign_neg = false;
      for (const auto e : edges) {
        const double v = b2c[e];
        const double mag = std::fabs(v);
        if (v < 0.0) sign_neg = !sign_neg;
        if (mag < min1) {
          min2 = min1;
          min1 = mag;
          argmin = e;
        } else if (mag < min2) {
          min2 = mag;
        }
      }
      for (const auto e : edges) {
        const double mag = ((e == argmin) ? min2 : min1) * scale;
        const bool self_neg = b2c[e] < 0.0;
        c2b[e] = (sign_neg != self_neg) ? -mag : mag;
      }
    }
    benchmark::DoNotOptimize(c2b.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(graph.num_edges()));
}
BENCHMARK(BM_C2CnPassFloatGraphWalk);

void BM_C2CnPassFloatSchedule(benchmark::State& state) {
  const auto& sched = C2().code->schedule();
  using Kernel = ldpc::core::FloatCnKernel;
  const ldpc::core::FloatCheckRule rule{13.0 / 16.0, 0.0};
  const auto b2c = RandomFloatMessages(sched.num_edges(), 21);
  std::vector<double> c2b(sched.num_edges());
  for (auto _ : state) {
    for (std::size_t m = 0; m < sched.num_checks(); ++m) {
      const std::size_t e0 = sched.EdgeBegin(m);
      const std::size_t dc = sched.Degree(m);
      const auto summary = Kernel::Compute({b2c.data() + e0, dc});
      for (std::size_t i = 0; i < dc; ++i)
        c2b[e0 + i] = Kernel::Output(summary, i, rule);
    }
    benchmark::DoNotOptimize(c2b.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sched.num_edges()));
}
BENCHMARK(BM_C2CnPassFloatSchedule);

void BM_C2CnPassFixedGraphWalk(benchmark::State& state) {
  const auto& graph = C2().code->graph();
  const auto b2c = RandomFixedMessages(graph.num_edges(), 23);
  std::vector<Fixed> c2b(graph.num_edges());
  std::vector<Fixed> cn_inputs(graph.MaxCheckDegree());
  const DyadicFraction norm{13, 4};
  for (auto _ : state) {
    for (std::size_t m = 0; m < graph.num_checks(); ++m) {
      const auto edges = graph.CheckEdges(m);
      for (std::size_t i = 0; i < edges.size(); ++i)
        cn_inputs[i] = b2c[edges[i]];
      const auto summary =
          ldpc::ComputeCnSummary({cn_inputs.data(), edges.size()});
      for (std::size_t i = 0; i < edges.size(); ++i)
        c2b[edges[i]] = ldpc::CnOutput(summary, i, norm);
    }
    benchmark::DoNotOptimize(c2b.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(graph.num_edges()));
}
BENCHMARK(BM_C2CnPassFixedGraphWalk);

void BM_C2CnPassFixedSchedule(benchmark::State& state) {
  const auto& sched = C2().code->schedule();
  using Kernel = ldpc::core::FixedCnKernel;
  const auto b2c = RandomFixedMessages(sched.num_edges(), 23);
  std::vector<Fixed> c2b(sched.num_edges());
  const DyadicFraction norm{13, 4};
  for (auto _ : state) {
    for (std::size_t m = 0; m < sched.num_checks(); ++m) {
      const std::size_t e0 = sched.EdgeBegin(m);
      const std::size_t dc = sched.Degree(m);
      const auto summary = Kernel::Compute({b2c.data() + e0, dc});
      for (std::size_t i = 0; i < dc; ++i)
        c2b[e0 + i] = Kernel::Output(summary, i, norm);
    }
    benchmark::DoNotOptimize(c2b.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sched.num_edges()));
}
BENCHMARK(BM_C2CnPassFixedSchedule);

// --- PR-3 before/after: whole-frame layered decoding, scalar vs
// lane-batched. Fixed iteration count (et=0) so every variant does
// the identical amount of decode work per frame and the items/s
// difference is purely the batching. Items are frames, so the
// reported rate is frames/s — the headline number of the batched
// decode path.

constexpr int kThroughputIters = 10;

std::vector<double> NoisyC2Frames(std::size_t count, std::uint64_t seed0) {
  std::vector<double> llrs;
  for (std::size_t f = 0; f < count; ++f) {
    const auto frame = NoisyC2Frame(seed0 + 2 * f);
    llrs.insert(llrs.end(), frame.begin(), frame.end());
  }
  return llrs;
}

ldpc::MinSumOptions ThroughputMinSumOptions() {
  ldpc::MinSumOptions o;
  o.iter.max_iterations = kThroughputIters;
  o.iter.early_termination = false;
  return o;
}

void BM_C2LayeredDecodeScalar(benchmark::State& state) {
  const auto& system = C2();
  ldpc::LayeredMinSumDecoder dec(*system.code, ThroughputMinSumOptions());
  const auto llr = NoisyC2Frame(31);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dec.Decode(llr));
  }
  state.SetItemsProcessed(state.iterations());  // frames
}
BENCHMARK(BM_C2LayeredDecodeScalar)->Unit(benchmark::kMillisecond);

void BM_C2LayeredDecodeBatched(benchmark::State& state) {
  const auto& system = C2();
  const auto lanes = static_cast<std::size_t>(state.range(0));
  ldpc::BatchedLayeredDecoder dec(*system.code, ThroughputMinSumOptions(),
                                  lanes);
  const auto llrs = NoisyC2Frames(lanes, 31);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dec.DecodeBatch(llrs, lanes));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(lanes));
}
BENCHMARK(BM_C2LayeredDecodeBatched)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_C2LayeredDecodeBatchedF32(benchmark::State& state) {
  const auto& system = C2();
  const auto lanes = static_cast<std::size_t>(state.range(0));
  ldpc::BatchedLayeredDecoderF32 dec(*system.code, ThroughputMinSumOptions(),
                                     lanes);
  const auto llrs = NoisyC2Frames(lanes, 31);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dec.DecodeBatch(llrs, lanes));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(lanes));
}
BENCHMARK(BM_C2LayeredDecodeBatchedF32)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMillisecond);

// Same decode with a live metrics sink installed: the gap to
// BM_C2LayeredDecodeBatchedF32 is the telemetry layer's enabled-path
// overhead (the disabled path is one null check per probe site and
// shows up as no gap at all when neither bench installs a sink).
void BM_C2LayeredDecodeBatchedF32Metrics(benchmark::State& state) {
  const auto& system = C2();
  const auto lanes = static_cast<std::size_t>(state.range(0));
  ldpc::BatchedLayeredDecoderF32 dec(*system.code, ThroughputMinSumOptions(),
                                     lanes);
  const auto llrs = NoisyC2Frames(lanes, 31);
  obs::MetricsRegistry registry;
  const obs::DecodeMetricIds ids = obs::RegisterDecodeMetrics(registry);
  registry.SetShardCount(1);
  obs::ScopedDecodeSink sink(&registry.shard(0), &ids);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dec.DecodeBatch(llrs, lanes));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(lanes));
}
BENCHMARK(BM_C2LayeredDecodeBatchedF32Metrics)->Arg(16)
    ->Unit(benchmark::kMillisecond);

void BM_C2FixedLayeredDecodeScalar(benchmark::State& state) {
  const auto& system = C2();
  ldpc::FixedMinSumOptions o;
  o.iter.max_iterations = kThroughputIters;
  o.iter.early_termination = false;
  ldpc::FixedLayeredMinSumDecoder dec(*system.code, o);
  const auto llr = NoisyC2Frame(33);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dec.Decode(llr));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_C2FixedLayeredDecodeScalar)->Unit(benchmark::kMillisecond);

// The fixed-point lane engine: the same fixed decode with messages in
// int8 and APPs in int16, lanes in groups of 32, 16 or 1 (a batch of
// 8 runs a 16-lane group with 8 dead lanes). Byte-identical to
// BM_C2FixedLayeredDecodeScalar per frame (tests/test_i8_decoder.cpp).
// Runs whatever ISA tier runtime dispatch selected — set
// CLDPC_ISA=scalar|avx2|avx512 to bench a specific tier.
void BM_C2FixedI8LayeredDecodeBatched(benchmark::State& state) {
  const auto& system = C2();
  const auto lanes = static_cast<std::size_t>(state.range(0));
  ldpc::FixedMinSumOptions o;
  o.iter.max_iterations = kThroughputIters;
  o.iter.early_termination = false;
  ldpc::BatchedFixedI8LayeredDecoder dec(*system.code, o, lanes);
  const auto llrs = NoisyC2Frames(lanes, 33);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dec.DecodeBatch(llrs, lanes));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(lanes));
}
BENCHMARK(BM_C2FixedI8LayeredDecodeBatched)->Arg(1)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);

// The int8 decode with a live metrics sink installed: the kernel runs
// its saturation-counting twin, so the gap to
// BM_C2FixedI8LayeredDecodeBatched/32 is what metrics cost the
// paper's datapath (bench/OBS_OVERHEAD.md).
void BM_C2FixedI8LayeredDecodeBatchedMetrics(benchmark::State& state) {
  const auto& system = C2();
  const auto lanes = static_cast<std::size_t>(state.range(0));
  ldpc::FixedMinSumOptions o;
  o.iter.max_iterations = kThroughputIters;
  o.iter.early_termination = false;
  ldpc::BatchedFixedI8LayeredDecoder dec(*system.code, o, lanes);
  const auto llrs = NoisyC2Frames(lanes, 33);
  obs::MetricsRegistry registry;
  const obs::DecodeMetricIds ids = obs::RegisterDecodeMetrics(registry);
  registry.SetShardCount(1);
  obs::ScopedDecodeSink sink(&registry.shard(0), &ids);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dec.DecodeBatch(llrs, lanes));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(lanes));
}
BENCHMARK(BM_C2FixedI8LayeredDecodeBatchedMetrics)->Arg(32)
    ->Unit(benchmark::kMillisecond);

// One metrics histogram sample: obs::Shard::Record of values spread
// over [0, range) — 18 is an iterations histogram, 20000 a latency
// one in microseconds. The cost every ScopedTimer and every
// per-frame histogram in the engine and the service pays.
void BM_ShardRecord(benchmark::State& state) {
  const auto range = static_cast<std::uint64_t>(state.range(0));
  std::vector<std::int64_t> values(1 << 16);
  std::uint64_t x = 12345;
  for (auto& v : values) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    v = static_cast<std::int64_t>((x >> 33) % range);
  }
  obs::MetricsRegistry registry;
  const obs::HistogramId id =
      registry.Hist("bench.values", obs::Determinism::kWallClock, "us");
  registry.SetShardCount(1);
  obs::Shard& shard = registry.shard(0);
  for (auto _ : state) {
    for (const std::int64_t v : values) shard.Record(id, v);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(values.size()));
}
BENCHMARK(BM_ShardRecord)->Arg(18)->Arg(20000);

// --- Code catalog: the FT8(174, 91) code — the opposite decode
// regime from C2 (83 one-check layers, irregular degree 6/7, 522
// edges vs 32 704). Frames are tiny, so these benches report the
// per-frame overhead floor of the layered paths; the CRC bench is the
// per-frame cost of the receiver's acceptance check.

struct Ft8Fixture {
  ldpc::LdpcCode code = codes::MakeFt8Code();
  ldpc::Encoder encoder{code};
};

Ft8Fixture& Ft8() {
  static Ft8Fixture f;
  return f;
}

std::vector<std::uint8_t> Ft8Payload(std::uint64_t seed) {
  std::vector<std::uint8_t> payload(codes::kFt8PayloadBits);
  Xoshiro256pp rng(seed);
  for (std::size_t i = 0; i < codes::kFt8MessageBits; ++i)
    payload[i] = rng.NextBit() ? 1 : 0;
  codes::Ft8AttachCrc(payload);
  return payload;
}

std::vector<double> NoisyFt8Frames(std::size_t count, std::uint64_t seed0) {
  auto& f = Ft8();
  std::vector<double> llrs;
  for (std::size_t i = 0; i < count; ++i) {
    const auto cw = f.encoder.Encode(Ft8Payload(seed0 + 2 * i));
    const auto frame =
        channel::TransmitBpskAwgn(cw, 2.5, f.code.Rate(), seed0 + 2 * i + 1);
    llrs.insert(llrs.end(), frame.begin(), frame.end());
  }
  return llrs;
}

void BM_Ft8Encode(benchmark::State& state) {
  auto& f = Ft8();
  const auto payload = Ft8Payload(7);
  std::vector<std::uint8_t> codeword(f.code.n());
  gf2::BitVec parity;
  for (auto _ : state) {
    f.encoder.EncodeInto(payload, codeword, parity);
    benchmark::DoNotOptimize(codeword.data());
  }
  state.SetItemsProcessed(state.iterations());  // frames
}
BENCHMARK(BM_Ft8Encode);

void BM_Ft8Crc14(benchmark::State& state) {
  const auto payload = Ft8Payload(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codes::Ft8CheckCrc(payload));
  }
  state.SetItemsProcessed(state.iterations());  // frames
}
BENCHMARK(BM_Ft8Crc14);

void BM_Ft8LayeredDecodeScalar(benchmark::State& state) {
  auto& f = Ft8();
  ldpc::LayeredMinSumDecoder dec(f.code, ThroughputMinSumOptions());
  const auto llrs = NoisyFt8Frames(1, 35);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dec.Decode(llrs));
  }
  state.SetItemsProcessed(state.iterations());  // frames
}
BENCHMARK(BM_Ft8LayeredDecodeScalar);

void BM_Ft8LayeredDecodeBatched(benchmark::State& state) {
  auto& f = Ft8();
  const auto lanes = static_cast<std::size_t>(state.range(0));
  ldpc::BatchedLayeredDecoder dec(f.code, ThroughputMinSumOptions(), lanes);
  const auto llrs = NoisyFt8Frames(lanes, 35);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dec.DecodeBatch(llrs, lanes));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(lanes));
}
BENCHMARK(BM_Ft8LayeredDecodeBatched)->Arg(8);

// --- PR-4 before/after (decoder storage): one full layered iteration
// over the C2 code at 8 f32 lanes, with the PR-3 per-edge stored
// message array vs the compressed per-check records of
// core/cn_compress.hpp. Same kernel math and (per lane) the same
// outputs; the measured gap is the per-edge memory traffic the
// compression removed. Items are lane-messages (edges * lanes), so
// the rate inverts to ns per message update.

constexpr std::size_t kBenchLanes = 8;

struct BenchFoldPolicy {
  using AppValue = float;
  static constexpr bool kCountSat = false;
};

std::vector<float> BenchLaneApp(std::size_t n, std::uint64_t seed) {
  const auto llr = NoisyC2Frame(seed);
  std::vector<float> app(n * kBenchLanes);
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t l = 0; l < kBenchLanes; ++l)
      app[b * kBenchLanes + l] = static_cast<float>(llr[b]);
  }
  return app;
}

void BM_C2BatchedLayeredIterStored(benchmark::State& state) {
  using Batch = ldpc::core::CnUpdateBatch<ldpc::core::Float32Datapath,
                                          kBenchLanes>;
  const auto& sched = C2().code->schedule();
  const ldpc::core::Float32CheckRule rule{13.0f / 16.0f, 0.0f};
  auto app = BenchLaneApp(sched.num_bits(), 41);
  std::vector<float> c2b(sched.num_edges() * kBenchLanes, 0.0f);
  std::vector<float> extr(sched.max_check_degree() * kBenchLanes);
  for (auto _ : state) {
    for (std::size_t m = 0; m < sched.num_checks(); ++m) {
      const std::size_t e0 = sched.EdgeBegin(m);
      const std::size_t dc = sched.Degree(m);
      const auto bits = sched.CheckBits(m);
      for (std::size_t i = 0; i < dc; ++i) {
        const float* a = app.data() + bits[i] * kBenchLanes;
        const float* c = c2b.data() + (e0 + i) * kBenchLanes;
        float* e = extr.data() + i * kBenchLanes;
        for (std::size_t l = 0; l < kBenchLanes; ++l) e[l] = a[l] - c[l];
      }
      const auto summary = Batch::Compute(extr.data(), dc);
      for (std::size_t i = 0; i < dc; ++i) {
        float* a = app.data() + bits[i] * kBenchLanes;
        float* c = c2b.data() + (e0 + i) * kBenchLanes;
        const float* e = extr.data() + i * kBenchLanes;
        Batch::OutputRow(summary, i, extr.data() + i * kBenchLanes, rule, c);
        for (std::size_t l = 0; l < kBenchLanes; ++l) a[l] = e[l] + c[l];
      }
    }
    benchmark::DoNotOptimize(app.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(sched.num_edges() * kBenchLanes));
}
BENCHMARK(BM_C2BatchedLayeredIterStored);

void BM_C2BatchedLayeredIterCompressed(benchmark::State& state) {
  using Datapath = ldpc::core::Float32Datapath;
  const auto& sched = C2().code->schedule();
  const ldpc::core::Float32CheckRule rule{13.0f / 16.0f, 0.0f};
  const BenchFoldPolicy pol;
  auto app = BenchLaneApp(sched.num_bits(), 41);
  std::vector<float> extr(sched.max_check_degree() * kBenchLanes);
  ldpc::core::CompressedCnLanes<Datapath> store;
  store.Resize(sched.num_checks(), kBenchLanes);
  ldpc::core::CompressedCnView<Datapath, kBenchLanes> msgs(store);
  msgs.Reset(sched.num_checks());
  int uncounted = 0;  // kCountSat is false: never touched
  for (auto _ : state) {
    for (std::size_t m = 0; m < sched.num_checks(); ++m) {
      const std::size_t dc = sched.Degree(m);
      const auto bits = sched.CheckBits(m);
      const auto summary = msgs.PeelScan(m, dc, bits.data(), app.data(),
                                         extr.data(), pol, uncounted);
      msgs.Store(m, summary, rule);
      msgs.FoldFresh(m, dc, bits.data(), extr.data(), app.data(), pol,
                     uncounted);
    }
    benchmark::DoNotOptimize(app.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(sched.num_edges() * kBenchLanes));
}
BENCHMARK(BM_C2BatchedLayeredIterCompressed);

// --- PR-4 before/after (channel frontend): staging one C2 frame from
// codeword bits to decoder LLRs, the allocating per-frame chain
// (modulate / transmit / LLR each returning a fresh vector — what
// SimEngine did before the FrameScratch path) vs the allocation-free
// *Into chain with reused buffers and the batched Gaussian draw.
// Items are frames.

std::vector<std::uint8_t> BenchCodeword() {
  const auto& system = C2();
  Xoshiro256pp rng(47);
  std::vector<std::uint8_t> info(system.code->k());
  for (auto& b : info) b = rng.NextBit() ? 1 : 0;
  return system.encoder->Encode(info);
}

void BM_FrontendPerFrameAllocating(benchmark::State& state) {
  const auto cw = BenchCodeword();
  const double sigma = channel::SigmaForEbN0(4.0, C2().code->Rate());
  std::uint64_t seed = 1;
  for (auto _ : state) {
    channel::AwgnChannel ch(sigma, seed++);
    const auto symbols = channel::BpskModulate(cw);
    const auto received = ch.Transmit(symbols);
    auto llr = ch.Llrs(received);
    benchmark::DoNotOptimize(llr.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FrontendPerFrameAllocating);

void BM_FrontendStagedInto(benchmark::State& state) {
  const auto cw = BenchCodeword();
  const double sigma = channel::SigmaForEbN0(4.0, C2().code->Rate());
  std::vector<double> symbols(cw.size()), llr(cw.size());
  std::uint64_t seed = 1;
  for (auto _ : state) {
    channel::AwgnChannel ch(sigma, seed++);
    channel::BpskModulateInto(cw, symbols);
    ch.TransmitLlrsInto(symbols, llr);
    benchmark::DoNotOptimize(llr.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FrontendStagedInto);

void BM_ArchDecoderC2PerEdge(benchmark::State& state) {
  const auto& system = C2();
  arch::ArchConfig config = arch::LowCostConfig();
  config.iterations = static_cast<int>(state.range(0));
  arch::ArchDecoder dec(*system.code, system.qc, config);
  const auto llr = NoisyC2Frame(17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dec.Decode(llr));
  }
  // Simulated hardware cycles per wall-second of simulation.
  state.counters["hw_cycles"] = static_cast<double>(
      dec.LastStats().total_cycles);
}
BENCHMARK(BM_ArchDecoderC2PerEdge)->Arg(10)->Arg(18)
    ->Unit(benchmark::kMillisecond);

void BM_ArchDecoderC2Compressed(benchmark::State& state) {
  const auto& system = C2();
  arch::ArchConfig config = arch::HighSpeedConfig();
  config.frames_per_word = 1;  // single-lane compressed for comparison
  config.iterations = 18;
  arch::ArchDecoder dec(*system.code, system.qc, config);
  const auto llr = NoisyC2Frame(19);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dec.Decode(llr));
  }
}
BENCHMARK(BM_ArchDecoderC2Compressed)->Unit(benchmark::kMillisecond);

// --- Custom main: console reporting as usual, plus optional --json.

/// True if the run produced no usable measurement. Version-portable:
/// google-benchmark < 1.8 exposes `error_occurred`, >= 1.8 replaced
/// it with the `skipped` field — detect whichever exists.
template <class R>
auto RunWasSkipped(const R& run, int) -> decltype(run.error_occurred, bool()) {
  return run.error_occurred;
}
template <class R>
auto RunWasSkipped(const R& run, long) -> decltype(run.skipped, bool()) {
  return static_cast<bool>(run.skipped);
}

/// ConsoleReporter that also keeps every per-iteration run for the
/// JSON dump.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& report) override {
    for (const auto& run : report) {
      if (run.run_type == Run::RT_Iteration && !RunWasSkipped(run, 0))
        runs_.push_back(run);
    }
    ConsoleReporter::ReportRuns(report);
  }
  const std::vector<Run>& runs() const { return runs_; }

 private:
  std::vector<Run> runs_;
};

bool WriteJson(const std::string& path, const std::vector<
               benchmark::BenchmarkReporter::Run>& runs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_kernels: cannot open %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& run = runs[i];
    const double iters = run.iterations > 0
                             ? static_cast<double>(run.iterations)
                             : 1.0;
    const double real_ns = run.real_accumulated_time / iters * 1e9;
    std::fprintf(f, "    {\"name\": \"%s\", \"iterations\": %lld, "
                    "\"real_time_ns\": %.6g",
                 run.benchmark_name().c_str(),
                 static_cast<long long>(run.iterations), real_ns);
    const auto items = run.counters.find("items_per_second");
    if (items != run.counters.end() && items->second.value > 0.0) {
      // items/s and its inverse: frames/s for the decode benchmarks,
      // ns/edge (as ns_per_item) for the CN-pass benchmarks.
      std::fprintf(f, ", \"items_per_second\": %.6g, \"ns_per_item\": %.6g",
                   items->second.value, 1e9 / items->second.value);
    }
    std::fprintf(f, "}%s\n", i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // Peel --json[=| ]<path> off before benchmark::Initialize, which
  // rejects flags it does not know.
  std::string json_path;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      args.push_back(argv[i]);
    }
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data()))
    return 1;
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_path.empty() && !WriteJson(json_path, reporter.runs())) return 1;
  return 0;
}
