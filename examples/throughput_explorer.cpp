// Explore the architecture's design space: iterations vs throughput
// for any genericity setting, with the resource bill next to it.
//
// With --measure-ebn0=X the closed-form model is complemented by a
// Monte-Carlo measurement: the parallel engine decodes real frames at
// that Eb/N0 with the fixed datapath and early termination, and the
// measured average iteration count is turned into the effective
// throughput an early-termination-capable controller would reach.
//
//   ./throughput_explorer [--frames-per-word=8] [--compressed]
//                         [--clock-mhz=200] [--npb=1]
//                         [--measure-ebn0=4.2] [--measure-frames=24]
//                         [--threads=N] [--seed=N]
//                         [--decoder=<spec>] [--code=<spec>]
//                         [--batch-frames=N] [--alloc-stats]
//                         [--metrics] [--metrics-json=<path>]
//                         [--trace-json=<path>]
//                         [--list-codes] [--list-decoders] [--cpu-info]
//
// --decoder swaps the decoder the measurement runs (default: the
// fixed datapath at the configured iteration count); any registered
// spec works, see ldpc/core/registry.hpp for the grammar. Batched
// SIMD specs (e.g. "layered-nms-f32:batch=16") want --batch-frames at
// least as large as their lane count so the engine hands them full
// lane groups; the measured table reports the resulting simulation
// rate in frames/s next to the modelled hardware throughput.
//
// --code swaps the code the measurement decodes for any catalog
// entry (grammar: codes/catalog.hpp; default "c2"). The modelled
// throughput/resource tables always describe the paper's C2
// architecture; the measured table is whatever code you picked, so
// e.g. --code=ft8 contrasts an 83-check irregular decode against the
// C2 hardware model. --list-codes / --list-decoders print the
// registered names and exit.
//
// --cpu-info prints which lane-kernel ISA tiers this build compiled,
// which ones the executing CPU supports, and the tier runtime
// dispatch selected (ldpc/core/dispatch.hpp) — the replacement for
// the old compile-time-AVX2 startup abort. CLDPC_ISA=scalar|avx2|
// avx512 in the environment overrides the selection.
//
// --alloc-stats (with --measure-ebn0) additionally reports heap
// allocations per simulated frame during the measurement — the lock
// on the engine's zero-allocation steady-state channel staging.
// Referencing obs::AllocSnapshot links the obs/alloc_probe TU, whose
// replaced global operator new counts every allocation in the binary;
// the number includes the decoder's per-frame result vectors
// (~1/frame) and the engine's small per-batch bookkeeping; the
// channel frontend itself contributes zero after warmup.
//
// --metrics / --metrics-json / --trace-json (with --measure-ebn0)
// export the decode telemetry of the measurement run (see
// src/obs/export.hpp for the schema and the determinism labelling).
// ^C / SIGTERM during --measure-ebn0: the engine keeps the frames
// already measured, the table reports the partial sample, metrics
// still flush, exit status stays 0. A second signal exits 130.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>

#include "arch/resources.hpp"
#include "arch/throughput.hpp"
#include "codes/catalog.hpp"
#include "engine/sim_engine.hpp"
#include "ldpc/core/dispatch.hpp"
#include "ldpc/core/registry.hpp"
#include "obs/alloc_probe.hpp"
#include "obs/session.hpp"
#include "qc/ccsds_c2.hpp"
#include "sim/ber_runner.hpp"
#include "util/cli.hpp"
#include "util/shutdown.hpp"
#include "util/table.hpp"

namespace {

int RunMain(int argc, char** argv) {
  using namespace cldpc;
  const ArgParser args(argc, argv);
  if (args.GetBool("list-codes")) {
    std::printf("Registered codes (--code=<spec>):\n");
    for (const auto& [kind, description] : codes::CodeCatalogSummary())
      std::printf("  %-14s %s\n", kind.c_str(), description.c_str());
    return 0;
  }
  if (args.GetBool("list-decoders")) {
    std::printf("Registered decoder kinds (--decoder=<spec>):\n");
    for (const auto& kind : ldpc::RegisteredDecoderKinds())
      std::printf("  %s\n", kind.c_str());
    return 0;
  }
  if (args.GetBool("cpu-info")) {
    std::printf("%s", ldpc::core::DescribeCpuDispatch().c_str());
    return 0;
  }

  arch::ArchConfig config = arch::LowCostConfig();
  config.frames_per_word =
      static_cast<std::size_t>(args.GetInt("frames-per-word", 1));
  config.processing_blocks = static_cast<std::size_t>(args.GetInt("npb", 1));
  config.clock_mhz = args.GetDouble("clock-mhz", 200.0);
  if (args.GetBool("compressed"))
    config.storage = arch::MessageStorage::kCompressedCn;
  arch::Validate(config);

  const arch::CodeGeometry geometry;
  constexpr std::size_t kPayload = qc::C2Constants::kTxInfoBits;

  std::printf("Configuration: F=%zu, NPB=%zu, %s storage, %.0f MHz\n\n",
              config.frames_per_word, config.processing_blocks,
              ToString(config.storage).c_str(), config.clock_mhz);

  TablePrinter table({"Iterations", "Throughput", "Latency/batch"});
  for (const int iters : {5, 10, 15, 18, 25, 32, 50, 64}) {
    table.AddRow(
        {std::to_string(iters),
         FormatDouble(arch::ThroughputModel::OutputMbps(config, geometry.q,
                                                        kPayload, iters),
                      1) +
             " Mbps",
         FormatDouble(
             arch::ThroughputModel::BatchLatencyUs(config, geometry.q, iters),
             1) +
             " us"});
  }
  std::printf("%s", table.Render("Throughput vs iterations").c_str());

  const auto resources = arch::EstimateResources(config, geometry);
  TablePrinter res({"Resource", "Estimate"});
  res.AddRow({"ALUTs", FormatCount(resources.aluts)});
  res.AddRow({"Registers", FormatCount(resources.registers)});
  res.AddRow({"Memory bits", FormatCount(resources.memory_bits)});
  std::printf("\n%s", res.Render("Resource bill").c_str());

  if (args.Has("measure-ebn0")) {
    const double ebn0 = args.GetDouble("measure-ebn0", 4.2);
    sim::BerConfig mc;
    mc.ebn0_db = {ebn0};
    mc.max_frames =
        static_cast<std::uint64_t>(args.GetInt("measure-frames", 24));
    mc.min_frame_errors = mc.max_frames;  // measure the full sample
    mc.base_seed = args.GetUint("seed", 2009);
    mc.threads = static_cast<std::size_t>(args.GetInt("threads", 0));
    // Batched decoders decode whole engine batches in SIMD lanes, so
    // the batch size doubles as their lane-group fill (results are
    // batch-size independent — see the engine contract).
    mc.batch_frames =
        static_cast<std::uint64_t>(args.GetInt("batch-frames", 16));

    const std::string spec = args.GetString(
        "decoder",
        "fixed-nms:iters=" + std::to_string(config.iterations) + ",et=1");
    const std::string code_spec = args.GetString("code", "c2");
    std::printf("\nMeasuring average iterations at %.2f dB (%llu frames, "
                "%zu threads, code %s, decoder %s)...\n",
                ebn0, static_cast<unsigned long long>(mc.max_frames),
                engine::ResolveThreads(mc.threads), code_spec.c_str(),
                spec.c_str());
    const auto system = codes::LoadCode(code_spec);
    mc.frame_source = system.frame_source;
    mc.frame_check = system.frame_check;
    util::InstallShutdownHandler();
    mc.cancel = &util::ShutdownRequested();
    obs::Session obs_session(args, {.trace = true});
    mc.metrics = obs_session.metrics();

    engine::SimEngine sim(*system.code, *system.encoder, mc);
    const bool alloc_stats = args.GetBool("alloc-stats");
    const obs::AllocStats allocs_before = obs::AllocSnapshot();
    const auto t0 = std::chrono::steady_clock::now();
    const auto curve = sim.Run(ldpc::MakeDecoderFactory(*system.code, spec));
    const auto elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const obs::AllocStats alloc_run = obs::AllocDelta(allocs_before);
    if (util::ShutdownRequested()) {
      std::printf("\nInterrupted — measured operating point is PARTIAL "
                  "(frames decoded before the signal only).\n");
    }
    if (curve.points.empty() || curve.points.front().frames == 0) {
      // Interrupted before any frame finished: there is no operating
      // point to report, but metrics still flush and the exit is
      // clean.
      if (mc.metrics) mc.metrics->SetGauge("engine.elapsed_seconds", elapsed);
      obs_session.Export();
      return 0;
    }
    const auto& point = curve.points.front();
    const double sim_fps =
        elapsed > 0.0 ? static_cast<double>(point.frames) / elapsed : 0.0;

    // Effective batch latency at the measured (fractional) iteration
    // count, by interpolating the cycle-accurate model.
    const int lo = static_cast<int>(std::floor(point.avg_iterations));
    const int hi = static_cast<int>(std::ceil(point.avg_iterations));
    const double frac = point.avg_iterations - lo;
    const double latency_us =
        (1.0 - frac) * arch::ThroughputModel::BatchLatencyUs(config,
                                                             geometry.q, lo) +
        frac * arch::ThroughputModel::BatchLatencyUs(config, geometry.q, hi);
    const double payload_bits =
        static_cast<double>(kPayload * config.frames_per_word *
                            config.processing_blocks);
    const double effective_mbps = payload_bits / latency_us;  // bits/us

    TablePrinter mt({"Metric", "Value"});
    mt.AddRow({"Eb/N0", FormatDouble(ebn0, 2) + " dB"});
    mt.AddRow({"Frames decoded", FormatCount(point.frames)});
    mt.AddRow({"PER", FormatScientific(point.frame_errors.Rate(), 2)});
    if (system.frame_check) {
      mt.AddRow(
          {"UER (CRC)", FormatScientific(point.undetected_errors.Rate(), 2)});
    }
    mt.AddRow({"Avg iterations", FormatDouble(point.avg_iterations, 2)});
    mt.AddRow({"Simulation rate", FormatDouble(sim_fps, 1) + " frames/s"});
    mt.AddRow({"Fixed-iteration throughput",
               FormatDouble(arch::ThroughputModel::OutputMbps(
                                config, geometry.q, kPayload,
                                config.iterations),
                            1) +
                   " Mbps"});
    mt.AddRow({"Early-termination throughput",
               FormatDouble(effective_mbps, 1) + " Mbps"});
    if (alloc_stats && !obs::AllocProbeActive()) {
      std::printf("\n--alloc-stats: probe not linked into this binary "
                  "(stub active) — counts unavailable.\n");
    } else if (alloc_stats && point.frames > 0) {
      const double frames = static_cast<double>(point.frames);
      mt.AddRow({"Heap allocations/frame",
                 FormatDouble(static_cast<double>(alloc_run.count) / frames,
                              2)});
      mt.AddRow({"Heap bytes/frame",
                 FormatDouble(static_cast<double>(alloc_run.bytes) / frames,
                              0)});
    }
    std::printf("\n%s", mt.Render("Measured operating point").c_str());
    if (mc.metrics) {
      mc.metrics->SetGauge("engine.elapsed_seconds", elapsed);
      mc.metrics->SetGauge("engine.frames_per_second", sim_fps);
    }
    obs_session.Export();
    std::printf("\nThe gap is what an early-termination controller would "
                "buy: above the waterfall most frames converge well "
                "before iteration %d.\n",
                config.iterations);
  }

  std::printf("\nTry --frames-per-word=8 --compressed for the paper's "
              "high-speed point.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return cldpc::GuardedMain(argc, argv, RunMain);
}
