// Regenerates Figure 4: BER and PER of the CCSDS C2 decoder vs Eb/N0.
//
// Curves:
//  * fixed-point normalized min-sum, 18 iterations (the shipped
//    decoders' operating point),
//  * fixed-point normalized min-sum, 50 iterations (the CCSDS
//    reference setting),
//  * plain min-sum (alpha = 1), 18 iterations — the baseline the fine
//    scaled correction factor is measured against,
//  * floating-point BP, 50 iterations — the algorithmic bound.
//
// The paper's claims to check against the output: no error floor in
// the simulated range; NMS-18 tracks the 50-iteration curves (the
// "18 iterations instead of 50" trade); plain MS-18 is visibly worse.
//
// Frames run on the parallel Monte-Carlo engine; for a fixed --seed
// the table is byte-identical for every --threads value, so the flag
// is purely a wall-clock knob (near-linear on independent frames).
//
// Flags: --snrs=3.4,3.6,... --frames=N --min-errors=N --seed=N
//        --threads=N (0 = all hardware threads) --quick
//        --decoder="spec[;spec...]"  (run only the given registered
//        decoder specs instead of the default four-curve suite; see
//        ldpc/core/registry.hpp for the grammar)
//        --code=<spec>  (measure any catalog code instead of C2; see
//        codes/catalog.hpp — codes with a CRC, e.g. ft8, add the
//        undetected-error-rate column)
//        --metrics --metrics-json=<path> --trace-json=<path>
//        (decode-telemetry table / cldpc-metrics-v1 JSON /
//        chrome://tracing trace of the run; observation-only, the
//        BER/PER table stays byte-identical — see src/obs/export.hpp)
#include <chrono>
#include <cstdio>

#include "codes/catalog.hpp"
#include "engine/sim_engine.hpp"
#include "ldpc/core/registry.hpp"
#include "obs/session.hpp"
#include "sim/ber_runner.hpp"
#include "util/cli.hpp"

namespace {

int RunMain(int argc, char** argv) {
  using namespace cldpc;
  const ArgParser args(argc, argv);
  const bool quick = args.GetBool("quick");

  sim::BerConfig config;
  config.ebn0_db =
      args.GetDoubleList("snrs", quick ? std::vector<double>{3.6, 4.0}
                                       : std::vector<double>{3.4, 3.6, 3.8,
                                                             4.0, 4.2});
  config.max_frames =
      static_cast<std::uint64_t>(args.GetInt("frames", quick ? 12 : 60));
  config.min_frame_errors =
      static_cast<std::uint64_t>(args.GetInt("min-errors", 12));
  config.base_seed = args.GetUint("seed", 2009);
  config.threads = static_cast<std::size_t>(args.GetInt("threads", 1));

  const std::string code_spec = args.GetString("code", "c2");
  std::printf("Building code %s...\n", code_spec.c_str());
  const auto system = codes::LoadCode(code_spec);
  // C2-sized frames are expensive; small batches keep all workers
  // fed. Short codes want bigger batches to fill SIMD lane groups.
  config.batch_frames = system.code->n() > 4000 ? 2 : 16;
  config.frame_source = system.frame_source;
  config.frame_check = system.frame_check;

  obs::Session obs_session(args, {.trace = true});
  config.metrics = obs_session.metrics();

  engine::SimEngine sim(*system.code, *system.encoder, config);
  std::printf("Engine threads: %zu\n",
              engine::ResolveThreads(config.threads));

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<sim::BerCurve> curves;

  if (args.Has("decoder")) {
    // Build (and so validate) every spec's factory before the first
    // curve runs: a typo in the last spec must cost no sweep.
    const auto specs = args.GetStringList("decoder", {});
    std::vector<engine::DecoderFactory> factories;
    for (const auto& spec : specs)
      factories.push_back(ldpc::MakeDecoderFactory(*system.code, spec));
    for (std::size_t i = 0; i < specs.size(); ++i) {
      std::printf("Running %s...\n", specs[i].c_str());
      curves.push_back(sim.Run(factories[i]));
    }
  } else {
    // The default Figure-4 suite, built through the registry seam.
    const auto run = [&](const char* spec, const char* label) {
      auto curve = sim.Run(ldpc::MakeDecoderFactory(*system.code, spec));
      curve.decoder_name = label;
      curves.push_back(std::move(curve));
    };
    std::printf("Running fixed NMS (18 iterations)...\n");
    run("fixed-nms:iters=18", "NMS-18 fixed");
    std::printf("Running fixed NMS (50 iterations)...\n");
    run("fixed-nms:iters=50", "NMS-50 fixed");
    std::printf("Running plain min-sum (alpha=1, 18 iterations)...\n");
    run("ms:iters=18", "MS-18 plain");
    if (!quick) {
      std::printf("Running floating-point BP (50 iterations)...\n");
      run("bp:iters=50", "BP-50 float");
    }
  }
  const auto elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();

  std::printf("\n%s", sim::RenderCurves(curves).c_str());

  if (obs::MetricsRegistry* metrics = obs_session.metrics()) {
    std::uint64_t frames = 0;
    for (const auto& curve : curves)
      for (const auto& point : curve.points) frames += point.frames;
    metrics->SetGauge("engine.elapsed_seconds", elapsed);
    metrics->SetGauge("engine.frames_per_second",
                      elapsed > 0.0 ? static_cast<double>(frames) / elapsed
                                    : 0.0);
  }
  obs_session.Export();

  std::printf("\nSimulated %.1f s at %zu thread(s); per-point frame counts "
              "are in the table (early stop at %llu frame errors, cap "
              "%llu); info-bit BER over %zu bits/frame.\n",
              elapsed, engine::ResolveThreads(config.threads),
              static_cast<unsigned long long>(config.min_frame_errors),
              static_cast<unsigned long long>(config.max_frames),
              system.code->k());
  if (code_spec == "c2") {
    std::printf("Expected shape (paper Fig. 4): waterfall between ~3.6 and "
                "~4.2 dB; NMS-18 within ~0.05-0.1 dB of the 50-iteration "
                "curves; plain MS-18 clearly worse; no error floor.\n");
  } else if (system.frame_check) {
    std::printf("UER counts frames the code's CRC accepted despite bit "
                "errors (the receiver's undetected-error rate).\n");
  }
  std::printf("Increase --frames (e.g. 2000) to resolve BERs below 1e-6; "
              "--threads=0 uses every core.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return cldpc::GuardedMain(argc, argv, RunMain);
}
