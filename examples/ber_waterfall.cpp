// BER waterfall demo over any catalog code: sweeps Eb/N0 comparing
// the fixed-point architecture datapath against floating-point
// min-sum, or any registered decoder specs.
//
// Frames are decoded by the parallel Monte-Carlo engine; results are
// bit-identical for every --threads value (see engine/sim_engine.hpp).
//
//   ./ber_waterfall [--code=<spec>] [--c2] [--snrs=3.0,3.5,...]
//                   [--frames=N] [--threads=N]  (0 = all hw threads)
//                   [--decoder="spec[;spec...]"]
//                   [--list-codes] [--list-decoders]
//                   [--dump-alist=<path>]
//                   [--metrics] [--metrics-json=<path>]
//                   [--trace-json=<path>]
//                   [--checkpoint=<path>] [--resume=<path>]
//                   [--cancel-after-frames=N]
//
// --metrics prints the decode-telemetry table; --metrics-json /
// --trace-json write the cldpc-metrics-v1 JSON and a chrome://tracing
// trace (see src/obs/export.hpp). Telemetry is observation-only: the
// BER table is byte-identical with or without these flags.
//
// --code selects any catalog code (grammar: codes/catalog.hpp;
// default "medium", or "c2" under the legacy --c2 flag). Codes with a
// CRC (e.g. ft8) additionally report the undetected-error-rate (UER)
// column — the frames a real receiver would accept despite bit
// errors. --decoder selects registered decoder(s) instead of the
// default fixed-vs-float pair (grammar: ldpc/core/registry.hpp).
// --dump-alist writes the selected code's parity-check matrix in
// alist interchange format and exits; the file round-trips through
// --code=alist:<path> with bit-identical curves for codes fully
// described by H (an alist carries no protocol hooks, so ft8's CRC
// frame source/check are not preserved).
// ^C / SIGTERM any time: the engine finishes the batch in flight,
// keeps every frame already measured, prints the partial table,
// flushes --metrics-json / --trace-json, and exits 0. A second signal
// aborts immediately (exit 130).
//
// --checkpoint=<path> additionally persists the sweep's exact
// statistics (atomic write, CRC-guarded — see dist/sweep.hpp) after
// every point and on interruption; --resume=<path> continues such a
// run and the finished curves are bit-identical to an uninterrupted
// sweep, early stops included. The checkpoint carries a parameter
// fingerprint: resuming with different --code/--snrs/--frames/
// --decoder parameters is refused (exit 2), --threads may change
// freely. --cancel-after-frames=N is a determinism hook for tests:
// it requests shutdown from inside the frame callback after the Nth
// frame, exactly where ^C would be honored.
#include <chrono>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "codes/alist.hpp"
#include "codes/catalog.hpp"
#include "dist/sweep.hpp"
#include "engine/sim_engine.hpp"
#include "ldpc/core/registry.hpp"
#include "obs/session.hpp"
#include "sim/ber_runner.hpp"
#include "util/cli.hpp"
#include "util/shutdown.hpp"

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

  const std::string code_spec = args.GetString(
      "code", args.GetBool("c2") ? "c2" : "medium");
  const auto system = codes::LoadCode(code_spec);
  const auto& code = *system.code;
  std::printf("Code: %s (%zu, %zu), rate %.3f, %zu edges\n",
              system.name.c_str(), code.n(), code.k(), code.Rate(),
              code.graph().num_edges());

  if (args.Has("dump-alist")) {
    const std::string path = args.GetString("dump-alist", "");
    codes::WriteAlistFile(path, code.h());
    std::printf("Wrote %s in alist format; load it back with "
                "--code=alist:%s\n", path.c_str(), path.c_str());
    return 0;
  }

  sim::BerConfig config;
  config.ebn0_db = args.GetDoubleList(
      "snrs", {3.0, 3.4, 3.8, 4.2, 4.6});
  const bool big_code = code.n() > 4000;
  config.max_frames =
      static_cast<std::uint64_t>(args.GetInt("frames", big_code ? 40 : 400));
  config.min_frame_errors = 15;
  config.threads = static_cast<std::size_t>(args.GetInt("threads", 1));
  config.frame_source = system.frame_source;
  config.frame_check = system.frame_check;
  util::InstallShutdownHandler();
  config.cancel = &util::ShutdownRequested();

  obs::Session obs_session(args, {.trace = true});
  config.metrics = obs_session.metrics();

  engine::SimEngine sim(code, *system.encoder, config);
  std::printf("Engine threads: %zu\n",
              engine::ResolveThreads(config.threads));

  // Test hook: request shutdown from inside the (in-order) frame
  // callback after N consumed frames — a deterministic stand-in for
  // ^C, so checkpoint/resume smoke tests interrupt at a reproducible
  // frame regardless of timing.
  const std::uint64_t cancel_after = args.GetUint("cancel-after-frames", 0);
  std::uint64_t frames_seen = 0;
  sim::FrameCallback on_frame;
  if (cancel_after > 0) {
    on_frame = [&frames_seen, cancel_after](std::size_t, std::uint64_t, bool) {
      if (++frames_seen == cancel_after) util::RequestShutdownForTest();
    };
  }

  const std::string checkpoint_path = args.GetString("checkpoint", "");
  const std::string resume_path = args.GetString("resume", "");
  const bool checkpointed = !checkpoint_path.empty() || !resume_path.empty();
  // Where progress is saved: --checkpoint names it; --resume alone
  // continues AND keeps saving to the same file.
  const std::string save_path =
      !checkpoint_path.empty() ? checkpoint_path : resume_path;

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<sim::BerCurve> curves;
  bool sweep_complete = true;
  if (checkpointed) {
    std::vector<std::string> specs =
        args.Has("decoder")
            ? args.GetStringList("decoder", {})
            : std::vector<std::string>{"fixed-nms:iters=18",
                                       "nms:iters=18,alpha=1.23"};
    dist::ResumableSweep sweep(code, *system.encoder, system.name, config,
                               specs);
    std::printf("Sweep fingerprint: %08x (checkpoint: %s)\n",
                sweep.Fingerprint(), save_path.c_str());
    if (!resume_path.empty()) {
      const auto status = sweep.LoadCheckpoint(resume_path);
      switch (status) {
        case dist::CheckpointStatus::kOk:
          std::printf("Resumed from %s.\n", resume_path.c_str());
          break;
        case dist::CheckpointStatus::kMissing:
          std::printf("No checkpoint at %s yet — starting fresh.\n",
                      resume_path.c_str());
          break;
        default:
          throw std::invalid_argument(
              std::string("cannot resume from ") + resume_path + ": " +
              dist::ToString(status) +
              " (same --code/--snrs/--frames/--decoder as the original "
              "run?)");
      }
    }
    sweep_complete = sweep.Run(save_path, on_frame);
    curves = sweep.curves();
    if (!args.Has("decoder") && curves.size() == 2) {
      curves[0].decoder_name = "fixed NMS-18";
      curves[1].decoder_name = "float NMS-18";
    }
  } else if (args.Has("decoder")) {
    // Build (and so validate) every spec's factory before the first
    // curve runs: a typo in the last spec must cost no sweep.
    const auto specs = args.GetStringList("decoder", {});
    std::vector<engine::DecoderFactory> factories;
    for (const auto& spec : specs)
      factories.push_back(ldpc::MakeDecoderFactory(code, spec));
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (util::ShutdownRequested()) break;
      std::printf("Running %s...\n", specs[i].c_str());
      curves.push_back(sim.Run(factories[i], on_frame));
    }
  } else {
    // Default comparison, built through the same registry seam: the
    // 6-bit fixed datapath vs floating-point NMS at 18 iterations.
    std::printf("Running fixed-point NMS-18...\n");
    auto fixed =
        sim.Run(ldpc::MakeDecoderFactory(code, "fixed-nms:iters=18"), on_frame);
    fixed.decoder_name = "fixed NMS-18";
    curves.push_back(std::move(fixed));
    if (!util::ShutdownRequested()) {
      std::printf("Running float NMS-18...\n");
      auto nms = sim.Run(
          ldpc::MakeDecoderFactory(code, "nms:iters=18,alpha=1.23"), on_frame);
      nms.decoder_name = "float NMS-18";
      curves.push_back(std::move(nms));
    }
  }

  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  if (util::ShutdownRequested()) {
    std::printf("\nInterrupted — PARTIAL results: points still running kept "
                "only the frames measured before the signal.\n");
    if (checkpointed && !sweep_complete) {
      std::printf("Progress saved; continue with --resume=%s (identical "
                  "parameters) for curves bit-identical to an "
                  "uninterrupted run.\n", save_path.c_str());
    }
  }
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
  if (system.frame_check) {
    std::printf("\nUER counts frames the code's CRC accepted despite bit "
                "errors — the undetected-error rate a deployed receiver "
                "would suffer.\n");
  }
  if (!args.Has("decoder")) {
    std::printf("\nThe 6-bit fixed datapath should track the float curve to "
                "within the waterfall's statistical noise — the architecture "
                "pays almost nothing for quantization.\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return cldpc::GuardedMain(argc, argv, RunMain);
}
