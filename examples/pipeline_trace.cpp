// Figure 3 companion: a cycle-level trace of the controller schedule
// — what the base parallel architecture is doing, when, and through
// which memories, for the first iterations of a frame decode.
//
//   ./pipeline_trace [--iterations=3] [--frames-per-word=1]
#include <cstdio>

#include "arch/controller.hpp"
#include "arch/resources.hpp"
#include "qc/ccsds_c2.hpp"
#include "util/cli.hpp"

namespace {

int RunMain(int argc, char** argv) {
  using namespace cldpc;
  const ArgParser args(argc, argv);
  const int iterations = static_cast<int>(args.GetInt("iterations", 3));

  arch::ArchConfig config = arch::LowCostConfig();
  config.frames_per_word =
      static_cast<std::size_t>(args.GetInt("frames-per-word", 1));
  config.iterations = iterations;

  const arch::Controller controller(config, qc::C2Constants::kQ,
                                    qc::C2Constants::kN);

  std::printf("Base parallel architecture (paper Fig. 3), q = 511:\n");
  std::printf("  - 2 CN units (one per block row), each eating 32 messages "
              "per cycle\n");
  std::printf("  - 16 BN units (one per block column), each eating 4 "
              "messages + 1 channel LLR per cycle\n");
  std::printf("  - 64 message banks of 511 words (one per circulant "
              "stripe), F = %zu frame(s)/word\n",
              config.frames_per_word);
  std::printf("  - double-buffered input (8176 LLRs) and output (8176 hard "
              "bits)\n\n");

  std::printf("cycle      span        phase  it  activity\n");
  std::printf("---------- ----------- -----  --  -----------------------------"
              "---\n");
  for (const auto& span : controller.BuildSchedule(iterations)) {
    const char* activity = "";
    switch (span.phase) {
      case arch::Phase::kLoad:
        activity = "next frame streams into the idle input buffer (hidden)";
        break;
      case arch::Phase::kCheckNode:
        activity = "2 CNs/cycle: read bc, 2-min + signs, normalize, write cb";
        break;
      case arch::Phase::kBitNode:
        activity = "16 BNs/cycle: read cb + LLR, APP, write bc + hard bit";
        break;
      case arch::Phase::kSyndrome:
        activity = "syndrome check";
        break;
      case arch::Phase::kOutput:
        activity = "hard decisions stream out of the finished buffer";
        break;
    }
    std::printf("%10llu %11llu %5s  %2d  %s\n",
                static_cast<unsigned long long>(span.start_cycle),
                static_cast<unsigned long long>(span.length),
                arch::ToString(span.phase).c_str(), span.iteration, activity);
  }

  const auto stats = controller.MakeStats(iterations);
  std::printf("\nTotals: %llu cycles for %d iterations (%llu/iteration); "
              "I/O of %llu cycles hidden: %s\n",
              static_cast<unsigned long long>(stats.total_cycles), iterations,
              static_cast<unsigned long long>(controller.IterationCycles()),
              static_cast<unsigned long long>(controller.IoCycles()),
              controller.IoIsHidden(iterations) ? "yes" : "NO");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return cldpc::GuardedMain(argc, argv, RunMain);
}
