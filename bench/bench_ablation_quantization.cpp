// Ablation: message word width. The paper's "optimized storage of the
// data" rests on narrow fixed-point messages; this sweep shows the
// error-rate cost of each width together with the message-memory bits
// it implies on the low-cost instance.
//
// Flags: --snr=4.0 --frames=N --quick
#include <cstdio>
#include <memory>

#include "arch/resources.hpp"
#include "engine/sim_engine.hpp"
#include "ldpc/c2_system.hpp"
#include "ldpc/fixed_minsum_decoder.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

int RunMain(int argc, char** argv) {
  using namespace cldpc;
  const ArgParser args(argc, argv);
  const bool quick = args.GetBool("quick");
  const double snr = args.GetDouble("snr", 3.7);

  sim::BerConfig config;
  config.ebn0_db = {snr};
  config.max_frames =
      static_cast<std::uint64_t>(args.GetInt("frames", quick ? 15 : 60));
  config.min_frame_errors = 1000;  // fixed frame count
  config.base_seed = 4242;

  std::printf("Building CCSDS C2 system...\n");
  const auto system = ldpc::MakeC2System();
  engine::SimEngine sim(*system.code, *system.encoder, config);

  TablePrinter table(
      {"Message bits", "Channel scale", "BER", "PER", "Message memory"});
  for (const int width : {4, 5, 6, 7, 8}) {
    ldpc::FixedMinSumOptions o;
    o.iter.max_iterations = 18;
    o.iter.early_termination = true;
    o.datapath.message_bits = width;
    o.datapath.channel_bits = width;
    // Keep the front-end range matched to the word: same fraction of
    // the waterfall-SNR LLR distribution saturates at every width.
    o.datapath.channel_scale = 2.0 * (double(SymmetricMax(width)) / 31.0);
    o.datapath.app_bits = width + 3;
    const auto curve = sim.Run([&] {
      return std::make_unique<ldpc::FixedMinSumDecoder>(*system.code, o);
    });
    const auto& p = curve.points.front();

    arch::ArchConfig arch_config = arch::LowCostConfig();
    arch_config.datapath = o.datapath;
    const auto resources =
        arch::EstimateResources(arch_config, arch::CodeGeometry{});
    table.AddRow({std::to_string(width),
                  FormatDouble(o.datapath.channel_scale, 2),
                  FormatScientific(p.bit_errors.Rate(), 2),
                  FormatScientific(p.frame_errors.Rate(), 2),
                  FormatCount(resources.message_memory_bits) + " b"});
  }
  std::printf("%s", table
                        .Render("Quantization ablation — fixed NMS-18 at "
                                "Eb/N0 = " +
                                FormatDouble(snr, 1) + " dB, " +
                                std::to_string(config.max_frames) +
                                " paired frames/width")
                        .c_str());
  std::printf("\nExpected shape: 6 bits (the shipped datapath) is within "
              "measurement noise of 7-8 bits; 4 bits pays a visible "
              "error-rate penalty. Memory scales linearly with width — "
              "the low-cost decoder's 50%% RAM budget is what rules out "
              "wide words.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return cldpc::GuardedMain(argc, argv, RunMain);
}
