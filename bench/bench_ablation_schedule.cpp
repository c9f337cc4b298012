// Ablation: flooding vs layered scheduling on the generic
// architecture. Layered (TDMP) processes block rows as layers with
// in-place APP updates — the natural continuation of the paper's
// compressed storage — converging in roughly half the iterations and
// therefore nearly doubling throughput at equal error rate.
//
// Flags: --snr=3.8 --frames=N --quick
#include <cstdio>

#include "arch/decoder_core.hpp"
#include "arch/throughput.hpp"
#include "channel/awgn.hpp"
#include "ldpc/c2_system.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

int RunMain(int argc, char** argv) {
  using namespace cldpc;
  const ArgParser args(argc, argv);
  const bool quick = args.GetBool("quick");
  const double snr = args.GetDouble("snr", 3.8);
  const int frames = static_cast<int>(args.GetInt("frames", quick ? 8 : 30));

  std::printf("Building CCSDS C2 system...\n");
  const auto system = ldpc::MakeC2System();

  struct Point {
    const char* name;
    arch::Schedule schedule;
    int iterations;
  };
  const Point points[] = {
      {"flooding, 18 it", arch::Schedule::kFlooding, 18},
      {"flooding, 9 it", arch::Schedule::kFlooding, 9},
      {"layered,  9 it", arch::Schedule::kLayered, 9},
      {"layered,  5 it", arch::Schedule::kLayered, 5},
  };

  TablePrinter table({"Schedule", "Iterations", "Frames recovered",
                      "Cycles/frame", "Mbps@200MHz"});
  for (const auto& point : points) {
    arch::ArchConfig config = arch::LowCostConfig();
    config.storage = arch::MessageStorage::kCompressedCn;
    config.schedule = point.schedule;
    config.iterations = point.iterations;
    arch::ArchDecoder decoder(*system.code, system.qc, config);

    int recovered = 0;
    for (int f = 0; f < frames; ++f) {
      Xoshiro256pp rng(500 + f);
      std::vector<std::uint8_t> info(system.code->k());
      for (auto& b : info) b = rng.NextBit() ? 1 : 0;
      const auto cw = system.encoder->Encode(info);
      const auto llr =
          channel::TransmitBpskAwgn(cw, snr, system.code->Rate(), 600 + f);
      if (decoder.Decode(llr).bits == cw) ++recovered;
    }
    const double mbps = arch::ThroughputModel::OutputMbpsFromStats(
        config, decoder.LastStats(), qc::C2Constants::kTxInfoBits);
    table.AddRow({point.name, std::to_string(point.iterations),
                  std::to_string(recovered) + " / " + std::to_string(frames),
                  FormatCount(decoder.LastStats().total_cycles),
                  FormatDouble(mbps, 1)});
  }
  std::printf("%s", table
                        .Render("Schedule ablation — C2 code at Eb/N0 = " +
                                FormatDouble(snr, 1) + " dB")
                        .c_str());
  std::printf(
      "\nExpected shape: layered at 9 iterations recovers what flooding\n"
      "needs ~18 for (flooding at 9 loses frames), at ~2x the throughput —\n"
      "the classic TDMP trade the compressed storage makes available.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return cldpc::GuardedMain(argc, argv, RunMain);
}
