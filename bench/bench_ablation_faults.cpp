// Ablation (beyond the paper, motivated by its domain): single-event
// upset tolerance of the message-passing datapath. Sweeps the
// per-read bit-flip probability of the message memories and measures
// frame recovery on the C2 code — quantifying how much radiation-
// induced message corruption the iterative decoder absorbs for free.
//
// Flags: --snr=4.2 --frames=N --quick
#include <cstdio>

#include "arch/decoder_core.hpp"
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
  const double snr = args.GetDouble("snr", 4.2);
  const int frames = static_cast<int>(args.GetInt("frames", quick ? 6 : 25));

  std::printf("Building CCSDS C2 system...\n");
  const auto system = ldpc::MakeC2System();

  TablePrinter table({"Flip prob/read", "Avg flips/frame", "Frames recovered",
                      "PER"});
  for (const double p : {0.0, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2}) {
    arch::ArchConfig config = arch::LowCostConfig();
    config.iterations = 18;
    config.faults.read_flip_probability = p;
    arch::ArchDecoder decoder(*system.code, system.qc, config);

    int recovered = 0;
    std::uint64_t flips = 0;
    for (int f = 0; f < frames; ++f) {
      Xoshiro256pp rng(1000 + f);
      std::vector<std::uint8_t> info(system.code->k());
      for (auto& b : info) b = rng.NextBit() ? 1 : 0;
      const auto cw = system.encoder->Encode(info);
      const auto llr =
          channel::TransmitBpskAwgn(cw, snr, system.code->Rate(), 2000 + f);
      if (decoder.Decode(llr).bits == cw) ++recovered;
      flips += decoder.LastFlipsInjected();
    }
    table.AddRow({FormatScientific(p, 0),
                  FormatDouble(static_cast<double>(flips) / frames, 1),
                  std::to_string(recovered) + " / " + std::to_string(frames),
                  FormatDouble(1.0 - static_cast<double>(recovered) / frames,
                               2)});
  }
  std::printf("%s", table
                        .Render("SEU ablation — low-cost C2 decoder, 18 "
                                "iterations, Eb/N0 = " +
                                FormatDouble(snr, 1) + " dB")
                        .c_str());
  std::printf(
      "\nExpected shape: the decoder shrugs off upset rates up to ~1e-4 per\n"
      "read (hundreds of corrupted messages per frame) — the iterative\n"
      "exchange re-derives corrupted state — and collapses somewhere\n"
      "between 1e-3 and 1e-2, where corruption outpaces correction.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return cldpc::GuardedMain(argc, argv, RunMain);
}
