// Quickstart: the complete CCSDS C2 near-earth link in ~40 lines of
// library calls — build the code, encode a transfer frame, push it
// through BPSK/AWGN, decode with the cycle-accurate low-cost
// architecture model, and report correctness plus hardware timing.
//
//   ./quickstart [--snr=4.2] [--iterations=18] [--seed=1]
#include <cstdio>

#include "arch/decoder_core.hpp"
#include "arch/throughput.hpp"
#include "channel/awgn.hpp"
#include "ldpc/c2_system.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {

int RunMain(int argc, char** argv) {
  using namespace cldpc;
  const ArgParser args(argc, argv);
  const double snr_db = args.GetDouble("snr", 4.2);
  const int iterations = static_cast<int>(args.GetInt("iterations", 18));
  const auto seed = args.GetUint("seed", 1);

  // 1. The coding system: (8176, 7156) mother code + (8160, 7136)
  //    C2 framing.
  std::printf("Building CCSDS C2 system...\n");
  const ldpc::C2System system = ldpc::MakeC2System();

  // 2. A random 7136-bit information block, encoded to 8160 bits.
  Xoshiro256pp rng(seed);
  std::vector<std::uint8_t> info(system.framing->tx_info_bits());
  for (auto& bit : info) bit = rng.NextBit() ? 1 : 0;
  const auto tx_frame = system.framing->EncodeTx(info);

  // 3. BPSK over AWGN at the chosen Eb/N0.
  const double tx_rate = static_cast<double>(info.size()) /
                         static_cast<double>(tx_frame.size());
  const auto tx_llr =
      channel::TransmitBpskAwgn(tx_frame, snr_db, tx_rate, seed ^ 0xC2);
  const auto mother_llr = system.framing->ExpandLlrs(tx_llr);

  // How bad was the channel?
  std::size_t channel_errors = 0;
  for (std::size_t i = 0; i < tx_frame.size(); ++i) {
    if ((tx_llr[i] < 0.0) != (tx_frame[i] != 0)) ++channel_errors;
  }

  // 4. Decode through the architecture model (low-cost instance).
  arch::ArchConfig config = arch::LowCostConfig();
  config.iterations = iterations;
  arch::ArchDecoder decoder(*system.code, system.qc, config);
  const auto result = decoder.Decode(mother_llr);
  const auto decoded_info = system.framing->ExtractInfo(result.bits);

  std::size_t residual = 0;
  for (std::size_t i = 0; i < info.size(); ++i) {
    if (decoded_info[i] != info[i]) ++residual;
  }

  // 5. Report.
  std::printf("\nEb/N0 ................ %.2f dB\n", snr_db);
  std::printf("Channel bit errors ... %zu of %zu (raw BER %.2e)\n",
              channel_errors, tx_frame.size(),
              static_cast<double>(channel_errors) /
                  static_cast<double>(tx_frame.size()));
  std::printf("Iterations ........... %d (%s)\n", result.iterations_run,
              result.converged ? "syndrome clean" : "NOT converged");
  std::printf("Residual info errors . %zu of %zu  ->  %s\n", residual,
              info.size(), residual == 0 ? "FRAME RECOVERED" : "FRAME LOST");
  std::printf("Simulated cycles ..... %llu  (%.1f us at %.0f MHz)\n",
              static_cast<unsigned long long>(
                  decoder.LastStats().total_cycles),
              static_cast<double>(decoder.LastStats().total_cycles) /
                  config.clock_mhz,
              config.clock_mhz);
  std::printf("Output throughput .... %.1f Mbps\n",
              arch::ThroughputModel::OutputMbpsFromStats(
                  config, decoder.LastStats(),
                  system.framing->tx_info_bits()));
  return residual == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return cldpc::GuardedMain(argc, argv, RunMain);
}
