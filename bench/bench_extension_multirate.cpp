// Extension bench (the paper's future-work direction): the generic
// architecture across the CCSDS rate family. One table: geometry,
// error-rate operating point, throughput and resource bill per rate
// — all through the *same* controller, PE and memory models.
//
// Flags: --q=127 --frames=N --quick
#include <cstdio>

#include "arch/decoder_core.hpp"
#include "arch/resources.hpp"
#include "arch/throughput.hpp"
#include "channel/awgn.hpp"
#include "ldpc/encoder.hpp"
#include "qc/code_family.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

int RunMain(int argc, char** argv) {
  using namespace cldpc;
  const ArgParser args(argc, argv);
  const bool quick = args.GetBool("quick");
  const auto q = static_cast<std::size_t>(args.GetInt("q", 127));
  const int frames = static_cast<int>(args.GetInt("frames", quick ? 10 : 40));

  TablePrinter table({"Rate", "Geometry", "n", "k", "Eb/N0", "PER",
                      "Mbps@18it", "kALUTs", "RAM kbit"});
  for (const auto rate : qc::AllFamilyRates()) {
    const auto family_geometry = qc::GeometryFor(rate);
    const auto qc_matrix = qc::BuildFamilyCode(rate, q);
    const ldpc::LdpcCode code(qc_matrix.Expand());
    const ldpc::Encoder encoder(code);

    arch::ArchConfig config = arch::LowCostConfig();
    config.iterations = 18;
    arch::ArchDecoder decoder(code, qc_matrix, config);

    // Operating point: lower-rate codes work at lower Eb/N0.
    const double snr = 1.8 + 2.6 * code.Rate();
    int recovered = 0;
    for (int f = 0; f < frames; ++f) {
      Xoshiro256pp rng(300 + f);
      std::vector<std::uint8_t> info(code.k());
      for (auto& b : info) b = rng.NextBit() ? 1 : 0;
      const auto cw = encoder.Encode(info);
      const auto llr =
          channel::TransmitBpskAwgn(cw, snr, code.Rate(), 400 + f);
      if (decoder.Decode(llr).bits == cw) ++recovered;
    }

    arch::CodeGeometry geometry;
    geometry.q = q;
    geometry.block_rows = family_geometry.block_rows;
    geometry.block_cols = family_geometry.block_cols;
    geometry.circulant_weight = family_geometry.circulant_weight;
    const auto resources = arch::EstimateResources(config, geometry);
    const double mbps = arch::ThroughputModel::OutputMbps(
        config, q, code.k(), config.iterations);

    table.AddRow(
        {qc::ToString(rate),
         std::to_string(family_geometry.block_rows) + "x" +
             std::to_string(family_geometry.block_cols) + " w" +
             std::to_string(family_geometry.circulant_weight),
         std::to_string(code.n()), std::to_string(code.k()),
         FormatDouble(snr, 2) + " dB",
         FormatDouble(1.0 - static_cast<double>(recovered) / frames, 2),
         FormatDouble(mbps, 1), FormatDouble(resources.aluts / 1000.0, 1),
         FormatDouble(resources.memory_bits / 1000.0, 0)});
  }
  std::printf("%s",
              table
                  .Render("Multi-rate extension — one generic architecture, "
                          "q = " +
                          std::to_string(q) +
                          ", bit degree 4 throughout (paper future work)")
                  .c_str());
  std::printf(
      "\nEvery row runs through the identical controller/PE/memory models;\n"
      "only the block geometry differs — the generic-architecture thesis\n"
      "of the paper carried to the deep-space rate family.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return cldpc::GuardedMain(argc, argv, RunMain);
}
