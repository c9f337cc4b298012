// Regenerates Table 1: "Number of iterations influence on the output
// data rate of LDPC decoders with a clock frequency of 200 MHz".
//
// Unlike a formula dump, the numbers here are *measured*: a real
// CCSDS C2 frame is pushed through the cycle-accurate architecture
// model at each iteration setting and the throughput is derived from
// the simulated cycle count.
//
// Flags: --clock-mhz=200
//        --json=<path>   also write the measured numbers as JSON
//                        (one record per config x iteration count,
//                        with the measured Mbps) for BENCH_*.json
//                        perf trajectories.
#include <cstdio>
#include <string>
#include <vector>

#include "arch/decoder_core.hpp"
#include "arch/throughput.hpp"
#include "channel/awgn.hpp"
#include "ldpc/c2_system.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace cldpc;

double MeasuredMbps(const ldpc::C2System& system, arch::ArchConfig config,
                    int iterations) {
  config.iterations = iterations;
  arch::ArchDecoder decoder(*system.code, system.qc, config);

  // One representative frame per lane through BPSK/AWGN at the top of
  // the waterfall.
  Xoshiro256pp rng(7);
  std::vector<std::uint8_t> info(system.code->k());
  for (auto& b : info) b = rng.NextBit() ? 1 : 0;
  const auto cw = system.encoder->Encode(info);
  const auto llr = channel::TransmitBpskAwgn(cw, 4.2, system.code->Rate(), 9);

  LlrQuantizer quantizer(config.datapath.channel_bits,
                         config.datapath.channel_scale);
  std::vector<Fixed> quantized(llr.size());
  for (std::size_t i = 0; i < llr.size(); ++i)
    quantized[i] = quantizer.Quantize(llr[i]);
  std::vector<std::vector<Fixed>> batch(config.frames_per_word, quantized);

  const auto result = decoder.DecodeBatch(batch);
  return arch::ThroughputModel::OutputMbpsFromStats(
      config, result.stats, qc::C2Constants::kTxInfoBits);
}

}  // namespace

namespace {

struct JsonRecord {
  std::string name;
  double mbps;
};

bool WriteJson(const std::string& path,
               const std::vector<JsonRecord>& records) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_table1_throughput: cannot open %s\n",
                 path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < records.size(); ++i) {
    std::fprintf(f, "    {\"name\": \"%s\", \"mbps\": %.6g}%s\n",
                 records[i].name.c_str(), records[i].mbps,
                 i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

int RunMain(int argc, char** argv) {
  const ArgParser args(argc, argv);
  const double clock_mhz = args.GetDouble("clock-mhz", 200.0);
  const std::string json_path = args.GetString("json", "");

  std::printf("Building CCSDS C2 system (8176, 7156)...\n");
  const auto system = ldpc::MakeC2System();

  arch::ArchConfig low = arch::LowCostConfig();
  arch::ArchConfig high = arch::HighSpeedConfig();
  low.clock_mhz = clock_mhz;
  high.clock_mhz = clock_mhz;

  struct PaperRow {
    int iterations;
    double low_paper;
    double high_paper;
  };
  const PaperRow rows[] = {{10, 130.0, 1040.0},
                           {18, 70.0, 560.0},
                           {50, 25.0, 200.0}};

  TablePrinter table({"Iterations", "Low-Cost (measured)", "Low-Cost (paper)",
                      "High-Speed (measured)", "High-Speed (paper)"});
  std::vector<JsonRecord> records;
  for (const auto& row : rows) {
    const double low_mbps = MeasuredMbps(system, low, row.iterations);
    const double high_mbps = MeasuredMbps(system, high, row.iterations);
    records.push_back({"table1_lowcost_it" + std::to_string(row.iterations),
                       low_mbps});
    records.push_back({"table1_highspeed_it" + std::to_string(row.iterations),
                       high_mbps});
    table.AddRow({std::to_string(row.iterations),
                  FormatDouble(low_mbps, 1) + " Mbps",
                  FormatDouble(row.low_paper, 0) + " Mbps",
                  FormatDouble(high_mbps, 1) + " Mbps",
                  FormatDouble(row.high_paper, 0) + " Mbps"});
  }
  std::printf("%s", table
                        .Render("Table 1 — output throughput vs iterations "
                                "(clock " +
                                FormatDouble(clock_mhz, 0) + " MHz)")
                        .c_str());
  std::printf(
      "\nMeasured values come from simulated cycle counts of real frame\n"
      "decodes (%llu cycles/iteration at q=511); payload = 7136 info bits\n"
      "per frame; high-speed packs 8 frames per memory word.\n",
      static_cast<unsigned long long>(
          arch::Controller(low, qc::C2Constants::kQ, qc::C2Constants::kN)
              .IterationCycles()));
  if (!json_path.empty() && !WriteJson(json_path, records)) return 1;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return cldpc::GuardedMain(argc, argv, RunMain);
}
