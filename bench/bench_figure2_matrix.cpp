// Regenerates Figure 2: the scatter chart of the CCSDS C2 parity
// check matrix. Prints the block/offset description, structural
// statistics, and an ASCII density rendering of the 1022 x 8176
// scatter; --dump emits every (row, col) point for external plotting.
//
// Flags: --seed=<n> --dump
#include <cstdio>
#include <vector>

#include "qc/ccsds_c2.hpp"
#include "qc/girth.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

int RunMain(int argc, char** argv) {
  using namespace cldpc;
  const ArgParser args(argc, argv);
  const auto seed = args.GetUint("seed", qc::kC2DefaultSeed);

  const auto qc_matrix = qc::BuildC2QcMatrix(seed);
  const auto h = qc_matrix.Expand();

  std::printf("CCSDS C2 parity check matrix (surrogate offsets, seed "
              "0x%llx)\n\n",
              static_cast<unsigned long long>(seed));

  TablePrinter stats({"Property", "Value", "Paper"});
  stats.AddRow({"Dimensions", std::to_string(h.rows()) + " x " +
                               std::to_string(h.cols()),
                "1022 x 8176"});
  stats.AddRow({"Circulant array", "2 x 16 of 511 x 511", "2 x 16 of 511 x 511"});
  stats.AddRow({"Ones (messages/iteration)", FormatCount(h.nnz()),
                "> 32k (32 704)"});
  stats.AddRow({"Row weight", std::to_string(h.RowWeight(0)), "32"});
  stats.AddRow({"Column weight", std::to_string(h.ColWeight(0)), "4"});
  stats.AddRow({"4-cycles", qc::HasFourCycle(h) ? "present" : "none", "none"});
  stats.AddRow({"Girth", std::to_string(qc::Girth(h)), "6"});
  std::printf("%s\n", stats.Render("Structure").c_str());

  // Circulant first-row offsets (the compact description of Fig. 2's
  // diagonal stripes).
  TablePrinter offsets({"Block row", "Block col", "Offsets"});
  for (std::size_t r = 0; r < qc_matrix.block_rows(); ++r) {
    for (std::size_t c = 0; c < qc_matrix.block_cols(); ++c) {
      const auto& circ = qc_matrix.Block({r, c});
      std::string list;
      for (const auto o : circ.offsets()) {
        if (!list.empty()) list += ", ";
        list += std::to_string(o);
      }
      offsets.AddRow({std::to_string(r), std::to_string(c), list});
    }
  }
  std::printf("%s\n", offsets.Render("Circulant offsets (first-row one "
                                     "positions)").c_str());

  // ASCII density rendering: each cell aggregates a
  // (rows/32) x (cols/128) tile; the diagonal stripe pattern of the
  // 32 circulants is clearly visible, matching the paper's Figure 2.
  constexpr std::size_t kRowsOut = 32;
  constexpr std::size_t kColsOut = 128;
  std::vector<std::vector<int>> density(kRowsOut,
                                        std::vector<int>(kColsOut, 0));
  for (const auto& coord : h.Coords()) {
    const std::size_t rr = coord.row * kRowsOut / h.rows();
    const std::size_t cc = coord.col * kColsOut / h.cols();
    ++density[rr][cc];
  }
  std::printf("Scatter density (each char = %zu x %zu tile; '.' empty, "
              "'+' sparse, '#' dense):\n",
              h.rows() / kRowsOut, h.cols() / kColsOut);
  for (const auto& row : density) {
    std::string line;
    for (const auto d : row) line += d == 0 ? '.' : (d < 12 ? '+' : '#');
    std::printf("  %s\n", line.c_str());
  }

  if (args.GetBool("dump")) {
    std::printf("\n# row col (one per '1' of H)\n");
    for (const auto& coord : h.Coords())
      std::printf("%zu %zu\n", coord.row, coord.col);
  } else {
    std::printf("\n(%s points total; rerun with --dump for the full scatter "
                "list)\n",
                FormatCount(h.nnz()).c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return cldpc::GuardedMain(argc, argv, RunMain);
}
