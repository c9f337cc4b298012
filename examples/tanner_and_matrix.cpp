// Figure 1 & 2 companion: prints the Tanner graph of a toy LDPC code
// (the paper's Figure 1 is exactly such a drawing) and the block
// structure of the CCSDS C2 parity matrix.
//
//   ./tanner_and_matrix [--skip-c2]
#include <cstdio>

#include "ldpc/code.hpp"
#include "qc/ccsds_c2.hpp"
#include "qc/girth.hpp"
#include "qc/small_codes.hpp"
#include "tanner/graph.hpp"
#include "util/cli.hpp"

namespace {

int RunMain(int argc, char** argv) {
  using namespace cldpc;
  const ArgParser args(argc, argv);

  // ---- Figure 1: a toy Tanner graph --------------------------------
  const auto h = qc::MakeHammingH();
  const tanner::Graph graph(h);
  std::printf("Tanner graph of the (7,4) Hamming code "
              "(o = bit node, [] = check node):\n\n");
  for (std::size_t m = 0; m < graph.num_checks(); ++m) {
    std::printf("  [c%zu] --", m);
    for (const auto e : graph.CheckEdges(m))
      std::printf(" o b%zu", graph.EdgeBit(e));
    std::printf("\n");
  }
  std::printf("\n  %zu bit nodes, %zu check nodes, %zu edges\n",
              graph.num_bits(), graph.num_checks(), graph.num_edges());
  std::printf("  bit degrees: ");
  for (std::size_t n = 0; n < graph.num_bits(); ++n)
    std::printf("b%zu:%zu ", n, graph.BitDegree(n));
  std::printf("\n\n");

  if (args.GetBool("skip-c2")) return 0;

  // ---- Figure 2: the C2 matrix at block level -----------------------
  std::printf("CCSDS C2 parity matrix: 2 x 16 array of 511 x 511 weight-2 "
              "circulants.\nEach cell below shows the circulant's two "
              "first-row offsets —\nin the scatter chart each offset is one "
              "diagonal stripe.\n\n");
  const auto qc_matrix = qc::BuildC2QcMatrix();
  for (std::size_t r = 0; r < qc_matrix.block_rows(); ++r) {
    std::printf("  row %zu: ", r);
    for (std::size_t c = 0; c < qc_matrix.block_cols(); ++c) {
      const auto& offsets = qc_matrix.Block({r, c}).offsets();
      std::printf("(%3zu,%3zu) ", offsets[0], offsets[1]);
    }
    std::printf("\n");
  }
  const auto h2 = qc_matrix.Expand();
  const ldpc::LdpcCode code(h2);
  std::printf("\n  Expanded: %zu x %zu, %zu ones, girth %zu, "
              "(4, 32)-regular: %s\n",
              h2.rows(), h2.cols(), h2.nnz(), qc::Girth(h2),
              tanner::Graph(h2).IsRegular() ? "yes" : "no");
  std::printf("  rank %zu -> k = %zu (the (8176, 7156) code)\n", code.Rank(),
              code.k());
  std::printf("\nFull scatter data: bench_figure2_matrix --dump\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return cldpc::GuardedMain(argc, argv, RunMain);
}
