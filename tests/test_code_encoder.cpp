#include "ldpc/encoder.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <set>
#include <string>

#include "codes/alist.hpp"
#include "codes/catalog.hpp"
#include "gf2/bitmat.hpp"
#include "ldpc/c2_system.hpp"
#include "qc/small_codes.hpp"
#include "util/rng.hpp"

namespace cldpc::ldpc {
namespace {

std::vector<std::uint8_t> RandomBits(std::size_t n, std::uint64_t seed) {
  Xoshiro256pp rng(seed);
  std::vector<std::uint8_t> bits(n);
  for (auto& b : bits) b = rng.NextBit() ? 1 : 0;
  return bits;
}

TEST(LdpcCode, HammingDimensions) {
  const LdpcCode code(qc::MakeHammingH());
  EXPECT_EQ(code.n(), 7u);
  EXPECT_EQ(code.num_checks(), 3u);
  EXPECT_EQ(code.Rank(), 3u);
  EXPECT_EQ(code.k(), 4u);
}

TEST(LdpcCode, SyndromeOfZeroWordIsZero) {
  const LdpcCode code(qc::MakeSmallQcCode().Expand());
  const std::vector<std::uint8_t> zero(code.n(), 0);
  EXPECT_TRUE(code.IsCodeword(zero));
}

TEST(LdpcCode, InfoAndPivotColsPartitionColumns) {
  const LdpcCode code(qc::MakeSmallQcCode().Expand());
  std::vector<bool> seen(code.n(), false);
  for (const auto c : code.InfoCols()) {
    EXPECT_FALSE(seen[c]);
    seen[c] = true;
  }
  for (const auto c : code.PivotCols()) {
    EXPECT_FALSE(seen[c]);
    seen[c] = true;
  }
  for (const auto s : seen) EXPECT_TRUE(s);
  EXPECT_EQ(code.InfoCols().size(), code.k());
  EXPECT_EQ(code.PivotCols().size(), code.Rank());
}

TEST(Encoder, HammingEnumeratesExactlyTheNullspace) {
  // The 16 encoder outputs must be 16 *distinct* codewords — i.e.
  // exactly the null space of H (which has 2^4 elements).
  const LdpcCode code(qc::MakeHammingH());
  const Encoder enc(code);
  std::set<std::vector<std::uint8_t>> encoded;
  for (unsigned w = 0; w < 16; ++w) {
    std::vector<std::uint8_t> info(4);
    for (unsigned b = 0; b < 4; ++b) info[b] = (w >> b) & 1u;
    const auto cw = enc.Encode(info);
    EXPECT_TRUE(code.IsCodeword(cw));
    encoded.insert(cw);
  }
  EXPECT_EQ(encoded.size(), 16u);
  // Brute-force the null space and compare.
  std::size_t nullspace = 0;
  for (unsigned w = 0; w < 128; ++w) {
    std::vector<std::uint8_t> x(7);
    for (unsigned b = 0; b < 7; ++b) x[b] = (w >> b) & 1u;
    if (code.IsCodeword(x)) {
      ++nullspace;
      EXPECT_TRUE(encoded.count(x)) << w;
    }
  }
  EXPECT_EQ(nullspace, 16u);
}

TEST(Encoder, AllCodewordsSatisfyH) {
  const LdpcCode code(qc::MakeHammingH());
  const Encoder enc(code);
  for (unsigned w = 0; w < 16; ++w) {
    std::vector<std::uint8_t> info(4);
    for (unsigned b = 0; b < 4; ++b) info[b] = (w >> b) & 1u;
    EXPECT_TRUE(code.IsCodeword(enc.Encode(info)));
  }
}

TEST(Encoder, LinearityProperty) {
  const LdpcCode code(qc::MakeSmallQcCode().Expand());
  const Encoder enc(code);
  const auto a = RandomBits(code.k(), 1);
  const auto b = RandomBits(code.k(), 2);
  std::vector<std::uint8_t> sum(code.k());
  for (std::size_t i = 0; i < sum.size(); ++i) sum[i] = a[i] ^ b[i];
  const auto ca = enc.Encode(a);
  const auto cb = enc.Encode(b);
  const auto csum = enc.Encode(sum);
  for (std::size_t i = 0; i < csum.size(); ++i) {
    EXPECT_EQ(csum[i], ca[i] ^ cb[i]);
  }
}

TEST(Encoder, SystematicRoundTrip) {
  const LdpcCode code(qc::MakeSmallQcCode().Expand());
  const Encoder enc(code);
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto info = RandomBits(code.k(), seed);
    const auto cw = enc.Encode(info);
    EXPECT_TRUE(code.IsCodeword(cw));
    EXPECT_EQ(enc.ExtractInfo(cw), info);
  }
}

TEST(Encoder, WrongInfoLengthThrows) {
  const LdpcCode code(qc::MakeHammingH());
  const Encoder enc(code);
  EXPECT_THROW(enc.Encode(std::vector<std::uint8_t>(3)), ContractViolation);
  EXPECT_THROW(enc.ExtractInfo(std::vector<std::uint8_t>(6)),
               ContractViolation);
}

TEST(Encoder, C2FullFrameRoundTrip) {
  const auto system = MakeC2System();
  const auto info = RandomBits(system.code->k(), 42);
  const auto cw = system.encoder->Encode(info);
  EXPECT_EQ(cw.size(), 8176u);
  EXPECT_TRUE(system.code->IsCodeword(cw));
  EXPECT_EQ(system.encoder->ExtractInfo(cw), info);
}

TEST(Encoder, C2WeightOneInfoWords) {
  // Single-bit info words exercise each contribution vector alone.
  const auto system = MakeC2System();
  Xoshiro256pp rng(7);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<std::uint8_t> info(system.code->k(), 0);
    info[rng.NextBounded(info.size())] = 1;
    EXPECT_TRUE(system.code->IsCodeword(system.encoder->Encode(info)));
  }
}

// ---- Syndrome-then-solve vs the dense-RREF encoder. ---------------

// The encoder built the old way: dense RREF of H by BitMat::RowReduce,
// then parity bit i = <RREF row i, x> for x the information bits
// scattered into an otherwise zero word (row i has a single 1 among
// the pivot columns, at its own pivot, where x is 0).
class DenseRrefEncoder {
 public:
  explicit DenseRrefEncoder(const gf2::SparseMat& h)
      : rref_(h.ToDense()), reduction_(rref_.RowReduce()) {}

  const gf2::BitMat& rref() const { return rref_; }
  const gf2::RowReduction& reduction() const { return reduction_; }

  std::vector<std::uint8_t> Encode(const std::vector<std::uint8_t>& info) const {
    gf2::BitVec x(rref_.cols());
    for (std::size_t j = 0; j < info.size(); ++j)
      if (info[j] & 1u) x.Set(reduction_.free_cols[j], true);
    std::vector<std::uint8_t> cw = x.ToBits();
    for (std::size_t i = 0; i < reduction_.rank; ++i)
      cw[reduction_.pivot_cols[i]] = gf2::BitVec::Dot(rref_.Row(i), x) ? 1 : 0;
    return cw;
  }

 private:
  gf2::BitMat rref_;
  gf2::RowReduction reduction_;
};

// An irregular 6 x 10 alist fixture with two dependent checks: row 6
// is row 1 + row 2, and rows 1-5 sum to zero, so rank 4 < 6 rows —
// the same shape of deficiency as C2 (rank 1020, 1022 rows).
const char kDeficientAlist[] =
    "10 6\n"
    "3 6\n"
    "3 2 3 3 3 2 2 3 3 2\n"
    "4 4 4 4 4 6\n"
    "1 3 6\n"
    "1 2 0\n"
    "2 3 6\n"
    "1 4 6\n"
    "2 4 6\n"
    "3 4 0\n"
    "4 5 0\n"
    "1 5 6\n"
    "2 5 6\n"
    "3 5 0\n"
    "1 2 4 8 0 0\n"
    "2 3 5 9 0 0\n"
    "1 3 6 10 0 0\n"
    "4 5 6 7 0 0\n"
    "7 8 9 10 0 0\n"
    "1 3 4 5 8 9\n";

codes::CatalogCode LoadSpec(const std::string& spec) {
  if (spec != "alist-fixture") return codes::LoadCode(spec);
  const std::string path = testing::TempDir() + "/encoder_fixture.alist";
  codes::WriteAlistFile(path, codes::ParseAlist(kDeficientAlist));
  auto system = codes::LoadCode("alist:" + path);
  std::remove(path.c_str());
  return system;
}

class EncoderVsDenseRref : public ::testing::TestWithParam<const char*> {};

TEST_P(EncoderVsDenseRref, RankAndColumnSplitMatch) {
  const auto system = LoadSpec(GetParam());
  const LdpcCode& code = *system.code;
  const DenseRrefEncoder reference(code.h());
  EXPECT_EQ(code.Rank(), reference.reduction().rank);
  EXPECT_EQ(code.PivotCols(), reference.reduction().pivot_cols);
  EXPECT_EQ(code.InfoCols(), reference.reduction().free_cols);
}

// T·H is the dense RREF, row for row.
TEST_P(EncoderVsDenseRref, TransformTimesHIsRref) {
  const auto system = LoadSpec(GetParam());
  const LdpcCode& code = *system.code;
  const DenseRrefEncoder reference(code.h());
  const gf2::BitMat dense = code.h().ToDense();
  const auto& t = code.Transform();
  ASSERT_EQ(t.words(), (code.Rank() + 63) / 64);
  for (std::size_t i = 0; i < code.Rank(); ++i) {
    gf2::BitVec row(code.n());
    for (std::size_t c = 0; c < code.num_checks(); ++c)
      if ((t.Column(c)[i >> 6] >> (i & 63)) & 1u) row ^= dense.Row(c);
    ASSERT_EQ(row, reference.rref().Row(i)) << "row " << i;
  }
}

TEST_P(EncoderVsDenseRref, RandomInfoWordsEncodeIdentically) {
  const auto system = LoadSpec(GetParam());
  const LdpcCode& code = *system.code;
  const DenseRrefEncoder reference(code.h());
  std::vector<std::uint8_t> cw(code.n());
  gf2::BitVec scratch;  // reused across frames, like the engine does
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    auto info = RandomBits(code.k(), 100 + seed);
    if (seed == 0) std::fill(info.begin(), info.end(), 1);
    if (seed == 1) std::fill(info.begin(), info.end(), 0);
    system.encoder->EncodeInto(info, cw, scratch);
    EXPECT_EQ(cw, reference.Encode(info)) << "seed " << seed;
    EXPECT_TRUE(code.IsCodeword(cw)) << "seed " << seed;
    EXPECT_EQ(system.encoder->ExtractInfo(cw), info) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Catalog, EncoderVsDenseRref,
                         ::testing::Values("c2", "ft8", "medium", "small",
                                           "alist-fixture"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (auto& ch : name)
                             if (!std::isalnum(static_cast<unsigned char>(ch)))
                               ch = '_';
                           return name;
                         });

TEST(Encoder, AlistFixtureIsRankDeficient) {
  const auto system = LoadSpec("alist-fixture");
  EXPECT_EQ(system.code->num_checks(), 6u);
  EXPECT_EQ(system.code->Rank(), 4u);
  EXPECT_EQ(system.code->k(), 6u);
}

// Zero columns (0, 5) and a repeated column (4 == 1) are information
// columns, and the empty check (row 3) leaves the rank alone.
TEST(Encoder, ZeroAndRepeatedColumnsAreFree) {
  const gf2::SparseMat h(4, 6,
                         {{0, 1}, {0, 2}, {0, 4}, {1, 2}, {1, 3}, {2, 1},
                          {2, 4}});
  const LdpcCode code(h);
  const DenseRrefEncoder reference(h);
  EXPECT_EQ(code.Rank(), reference.reduction().rank);
  EXPECT_EQ(code.PivotCols(), reference.reduction().pivot_cols);
  EXPECT_EQ(code.InfoCols(), reference.reduction().free_cols);
  const Encoder enc(code);
  for (unsigned w = 0; w < (1u << code.k()); ++w) {
    std::vector<std::uint8_t> info(code.k());
    for (std::size_t b = 0; b < info.size(); ++b) info[b] = (w >> b) & 1u;
    const auto cw = enc.Encode(info);
    EXPECT_EQ(cw, reference.Encode(info)) << w;
    EXPECT_TRUE(code.IsCodeword(cw)) << w;
  }
}

}  // namespace
}  // namespace cldpc::ldpc
