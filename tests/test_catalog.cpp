#include "codes/catalog.hpp"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "codes/alist.hpp"
#include "codes/crc.hpp"
#include "codes/ft8.hpp"
#include "engine/sim_engine.hpp"
#include "ldpc/core/registry.hpp"
#include "qc/small_codes.hpp"
#include "util/contracts.hpp"

namespace cldpc::codes {
namespace {

TEST(CodeSpec, ParsesKindAndParams) {
  const auto spec = CodeSpec::Parse("small:q=61,cols=8,seed=5");
  EXPECT_EQ(spec.kind, "small");
  EXPECT_EQ(spec.GetInt("q", 0), 61);
  EXPECT_EQ(spec.GetInt("cols", 0), 8);
  EXPECT_EQ(spec.GetInt("seed", 0), 5);
  EXPECT_EQ(spec.ToString(), "small:q=61,cols=8,seed=5");
}

TEST(CodeSpec, SeedsAreFullRangeUnsigned) {
  // Seeds are u64: the top half of the range must parse, and a
  // negative value must be rejected, not wrapped to a huge u64.
  const auto spec = CodeSpec::Parse("small:seed=18446744073709551615");
  EXPECT_EQ(spec.GetUint("seed", 0), 0xFFFFFFFFFFFFFFFFull);
  EXPECT_EQ(spec.GetUint("absent", 7), 7u);
  EXPECT_NO_THROW(LoadCode("small:seed=18446744073709551615"));
  EXPECT_THROW(CodeSpec::Parse("small:seed=-1").GetUint("seed", 0),
               ContractViolation);
  EXPECT_THROW(LoadCode("small:seed=-1"), ContractViolation);
  // strtoull would skip the space and accept the sign — the guard
  // must not (a whitespace-prefixed negative is still negative).
  EXPECT_THROW(CodeSpec::Parse("small:seed= -1").GetUint("seed", 0),
               ContractViolation);
  EXPECT_THROW(CodeSpec::Parse("small:seed=+1").GetUint("seed", 0),
               ContractViolation);
  // Past 2^64-1 is out of range, not a silent clamp.
  EXPECT_THROW(CodeSpec::Parse("small:seed=18446744073709551616")
                   .GetUint("seed", 0),
               ContractViolation);
}

TEST(CodeSpec, RejectsMalformedSpecs) {
  EXPECT_THROW(CodeSpec::Parse(""), ContractViolation);
  EXPECT_THROW(CodeSpec::Parse("ft8:"), ContractViolation);
  EXPECT_THROW(CodeSpec::Parse("ft8:seed"), ContractViolation);
  EXPECT_THROW(CodeSpec::Parse("ft8:=5"), ContractViolation);
  EXPECT_THROW(CodeSpec::Parse("small:q=1,q=2"), ContractViolation);
}

TEST(Catalog, UnknownKindThrowsAndListsKinds) {
  try {
    LoadCode("nope");
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    // The message must be actionable: it names every registered kind.
    for (const auto& kind : RegisteredCodeKinds())
      EXPECT_NE(what.find(kind), std::string::npos) << kind;
  }
}

TEST(Catalog, UnknownParamThrows) {
  EXPECT_THROW(LoadCode("ft8:bogus=1"), ContractViolation);
  EXPECT_THROW(LoadCode("small:alpha=1.2"), ContractViolation);
}

TEST(Catalog, FamilyRateErrorsListKnownRates) {
  try {
    LoadCode("family:rate=3/4");
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1/2"), std::string::npos);
    EXPECT_NE(what.find("7/8"), std::string::npos);
  }
}

TEST(Catalog, SummaryCoversEveryKind) {
  const auto summary = CodeCatalogSummary();
  EXPECT_GE(summary.size(), 8u);  // seven built-ins + alist
  for (const auto& [kind, description] : summary)
    EXPECT_FALSE(description.empty()) << kind;
}

TEST(Catalog, SmallMediumHammingFamilyMetadata) {
  struct Expect {
    const char* spec;
    std::size_t n, k;
  };
  // family rate 1/2 at q = 127: 8 block cols x 127 = 1016 bits.
  const Expect cases[] = {
      {"small", 488, 368},
      {"hamming", 7, 4},
      // 20 x 127 columns, 508 checks of rank 505 -> k = 2035.
      {"family:rate=4/5,q=127", 2540, 2035},
      // 24 blocks of 81 columns; rank 321 (each block row's checks
      // sum to the all-ones vector, so 3 of the 4 are dependent).
      {"wifi", 1944, 1623},
  };
  for (const auto& c : cases) {
    const auto cat = LoadCode(c.spec);
    EXPECT_EQ(cat.name, c.spec);
    EXPECT_EQ(cat.code->n(), c.n) << c.spec;
    EXPECT_EQ(cat.code->k(), c.k) << c.spec;
    EXPECT_FALSE(cat.description.empty());
    EXPECT_FALSE(cat.recommended_decoders.empty());
    EXPECT_NE(cat.encoder, nullptr);
  }
}

TEST(Catalog, Ft8SystemHasCrcHooks) {
  const auto cat = LoadCode("ft8");
  EXPECT_EQ(cat.code->n(), kFt8N);
  EXPECT_EQ(cat.code->k(), kFt8K);
  ASSERT_TRUE(static_cast<bool>(cat.frame_source));
  ASSERT_TRUE(static_cast<bool>(cat.frame_check));

  // Every generated frame is a codeword AND a CRC-valid FT8 frame;
  // the same seed reproduces it bit for bit (engine determinism).
  std::vector<std::uint8_t> cw(cat.code->n());
  std::vector<std::uint8_t> again(cat.code->n());
  for (std::uint64_t seed : {1ULL, 77ULL, 0xDEADBEEFULL}) {
    cat.frame_source(seed, cw);
    EXPECT_TRUE(cat.code->IsCodeword(cw)) << seed;
    EXPECT_TRUE(cat.frame_check(cw)) << seed;
    cat.frame_source(seed, again);
    EXPECT_EQ(cw, again) << seed;
  }

  // Corrupting one payload bit must flip the frame check's verdict.
  cat.frame_source(3, cw);
  cw[cat.code->InfoCols().front()] ^= 1;
  EXPECT_FALSE(cat.frame_check(cw));
}

TEST(Catalog, AlistLoadMatchesBuiltin) {
  const auto builtin = LoadCode("small");
  const std::string path = testing::TempDir() + "/catalog_small.alist";
  WriteAlistFile(path, builtin.code->h());

  const auto loaded = LoadCode("alist:" + path);
  EXPECT_EQ(loaded.code->n(), builtin.code->n());
  EXPECT_EQ(loaded.code->k(), builtin.code->k());
  EXPECT_EQ(loaded.code->h().Coords(), builtin.code->h().Coords());
  // Identical H -> identical RREF -> identical information positions,
  // so the two systems encode identically.
  EXPECT_EQ(loaded.code->InfoCols(), builtin.code->InfoCols());
  std::remove(path.c_str());
}

TEST(Catalog, AlistWithoutPathThrows) {
  EXPECT_THROW(LoadCode("alist:"), ContractViolation);
  EXPECT_THROW(LoadCode("alist:/nonexistent/x.alist"), ContractViolation);
}

// --- Encoder-path behaviour on a deliberately rank-deficient matrix
// (redundant checks), loaded through the alist path like a user's
// hand-made code would be.

TEST(Catalog, RankDeficientAlistEncodesAndDecodes) {
  // (7, 4) Hamming plus a redundant check (row 1 XOR row 2): 4 rows,
  // rank 3 — k must still be 4, and every encode must satisfy all 4
  // checks including the dependent one.
  const auto hamming = qc::MakeHammingH();
  std::vector<gf2::Coord> coords = hamming.Coords();
  std::vector<std::uint8_t> extra(hamming.cols(), 0);
  for (std::size_t c = 0; c < hamming.cols(); ++c)
    extra[c] = (hamming.Get(0, c) != hamming.Get(1, c)) ? 1 : 0;
  for (std::size_t c = 0; c < hamming.cols(); ++c) {
    if (extra[c]) coords.push_back({3, c});
  }
  const gf2::SparseMat redundant(4, hamming.cols(), std::move(coords));

  const std::string path = testing::TempDir() + "/rank_deficient.alist";
  WriteAlistFile(path, redundant);
  const auto cat = LoadCode("alist:" + path);
  std::remove(path.c_str());

  EXPECT_EQ(cat.code->num_checks(), 4u);
  EXPECT_EQ(cat.code->Rank(), 3u);
  EXPECT_EQ(cat.code->k(), 4u);
  EXPECT_EQ(cat.code->InfoCols().size(), 4u);

  for (int pattern = 0; pattern < 16; ++pattern) {
    std::vector<std::uint8_t> info(4);
    for (int b = 0; b < 4; ++b) info[b] = (pattern >> b) & 1;
    const auto cw = cat.encoder->Encode(info);
    EXPECT_TRUE(cat.code->IsCodeword(cw)) << pattern;
    EXPECT_EQ(cat.encoder->ExtractInfo(cw), info) << pattern;
  }
}

// --- The engine determinism contract on the catalog's FT8 system:
// byte-identical curves for 1 vs N threads across three registry
// specs, with the CRC-driven undetected-error column included.

void ExpectIdentical(const sim::BerCurve& a, const sim::BerCurve& b) {
  EXPECT_EQ(a.decoder_name, b.decoder_name);
  EXPECT_EQ(a.has_frame_check, b.has_frame_check);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    const auto& pa = a.points[i];
    const auto& pb = b.points[i];
    EXPECT_EQ(pa.ebn0_db, pb.ebn0_db);
    EXPECT_EQ(pa.bit_errors.errors(), pb.bit_errors.errors());
    EXPECT_EQ(pa.bit_errors.trials(), pb.bit_errors.trials());
    EXPECT_EQ(pa.frame_errors.errors(), pb.frame_errors.errors());
    EXPECT_EQ(pa.frame_errors.trials(), pb.frame_errors.trials());
    EXPECT_EQ(pa.undetected_errors.errors(), pb.undetected_errors.errors());
    EXPECT_EQ(pa.undetected_errors.trials(), pb.undetected_errors.trials());
    EXPECT_EQ(pa.frames, pb.frames);
    EXPECT_EQ(pa.avg_iterations, pb.avg_iterations);
  }
}

TEST(Catalog, Ft8EngineThreadCountInvariance) {
  const auto cat = LoadCode("ft8");
  sim::BerConfig config;
  config.ebn0_db = {1.5, 3.0};
  config.max_frames = 96;
  config.min_frame_errors = 8;  // exercise early stop on the low point
  config.base_seed = 91;
  config.batch_frames = 8;
  config.frame_source = cat.frame_source;
  config.frame_check = cat.frame_check;

  for (const char* spec :
       {"nms:iters=20", "layered-nms:batch=8", "fixed-layered-nms"}) {
    config.threads = 1;
    const auto curve1 = engine::SimEngine(*cat.code, *cat.encoder, config)
                            .Run(ldpc::MakeDecoderFactory(*cat.code, spec));
    EXPECT_TRUE(curve1.has_frame_check) << spec;
    ASSERT_EQ(curve1.points.size(), 2u);
    // The CRC verdict is tracked for every frame of the point.
    for (const auto& p : curve1.points)
      EXPECT_EQ(p.undetected_errors.trials(), p.frames) << spec;

    for (const std::size_t threads : {2, 4}) {
      config.threads = threads;
      const auto curve_n =
          engine::SimEngine(*cat.code, *cat.encoder, config)
              .Run(ldpc::MakeDecoderFactory(*cat.code, spec));
      ExpectIdentical(curve1, curve_n);
    }
  }
}

}  // namespace
}  // namespace cldpc::codes
