#include "ldpc/code.hpp"

#include <algorithm>
#include <bit>
#include <limits>

namespace cldpc::ldpc {

LdpcCode::LdpcCode(gf2::SparseMat h, std::size_t checks_per_layer)
    : h_(std::move(h)), graph_(h_), schedule_(graph_, checks_per_layer) {}

// Column-wise Gauss-Jordan in the check space. Columns of H are visited
// in ascending order, and a column is a pivot exactly when it is not in
// the span of the columns before it — the pivot set of RREF(H). The
// span is kept as a fully reduced basis: basis vector i (m bits) has a
// 1 at its lead row and a 0 at every other basis vector's lead row, and
// combo i writes it as a combination of the pivot columns found so far
// (b_i = H_P·combo_i). Reducing a column is then one XOR per lead row
// in its support. Placing each combo at its lead row gives T with
// T·H_P = I; a row-space vector is fixed by its restriction to the
// pivot columns, so T·H = RREF(H).
LdpcCode::RankData LdpcCode::Eliminate(const gf2::SparseMat& h) {
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  const std::size_t m = h.rows();
  const std::size_t words = (m + 63) / 64;  // rank <= m, so combos fit too
  std::vector<std::uint64_t> basis, combo;  // rank x words each
  std::vector<std::size_t> lead;            // lead row of basis vector i
  std::vector<std::size_t> owner(m, kNone);  // basis vector leading at row
  std::vector<std::uint64_t> v(words), c(words);

  RankData data;
  for (std::size_t col = 0; col < h.cols(); ++col) {
    std::fill(v.begin(), v.end(), 0);
    std::fill(c.begin(), c.end(), 0);
    const auto rows = h.ColEntries(col);
    for (const auto r : rows) v[r >> 6] ^= std::uint64_t{1} << (r & 63);
    // The basis is fully reduced, so the lead rows to clear are those
    // in the column's own support.
    for (const auto r : rows) {
      if (owner[r] == kNone) continue;
      const std::size_t at = owner[r] * words;
      for (std::size_t w = 0; w < words; ++w) {
        v[w] ^= basis[at + w];
        c[w] ^= combo[at + w];
      }
    }
    const auto nonzero =
        std::find_if(v.begin(), v.end(), [](std::uint64_t w) { return w; });
    if (nonzero == v.end()) {
      data.info_cols.push_back(col);
      continue;
    }
    const std::size_t i = data.rank++;
    const auto r = static_cast<std::size_t>(nonzero - v.begin()) * 64 +
                   static_cast<std::size_t>(std::countr_zero(*nonzero));
    c[i >> 6] ^= std::uint64_t{1} << (i & 63);
    // Clear the new lead row from the older basis vectors. Their
    // combos only have bits below i.
    const std::size_t combo_words = (i >> 6) + 1;
    const std::uint64_t bit = std::uint64_t{1} << (r & 63);
    for (std::size_t j = 0; j < i; ++j) {
      std::uint64_t* bj = basis.data() + j * words;
      if ((bj[r >> 6] & bit) == 0) continue;
      std::uint64_t* cj = combo.data() + j * words;
      for (std::size_t w = 0; w < words; ++w) bj[w] ^= v[w];
      for (std::size_t w = 0; w < combo_words; ++w) cj[w] ^= c[w];
    }
    basis.insert(basis.end(), v.begin(), v.end());
    combo.insert(combo.end(), c.begin(), c.end());
    lead.push_back(r);
    owner[r] = i;
    data.pivot_cols.push_back(col);
  }

  auto& t = data.transform;
  t.words_ = (data.rank + 63) / 64;
  t.cols_.assign(m * t.words_, 0);
  for (std::size_t i = 0; i < data.rank; ++i)
    std::copy_n(combo.begin() + static_cast<std::ptrdiff_t>(i * words),
                t.words_, t.cols_.begin() + static_cast<std::ptrdiff_t>(
                                                lead[i] * t.words_));
  return data;
}

const LdpcCode::RankData& LdpcCode::EnsureRankData() const {
  if (!rank_data_) rank_data_ = Eliminate(h_);
  return *rank_data_;
}

std::size_t LdpcCode::k() const { return n() - Rank(); }

std::size_t LdpcCode::Rank() const { return EnsureRankData().rank; }

const std::vector<std::size_t>& LdpcCode::InfoCols() const {
  return EnsureRankData().info_cols;
}

const std::vector<std::size_t>& LdpcCode::PivotCols() const {
  return EnsureRankData().pivot_cols;
}

const LdpcCode::RrefTransform& LdpcCode::Transform() const {
  return EnsureRankData().transform;
}

gf2::BitVec LdpcCode::Syndrome(const std::vector<std::uint8_t>& x) const {
  return h_.MulVec(x);
}

bool LdpcCode::IsCodeword(const std::vector<std::uint8_t>& x) const {
  return !Syndrome(x).AnySet();
}

}  // namespace cldpc::ldpc
