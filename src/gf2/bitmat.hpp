// Dense GF(2) matrix with word-parallel row operations.
//
// Dense Gauss-Jordan elimination (RowReduce) is the textbook reference
// for RREF; the encoder's rank data comes from LdpcCode's sparse,
// column-wise elimination instead, and the tests check the two agree.
#pragma once

#include <cstddef>
#include <vector>

#include "gf2/bitvec.hpp"

namespace cldpc::gf2 {

/// Result of row reduction: the echelon form is stored back into the
/// matrix; this summarises its structure.
struct RowReduction {
  std::size_t rank = 0;
  /// Pivot column of each of the first `rank` rows, strictly increasing.
  std::vector<std::size_t> pivot_cols;
  /// Columns without a pivot (the free/information positions).
  std::vector<std::size_t> free_cols;
};

class BitMat {
 public:
  BitMat() = default;
  BitMat(std::size_t rows, std::size_t cols);

  static BitMat Identity(std::size_t n);

  std::size_t rows() const { return rows_.size(); }
  std::size_t cols() const { return cols_; }

  bool Get(std::size_t r, std::size_t c) const { return rows_[r].Get(c); }
  void Set(std::size_t r, std::size_t c, bool v) { rows_[r].Set(c, v); }

  const BitVec& Row(std::size_t r) const { return rows_[r]; }
  BitVec& Row(std::size_t r) { return rows_[r]; }

  /// rows() x cols() matrix-vector product over GF(2).
  BitVec MulVec(const BitVec& x) const;
  /// Matrix product over GF(2); cols() must equal other.rows().
  BitMat Mul(const BitMat& other) const;
  BitMat Transposed() const;

  void SwapRows(std::size_t a, std::size_t b);
  /// rows_[dst] ^= rows_[src].
  void XorRow(std::size_t dst, std::size_t src);

  /// In-place reduction to *reduced* row echelon form (Gauss-Jordan).
  /// Rows below `rank` end up all-zero.
  RowReduction RowReduce();

  /// Rank via elimination on a copy.
  std::size_t Rank() const;

  bool operator==(const BitMat& other) const;

  /// Total number of set entries.
  std::size_t Popcount() const;

 private:
  std::size_t cols_ = 0;
  std::vector<BitVec> rows_;
};

}  // namespace cldpc::gf2
