#include "ldpc/encoder.hpp"

#include <algorithm>
#include <bit>

#include "util/contracts.hpp"

namespace cldpc::ldpc {

Encoder::Encoder(const LdpcCode& code) : code_(code) {
  code_.Transform();  // run the elimination now, not on the first frame
}

std::vector<std::uint8_t> Encoder::Encode(
    std::span<const std::uint8_t> info) const {
  std::vector<std::uint8_t> codeword(code_.n());
  gf2::BitVec scratch;
  EncodeInto(info, codeword, scratch);
  return codeword;
}

void Encoder::EncodeInto(std::span<const std::uint8_t> info,
                         std::span<std::uint8_t> codeword,
                         gf2::BitVec& scratch) const {
  CLDPC_EXPECTS(info.size() == code_.k(), "info length must equal k");
  CLDPC_EXPECTS(codeword.size() == code_.n(), "codeword length must equal n");
  const auto& info_cols = code_.InfoCols();
  const auto& pivot_cols = code_.PivotCols();
  const auto& transform = code_.Transform();
  const auto& sched = code_.schedule();
  const std::size_t checks = sched.num_checks();
  const std::size_t check_words = (checks + 63) / 64;
  const std::size_t parity_words = transform.words();

  // Scratch layout: syndrome words, then parity words. Resize zeroes
  // the words in place; it only allocates the first time
  // (vector::assign reuses capacity on subsequent calls).
  scratch.Resize(64 * (check_words + parity_words));
  std::uint64_t* syndrome = scratch.mutable_words().data();
  std::uint64_t* parity = syndrome + check_words;

  std::fill(codeword.begin(), codeword.end(), 0);
  for (std::size_t j = 0; j < info.size(); ++j)
    codeword[info_cols[j]] = info[j] & 1u;
  // Syndrome of the information part (the pivot positions are still 0).
  for (std::size_t m = 0; m < checks; ++m) {
    std::uint8_t acc = 0;
    for (const auto b : sched.CheckBits(m)) acc ^= codeword[b];
    syndrome[m >> 6] |= std::uint64_t{acc} << (m & 63);
  }
  // p = T·s.
  for (std::size_t w = 0; w < check_words; ++w) {
    for (std::uint64_t bits = syndrome[w]; bits != 0; bits &= bits - 1) {
      const auto column = transform.Column(
          w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
      for (std::size_t k = 0; k < parity_words; ++k) parity[k] ^= column[k];
    }
  }
  for (std::size_t i = 0; i < pivot_cols.size(); ++i)
    codeword[pivot_cols[i]] =
        static_cast<std::uint8_t>((parity[i >> 6] >> (i & 63)) & 1u);
}

std::vector<std::uint8_t> Encoder::ExtractInfo(
    std::span<const std::uint8_t> codeword) const {
  CLDPC_EXPECTS(codeword.size() == code_.n(), "codeword length must equal n");
  const auto& info_cols = code_.InfoCols();
  std::vector<std::uint8_t> info(info_cols.size());
  for (std::size_t j = 0; j < info_cols.size(); ++j)
    info[j] = codeword[info_cols[j]] & 1u;
  return info;
}

}  // namespace cldpc::ldpc
