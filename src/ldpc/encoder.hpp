// Systematic encoder: syndrome, then solve.
//
// The information bits go to the code's information positions (the
// non-pivot columns of RREF(H)); the parity bits at the pivot columns
// are then the unique completion to a codeword. With s = H·x the
// syndrome of the information part alone, they are p = T·s, where T is
// the code's RREF row transform (LdpcCode::Transform): each set
// syndrome bit XORs one packed rank-bit column of T into p.
//
// The syndrome is one XOR per nonzero of H over the schedule's check
// spans. For the CCSDS C2 code that is 32,704 byte gathers, then ~510
// XORs of 16-word columns out of a 130 KB T.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "gf2/bitvec.hpp"
#include "ldpc/code.hpp"

namespace cldpc::ldpc {

class Encoder {
 public:
  /// The code must outlive the encoder.
  explicit Encoder(const LdpcCode& code);

  /// info.size() must be code.k(); returns the n-bit codeword with
  /// info bits at the code's information positions.
  std::vector<std::uint8_t> Encode(std::span<const std::uint8_t> info) const;

  /// Allocation-free Encode: writes the n-bit codeword into
  /// `codeword` (size n) using `scratch` for the packed syndrome and
  /// parity words — pass a caller-owned BitVec and reuse it across
  /// calls (it is sized on first use; the encoder itself is shared and
  /// immutable, so each worker brings its own scratch).
  void EncodeInto(std::span<const std::uint8_t> info,
                  std::span<std::uint8_t> codeword,
                  gf2::BitVec& scratch) const;

  /// Recover the information bits from a codeword (systematic gather).
  std::vector<std::uint8_t> ExtractInfo(
      std::span<const std::uint8_t> codeword) const;

  const LdpcCode& code() const { return code_; }

 private:
  const LdpcCode& code_;
};

}  // namespace cldpc::ldpc
