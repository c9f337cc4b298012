// Compressed check-node message storage — the paper's extrinsic
// memory layout, in software.
//
// The hardware decoders never store the dc outgoing check-to-bit
// messages of a check: they keep one compressed record per check —
// the two candidate output magnitudes, the argmin position and a
// per-input sign word — and reconstruct any output on the fly. That
// is what makes the extrinsic memory O(checks) instead of O(edges)
// and small enough to bank. This header is the software counterpart,
// consumed by every layered decoder (scalar and lane-batched):
//
//   CompressedCn<Datapath>       — one Record per check (scalar path)
//   CompressedCnLanes<Datapath>  — field-major SoA records over
//                                  checks x lanes (owning storage)
//   CompressedCnView<Datapath,L> — the lane-templated PeelScan/Store/
//                                  FoldFresh kernels over that storage
//
// Reconstruction contract (the byte-identity guarantee): records
// store the two exclusive-min magnitudes ALREADY normalized.
// Normalize is a pure function applied to whichever min the argmin
// select picks, so normalize-then-select equals select-then-normalize
// bit for bit, and Load (and the lane passes' reconstruction)
// reproduce exactly the value CnUpdate::Output /
// CnUpdateBatch::OutputRow computed when the record was written. A
// zero-initialized record loads as +0 in every datapath — identical
// to the "messages start at zero" state of a stored-message decoder.
//
// For the C2 code (dc = 32) the compressed form shrinks decoder
// message state from 32 values per check (x lanes) to one ~5-word
// record (x lanes): the batched working set drops below L2, which is
// where the measured frames/s gain comes from (bench_kernels
// BM_C2BatchedCnPass{Stored,Compressed}).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

#include "ldpc/core/batch_kernel.hpp"
#include "ldpc/core/cn_kernel.hpp"

namespace cldpc::ldpc::core {

/// Per-check compressed message storage for the scalar layered
/// decoders. Store() compresses a CnUpdate summary once per check
/// visit; Load() reconstructs the message the check sent to input
/// position `pos` at that visit.
template <class Datapath>
class CompressedCn {
 public:
  using Kernel = CnUpdate<Datapath>;
  using Summary = typename Kernel::Summary;
  using Value = typename Datapath::Value;
  using Rule = typename Datapath::Rule;

  /// One check's record: both candidate output magnitudes (normalized
  /// at store time — see the header contract), where the smallest
  /// input magnitude occurred, the total sign product, and each
  /// input's sign (bit i = input i negative; degrees up to 64).
  struct Record {
    Value nmin1{};
    Value nmin2{};
    std::uint32_t argmin_pos = 0;
    bool sign_product_negative = false;
    std::uint64_t sign_mask = 0;
  };

  explicit CompressedCn(std::size_t num_checks) : records_(num_checks) {}

  /// Back to the all-zero-messages state (every Load yields +0).
  void Reset() { std::fill(records_.begin(), records_.end(), Record{}); }

  /// Compress and store one check's scan summary; returns the stored
  /// record so the caller can fold the fresh outputs without
  /// re-reading the store.
  const Record& Store(std::size_t m, const Summary& s, const Rule& rule) {
    Record& r = records_[m];
    r.nmin1 = Datapath::Normalize(s.min1, rule);
    r.nmin2 = Datapath::Normalize(s.min2, rule);
    r.argmin_pos = s.argmin_pos;
    r.sign_product_negative = s.sign_product_negative;
    r.sign_mask = s.sign_mask;
    return r;
  }

  const Record& Get(std::size_t m) const { return records_[m]; }

  /// The check-to-bit message of input position `pos` reconstructed
  /// from a record — value-identical to CnUpdate::Output on the
  /// summary the record was stored from.
  static Value Output(const Record& r, std::size_t pos) {
    const Value mag = (pos == r.argmin_pos) ? r.nmin2 : r.nmin1;
    const bool self = ((r.sign_mask >> pos) & 1u) != 0;
    return Datapath::FlipSign(mag, r.sign_product_negative != self);
  }

  Value Load(std::size_t m, std::size_t pos) const {
    return Output(records_[m], pos);
  }

  std::size_t num_checks() const { return records_.size(); }

 private:
  std::vector<Record> records_;
};

/// Owning SoA storage of compressed records over checks x lanes,
/// field-major (field[m * lanes + l]) so every lane loop in the view
/// kernels reads contiguous same-width data. Per-position sign bits
/// are packed into Value-width UInt words — kSignWords of them per
/// lane cover the kernel's 64-position degree contract — so sign
/// extraction stays at the one SIMD width the lane loops vectorize at
/// (a single 64-bit word per lane would wedge scalar shifts into the
/// f32/i8 paths). Lane-width agnostic: the decoders size it once
/// for their widest lane group and run narrower groups over a prefix,
/// exactly like their other lane buffers.
template <class Datapath>
class CompressedCnLanes {
 public:
  using Value = typename Datapath::Value;
  using Traits = BatchTraits<Datapath>;
  using Index = typename Traits::Index;
  using UInt = typename Traits::UInt;

  static constexpr std::size_t kSignBits = 8 * sizeof(UInt);
  static constexpr std::size_t kSignWords = 64 / kSignBits;

  void Resize(std::size_t num_checks, std::size_t lanes) {
    const std::size_t size = num_checks * lanes;
    nmin1_.resize(size);
    nmin2_.resize(size);
    argmin_.resize(size);
    parity_.resize(size);
    signs_.resize(size * kSignWords);
  }

  Value* nmin1() { return nmin1_.data(); }
  Value* nmin2() { return nmin2_.data(); }
  Index* argmin() { return argmin_.data(); }
  UInt* parity() { return parity_.data(); }
  UInt* signs() { return signs_.data(); }

 private:
  std::vector<Value> nmin1_, nmin2_;
  std::vector<Index> argmin_;  // position, Value-width (see BatchTraits)
  std::vector<UInt> parity_;   // sign product as a full-width mask
  // Packed input signs, word-major then lane-major per check:
  // bit (i % kSignBits) of signs_[(m * kSignWords + i / kSignBits) *
  // lanes + l] is "input i of check m, lane l, was negative".
  std::vector<UInt> signs_;
};

// The portable (baseline-ISA) copy of the lane-templated view kernels
// (CompressedCnView). Per-ISA copies are compiled by the dispatch
// kernel TUs in their own namespaces; see lane_compress.inc.
#include "ldpc/core/lane_compress.inc"

}  // namespace cldpc::ldpc::core
