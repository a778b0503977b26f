/**
 * @file packed_codes.h
 * Blocked subspace-major ("fast-scan") storage for PQ code lists.
 *
 * PQ encoders emit codes code-major: code i's m bytes are contiguous.
 * SIMD ADC kernels want the transpose — for a group of codes, all
 * first-subspace bytes contiguous, then all second-subspace bytes —
 * so each subspace becomes one vector load instead of a strided
 * per-code byte walk (FAISS's fast-scan layout). PackedCodes stores a
 * list in blocks of kernels::kPackedBlock codes: within block b, byte
 * `b * kPackedBlock * m + s * kPackedBlock + j` is subspace s of code
 * `b * kPackedBlock + j`, and the final block is zero-padded to full
 * width (byte 0 is a valid table index, so kernels may compute the
 * padding lanes and discard them). Scanning goes through
 * kernels::ScanCodesPackedIntoTopK, whose distances equal the
 * subspace-order sum over each strided code in every kernel variant.
 */
#ifndef RAGO_RETRIEVAL_ANN_PACKED_CODES_H
#define RAGO_RETRIEVAL_ANN_PACKED_CODES_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "retrieval/ann/kernels/distance_kernels.h"

namespace rago::ann {

/// A list of m-byte PQ codes in the blocked subspace-major layout.
class PackedCodes {
 public:
  /// Empty list with no code width; assign a width-bearing instance
  /// before appending (lets node/list containers default-construct).
  PackedCodes() = default;

  /// Empty list of m-byte codes (m > 0).
  explicit PackedCodes(size_t m);

  /// Packs `num_codes` codes from the strided (code-major) layout.
  PackedCodes(const uint8_t* codes, size_t num_codes, size_t m);

  /// Appends one m-byte code (strided layout) to the list.
  void Append(const uint8_t* code);

  /// Unpacks code i back into m strided bytes at `out`.
  void Unpack(size_t i, uint8_t* out) const;

  /// The whole list back in the strided layout (num_codes * m bytes).
  std::vector<uint8_t> UnpackAll() const;

  /// Packed blocks, ceil(num_codes / kPackedBlock) * kPackedBlock * m
  /// bytes; the layout ScanCodesPackedIntoTopK expects.
  const uint8_t* data() const { return packed_.data(); }

  size_t num_codes() const { return num_codes_; }
  size_t m() const { return m_; }

  /// Total packed bytes including the final block's zero padding.
  size_t PackedBytes() const { return packed_.size(); }

 private:
  size_t m_ = 0;
  size_t num_codes_ = 0;
  std::vector<uint8_t> packed_;
};

}  // namespace rago::ann

#endif  // RAGO_RETRIEVAL_ANN_PACKED_CODES_H
