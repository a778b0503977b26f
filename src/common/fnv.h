/**
 * @file fnv.h
 * FNV-1a 64-bit hashing, the one fold behind the engine's outcome
 * digest, the cache tier's query fingerprints and the trace's
 * head-sampling verdicts.
 *
 * Words are folded least significant byte first by shifts, never by
 * reinterpreting memory, so a value hashes the same on every byte
 * order (and to the bytes a memcpy fold gives on little-endian hosts).
 */
#ifndef RAGO_COMMON_FNV_H
#define RAGO_COMMON_FNV_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace rago {

/// FNV-1a 64-bit offset basis: the hash of no bytes.
inline constexpr uint64_t kFnvOffset = 14695981039346656037ull;

/// Folds the sizeof(Word) bytes of `word` into `hash`, least
/// significant first.
template <typename Word>
constexpr uint64_t FnvFold(uint64_t hash, Word word) {
  static_assert(std::is_unsigned_v<Word>,
                "fold unsigned words; FloatBits gives a float's pattern");
  for (size_t byte = 0; byte < sizeof(Word); ++byte) {
    hash ^= static_cast<uint64_t>(word >> (byte * 8)) & 0xffu;
    hash *= 1099511628211ull;
  }
  return hash;
}

/// IEEE-754 bit patterns, for folding floating-point values exactly.
inline uint32_t FloatBits(float value) {
  uint32_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}
inline uint64_t FloatBits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

}  // namespace rago

#endif  // RAGO_COMMON_FNV_H
