// 64-bit FNV-1a: the one digest every replay, log and equivalence check in
// the repo folds its observables into.
//
// Deliberately not std::hash: a digest that is printed, persisted or used to
// seed a fault point's stream must be stable across builds and standard
// libraries for replays to be portable.
//
// Each fold takes the running hash and returns the next one, starting from
// kFnvOffset:
//
//   Fnv1aByte   one byte
//   Fnv1aBytes  a byte span (or a string's characters), in order
//   Fnv1aU64    a 64-bit value as its eight little-endian bytes
//   Fnv1aWord   a whole 64-bit word in one xor-multiply step (for combining
//               digests that are already FNV values)
#ifndef SRC_COMMON_FNV_H_
#define SRC_COMMON_FNV_H_

#include <span>
#include <string_view>

#include "src/common/types.h"

namespace emu {

inline constexpr u64 kFnvOffset = 14695981039346656037ull;
inline constexpr u64 kFnvPrime = 1099511628211ull;

constexpr u64 Fnv1aWord(u64 h, u64 word) { return (h ^ word) * kFnvPrime; }

constexpr u64 Fnv1aByte(u64 h, u8 byte) { return Fnv1aWord(h, byte); }

constexpr u64 Fnv1aBytes(u64 h, std::span<const u8> bytes) {
  for (const u8 byte : bytes) {
    h = Fnv1aByte(h, byte);
  }
  return h;
}

constexpr u64 Fnv1aBytes(u64 h, std::string_view text) {
  for (const char c : text) {
    h = Fnv1aByte(h, static_cast<u8>(c));
  }
  return h;
}

constexpr u64 Fnv1aU64(u64 h, u64 value) {
  for (int i = 0; i < 8; ++i) {
    h = Fnv1aByte(h, static_cast<u8>(value >> (8 * i)));
  }
  return h;
}

}  // namespace emu

#endif  // SRC_COMMON_FNV_H_
