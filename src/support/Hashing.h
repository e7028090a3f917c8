//===- support/Hashing.h - Order-sensitive 128-bit hashing ------*- C++ -*-===//
///
/// \file
/// A small accumulating hasher used for structural hashing of stream
/// graphs (compiler/StructuralHash.h) and for the content keys of the
/// analysis and program caches. Two independently-mixed 64-bit lanes give
/// a 128-bit digest, making accidental collisions between distinct
/// structures negligible even across millions of cache entries — the
/// caches treat digest equality as structural equality.
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_SUPPORT_HASHING_H
#define SLIN_SUPPORT_HASHING_H

#include <cstdint>
#include <cstring>
#include <string>
#include <tuple>

namespace slin {

/// A 128-bit hash value; totally ordered so it can key std::map.
struct HashDigest {
  uint64_t Lo = 0;
  uint64_t Hi = 0;

  bool operator==(const HashDigest &O) const {
    return Lo == O.Lo && Hi == O.Hi;
  }
  bool operator!=(const HashDigest &O) const { return !(*this == O); }
  bool operator<(const HashDigest &O) const {
    return std::tie(Lo, Hi) < std::tie(O.Lo, O.Hi);
  }

  std::string str() const {
    static const char *Hex = "0123456789abcdef";
    std::string S(32, '0');
    for (int I = 0; I != 16; ++I) {
      S[static_cast<size_t>(15 - I)] = Hex[(Lo >> (4 * I)) & 0xF];
      S[static_cast<size_t>(31 - I)] = Hex[(Hi >> (4 * I)) & 0xF];
    }
    return S;
  }
};

/// Order-sensitive accumulator: feed values in a canonical traversal
/// order; equal digests mean equal feed sequences.
class HashStream {
public:
  void mix(uint64_t V) {
    // splitmix64-style finalization per lane, with distinct multipliers
    // so the lanes stay independent.
    A = stir(A ^ (V + 0x9e3779b97f4a7c15ULL), 0xbf58476d1ce4e5b9ULL);
    B = stir(B + (V ^ 0x94d049bb133111ebULL), 0xff51afd7ed558ccdULL);
    ++Count;
  }
  void mixInt(int64_t V) { mix(static_cast<uint64_t>(V)); }
  void mixDouble(double D) {
    uint64_t Bits;
    std::memcpy(&Bits, &D, sizeof(Bits));
    mix(Bits);
  }
  HashDigest digest() const {
    // Final avalanche, folding the element count in so prefixes differ.
    return {stir(A ^ Count, 0xc2b2ae3d27d4eb4fULL),
            stir(B + Count, 0x9e3779b97f4a7c15ULL)};
  }

private:
  static uint64_t stir(uint64_t X, uint64_t Mult) {
    X ^= X >> 30;
    X *= Mult;
    X ^= X >> 27;
    X *= 0x94d049bb133111ebULL;
    X ^= X >> 31;
    return X;
  }

  uint64_t A = 0x6a09e667f3bcc908ULL;
  uint64_t B = 0xbb67ae8584caa73bULL;
  uint64_t Count = 0;
};

} // namespace slin

#endif // SLIN_SUPPORT_HASHING_H
