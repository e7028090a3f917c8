//===- support/MathUtil.h - Integer math helpers ---------------*- C++ -*-===//
///
/// \file
/// gcd/lcm helpers and small rational arithmetic used by the steady-state
/// scheduler (Section 3.3.1) and the combination transformations
/// (Transformations 2 and 3), which are phrased in terms of lcm's of
/// filter I/O rates.
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_SUPPORT_MATHUTIL_H
#define SLIN_SUPPORT_MATHUTIL_H

#include "support/Diag.h"

#include <cassert>
#include <cstdint>
#include <numeric>

namespace slin {

inline int64_t gcd64(int64_t A, int64_t B) { return std::gcd(A, B); }

inline int64_t lcm64(int64_t A, int64_t B) {
  assert(A > 0 && B > 0 && "lcm of non-positive rates");
  return A / std::gcd(A, B) * B;
}

/// ceil(A / B) for positive operands.
inline int64_t ceilDiv(int64_t A, int64_t B) {
  assert(B > 0 && "division by non-positive value");
  return (A + B - 1) / B;
}

/// Saturating int64 arithmetic for the aggregate-rate solver
/// (tryComputeRates): repetition counts of extreme candidate rewrites
/// priced by the selection DP compound multiplicatively through nested
/// roundrobin interfaces and can exceed int64. Any graph that saturates
/// here is far past every combination size guard, so clamping at
/// INT64_MAX where wrapping would be UB never changes a viable
/// configuration.
inline int64_t mulSat64(int64_t A, int64_t B) {
  int64_t R;
  if (__builtin_mul_overflow(A, B, &R))
    return INT64_MAX;
  return R;
}

inline int64_t addSat64(int64_t A, int64_t B) {
  int64_t R;
  if (__builtin_add_overflow(A, B, &R))
    return INT64_MAX;
  return R;
}

/// An exact non-negative rational, used to solve SDF balance equations.
/// Always kept in lowest terms with a positive denominator.
class Rational {
public:
  Rational() = default;
  Rational(int64_t Num, int64_t Den = 1) : Num(Num), Den(Den) { normalize(); }

  int64_t num() const { return Num; }
  int64_t den() const { return Den; }

  Rational operator*(const Rational &O) const {
    return Rational(Num * O.Num, Den * O.Den);
  }
  Rational operator/(const Rational &O) const {
    if (O.Num == 0)
      fatalError("rational division by zero while solving balance equations");
    return Rational(Num * O.Den, Den * O.Num);
  }
  bool operator==(const Rational &O) const {
    return Num == O.Num && Den == O.Den;
  }

private:
  void normalize() {
    if (Den == 0)
      fatalError("rational with zero denominator");
    if (Den < 0) {
      Num = -Num;
      Den = -Den;
    }
    int64_t G = std::gcd(Num < 0 ? -Num : Num, Den);
    if (G > 1) {
      Num /= G;
      Den /= G;
    }
  }

  int64_t Num = 0;
  int64_t Den = 1;
};

} // namespace slin

#endif // SLIN_SUPPORT_MATHUTIL_H
