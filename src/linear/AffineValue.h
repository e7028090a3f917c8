//===- linear/AffineValue.h - Affine abstract values -------------*- C++ -*-===//
///
/// \file
/// The value domain of linear extraction (paper Section 3.2) and of the
/// abstract tape executor (linear/AbstractExec.h): a value is tracked as
/// an affine combination of the current firing's input window, the
/// filter's symbolic initial state, and a constant:
///
///     v  =  Σᵢ In[i]·peek(i)  +  Σₛ State[s]·state(s)  +  Const
///
/// with two extra points: Top (no affine form known) and ModVal — the
/// image of an affine value under fmod(·, Mod), the shape of a modular
/// cursor in the shard-boundary state classifier. A Top still remembers
/// which fields' state it was computed from, so the classifier can tell
/// `abs(pop())` (no prior state) from a latch on its own old value.
///
/// Both traversals compute with the operators below and nothing else, so
/// a value both call affine carries bit-identical coefficients — the
/// property the verify-linear oracle's exact `[A, b]` cross-check rests
/// on. The two traversals stay separate (Extract walks the tree IR, the
/// executor the op tape); only the arithmetic is shared. Extract never
/// creates state symbols (mutable state reads are Top there) and treats
/// a ModVal exactly like Top; unassigned (⊥) slots belong to its
/// variable store, not to this domain.
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_LINEAR_AFFINEVALUE_H
#define SLIN_LINEAR_AFFINEVALUE_H

#include "matrix/Matrix.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace slin {

/// Symbol naming one element of a filter's initial (pre-firing) mutable
/// state: field index in the high half, element index in the low half.
using StateSym = int64_t;

inline StateSym stateSym(int Field, int Elem) {
  return (static_cast<int64_t>(Field) << 32) |
         static_cast<uint32_t>(Elem);
}
inline int symField(StateSym S) { return static_cast<int>(S >> 32); }
inline int symElem(StateSym S) {
  return static_cast<int>(S & 0xffffffff);
}

class AffineValue {
public:
  enum class Kind {
    Val,    ///< affine: In·peeks + State·state + Const
    ModVal, ///< fmod(affine part, Mod) with Mod a positive constant
    Top,    ///< unknown / not affine
  };

  Kind K = Kind::Val;
  /// Dense input-window coefficients, always sized to the filter's peek
  /// window E = max(peek, pop).
  Vector In;
  /// Sparse initial-state coefficients (mutable field elements only).
  std::map<StateSym, double> State;
  double Const = 0.0;
  double Mod = 0.0; ///< ModVal only; > 0
  /// Top only: bit F % 64 is set when the value may depend on the initial
  /// state of field F. Fields 64 apart share a bit, which can only widen
  /// the dependence; a fixed-size set keeps Top cheap to copy and join
  /// even where an unknown index touches every element of a field array.
  uint64_t DepFields = 0;
  /// The DepFields bit standing for field \p Field.
  static uint64_t fieldBit(int Field) {
    return uint64_t(1) << (static_cast<unsigned>(Field) % 64);
  }

  static AffineValue top() {
    AffineValue V;
    V.K = Kind::Top;
    return V;
  }
  /// Top depending on every field \p A and \p B depend on.
  static AffineValue topOf(const AffineValue &A) {
    AffineValue V = top();
    V.absorbDeps(A);
    return V;
  }
  static AffineValue topOf(const AffineValue &A, const AffineValue &B) {
    AffineValue V = topOf(A);
    V.absorbDeps(B);
    return V;
  }
  static AffineValue constant(double C, size_t E) {
    AffineValue V;
    V.In = Vector(E);
    V.Const = C;
    return V;
  }
  /// peek(\p Pos): a unit coefficient (Algorithm 1's BuildCoeff).
  static AffineValue input(size_t Pos, size_t E) {
    AffineValue V;
    V.In = Vector(E);
    V.In[Pos] = 1.0;
    return V;
  }
  static AffineValue initialState(int Field, int Elem, size_t E) {
    AffineValue V;
    V.In = Vector(E);
    V.State[stateSym(Field, Elem)] = 1.0;
    return V;
  }

  bool isVal() const { return K == Kind::Val; }
  bool isTop() const { return K == Kind::Top; }
  bool isModVal() const { return K == Kind::ModVal; }

  /// Any nonzero initial-state coefficient? (Zero-valued entries are
  /// treated as absent, so scaling by 0 does not change the answer.)
  bool dependsOnState() const;

  /// Adds the fields \p V depends on to this Top's dependence set.
  void absorbDeps(const AffineValue &V);

  /// A Val with no nonzero input or state coefficient.
  bool isConst() const {
    return isVal() && In.countNonZero() == 0 && !dependsOnState();
  }

  /// Affine purely over the input window — the verify-linear shape.
  bool isInputAffine() const { return isVal() && !dependsOnState(); }

  /// Exact structural equality (double ==, zero state entries ignored):
  /// the confluence ⊔ of both analyses keeps a value only where every
  /// joined path agrees on it this way, and is Top otherwise.
  bool sameValue(const AffineValue &O) const;

  /// Human-readable rendering for findings ("0.5*peek(3) + state(h[0]) +
  /// 1"). \p FieldName maps a field index to its name (may be null).
  std::string str(const std::vector<std::string> *FieldNames = nullptr) const;
};

/// L + Sign*R (Sign = ±1 for add/sub): start from L, accumulate Sign*R
/// elementwise.
AffineValue affAdd(const AffineValue &L, const AffineValue &R, double Sign);

/// V scaled by the constant C: every coefficient and the constant
/// multiplied, in index order.
AffineValue affScale(const AffineValue &V, double C);

/// L * R: the constant side scales the other (L checked first); both
/// non-constant is Top. Every Top an operator returns depends on the
/// fields of its operands.
AffineValue affMul(const AffineValue &L, const AffineValue &R);

/// L / R: a constant nonzero divisor scales L by 1.0/C
/// (reciprocal-then-multiply, NOT elementwise division). Any other
/// divisor is Top — even over a constant-zero dividend, since the
/// runtime divisor might be singular (footnote in Section 3.2).
AffineValue affDiv(const AffineValue &L, const AffineValue &R);

/// -V: elementwise negation (not 0 - x).
AffineValue affNeg(const AffineValue &V);

/// fmod(L, R): two constants fold with std::fmod; an affine L with a
/// positive constant modulus becomes ModVal (the modular-cursor shape);
/// anything else is Top.
AffineValue affModOp(const AffineValue &L, const AffineValue &R);

} // namespace slin

#endif // SLIN_LINEAR_AFFINEVALUE_H
