//===- linear/LinearNode.h - Linear node representation ---------*- C++ -*-===//
///
/// \file
/// Definition 1 (Section 3.1): a linear node Λ = {A, b, e, o, u}
/// represents an abstract stream block computing y⃗ = x⃗ A + b⃗, where
/// x⃗[i] = peek(e − 1 − i) and the u entries of y⃗ are pushed starting with
/// y⃗[u−1]. A and b are stored in exactly this *paper orientation* so the
/// combination transformations (3.3) transcribe verbatim; natural-order
/// accessors are provided for code generation and execution:
///
///   coeff(p, j)  — the coefficient of peek(p) in the j'th pushed value,
///                   i.e. A[e−1−p, u−1−j];
///   offset(j)    — the constant added to the j'th pushed value, b[u−1−j].
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_LINEAR_LINEARNODE_H
#define SLIN_LINEAR_LINEARNODE_H

#include "matrix/Matrix.h"

#include <vector>

namespace slin {

class LinearNode {
public:
  LinearNode() = default;

  /// \p A is e x u in paper orientation; \p B has u entries.
  LinearNode(Matrix A, Vector B, int E, int O, int U);

  int peekRate() const { return E; }
  int popRate() const { return O; }
  int pushRate() const { return U; }

  const Matrix &matrix() const { return A; }
  const Vector &vector() const { return B; }
  Matrix &matrix() { return A; }
  Vector &vector() { return B; }

  /// Coefficient of peek(\p PeekIdx) in push \p PushIdx (natural order).
  double coeff(int PeekIdx, int PushIdx) const {
    return A.at(static_cast<size_t>(E - 1 - PeekIdx),
                static_cast<size_t>(U - 1 - PushIdx));
  }

  /// Constant offset of push \p PushIdx (natural order).
  double offset(int PushIdx) const {
    return B[static_cast<size_t>(U - 1 - PushIdx)];
  }

  /// The e x u coefficient matrix in natural orientation: entry (p, j)
  /// multiplies peek(p) in push j. Used by the runtime kernels.
  Matrix naturalMatrix() const;

  /// Offsets in natural (push) order.
  Vector naturalOffsets() const;

  /// Executes one firing: \p Peeks must hold at least e values with
  /// Peeks[i] = peek(i); returns the u pushed values in push order.
  /// (Analysis-time reference semantics; not routed through op counters.)
  std::vector<double> apply(const double *Peeks) const;
  std::vector<double> apply(const std::vector<double> &Peeks) const;

  /// Runs \p Firings consecutive firings over \p Input (sliding by o) and
  /// concatenates the pushed values — reference semantics for tests.
  std::vector<double> applyStream(const std::vector<double> &Input,
                                  int Firings) const;

  size_t nonZeroCount() const { return A.countNonZero(); }
  size_t nonZeroOffsetCount() const { return B.countNonZero(); }

  /// Max elementwise difference over A and b; rates must match.
  double maxAbsDiff(const LinearNode &O) const;

  bool sameRates(const LinearNode &O) const {
    return E == O.E && this->O == O.O && U == O.U;
  }

  std::string str() const;

private:
  Matrix A; ///< e x u, paper orientation
  Vector B; ///< u entries, paper orientation
  int E = 0;
  int O = 0;
  int U = 0;
};

//===----------------------------------------------------------------------===//
// Transformations (Section 3.3)
//===----------------------------------------------------------------------===//

/// Transformation 1 (linear expansion): scales \p N to rates (E2, O2, U2)
/// by placing shifted copies of A along the diagonal from the bottom
/// right, preserving the input/output relationship of each firing.
LinearNode expand(const LinearNode &N, int E2, int O2, int U2);

/// Transformation 2 (pipeline combination): a single node equivalent to
/// \p First feeding \p Second.
LinearNode combinePipeline(const LinearNode &First, const LinearNode &Second);

/// Transformation 3 (duplicate splitjoin combination): a single node
/// equivalent to a duplicate splitter feeding \p Children whose outputs
/// are merged by a roundrobin joiner with \p JoinWeights.
LinearNode combineSplitJoinDuplicate(const std::vector<LinearNode> &Children,
                                     const std::vector<int> &JoinWeights);

/// The decimator node of Transformation 4 for child \p K: consumes VTot
/// items (one roundrobin splitter cycle) and copies through the VK items
/// destined for child K (offset VSumK into the cycle).
LinearNode makeDecimator(int VTot, int VSumK, int VK);

/// Transformation 4 (roundrobin-to-duplicate): rewrites each child as
/// decimator ∘ child so a roundrobin splitter can be treated as duplicate.
std::vector<LinearNode>
roundRobinToDuplicate(const std::vector<LinearNode> &Children,
                      const std::vector<int> &SplitWeights);

/// Combines any linear splitjoin: applies Transformation 4 first when the
/// splitter is roundrobin, then Transformation 3.
LinearNode combineSplitJoin(const std::vector<LinearNode> &Children,
                            bool DuplicateSplitter,
                            const std::vector<int> &SplitWeights,
                            const std::vector<int> &JoinWeights);

} // namespace slin

#endif // SLIN_LINEAR_LINEARNODE_H
