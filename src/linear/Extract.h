//===- linear/Extract.h - Linear extraction analysis ------------*- C++ -*-===//
///
/// \file
/// The linear extraction analysis of Section 3.2 (Algorithms 1 and 2): a
/// flow-sensitive forward dataflow analysis that symbolically executes a
/// filter's work function, mapping each program variable to a linear form
/// ⟨v⃗, c⟩ (value = x⃗·v⃗ + c over the input items) in a lattice with ⊥ and
/// ⊤, and filling in the A matrix and b vector column by column as pushes
/// are encountered. The forms and their arithmetic are the shared affine
/// domain of linear/AffineValue.h; ⊥ (an unassigned slot) lives in the
/// analysis's variable store. Loops are fully unrolled (bounds must
/// resolve to constants); both branch arms are executed and joined with
/// the confluence operator ⊔.
///
/// Practical extensions faithful to the real StreamIt implementation:
///  * const filter fields (initialized at construction, never written by
///    work) fold to constants — every Appendix-A FIR reads its h[] so;
///  * local arrays with constant indices are tracked element-wise;
///  * a branch whose condition resolves to a constant executes only the
///    taken arm; `&&`/`||` skip their right operand when the left one
///    decides the result, and otherwise treat it as a branch arm;
///  * any access to mutable (persistent) state yields ⊤, as do intrinsic
///    calls and nonlinear operators on non-constant operands, print
///    statements, and unresolvable peek indices or loop bounds.
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_LINEAR_EXTRACT_H
#define SLIN_LINEAR_EXTRACT_H

#include "graph/Stream.h"
#include "linear/LinearNode.h"

#include <optional>
#include <string>

namespace slin {

/// Result of attempting linear extraction on one filter.
struct ExtractionResult {
  std::optional<LinearNode> Node;
  std::string FailureReason; ///< set when Node is empty

  bool isLinear() const { return Node.has_value(); }
};

/// Runs the extraction analysis on \p F's steady-state work function.
/// Native filters and filters that push nothing are reported nonlinear.
ExtractionResult extractLinearNode(const Filter &F);

} // namespace slin

#endif // SLIN_LINEAR_EXTRACT_H
