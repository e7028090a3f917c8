//===- verify/AbstractInterp.h - Abstract op-tape executor ------*- C++ -*-===//
///
/// \file
/// Abstract interpretation of one work-function firing over the affine
/// domain linear extraction also computes in (linear/AffineValue.h) —
/// the same operators, so the two agree bit for bit. The op tape is
/// executed exactly as wir::OpProgram::runImpl executes it — same
/// register frame, same field and local-array addressing, same loop
/// back-edges — but every value is an AffineValue instead of a double.
/// Loop counters and index registers stay concrete (they are constants
/// in the domain), so loops unroll to their real trip counts; a branch
/// on a data-dependent condition forks the path and both continuations
/// run to Halt, with the observable results joined by exact equality
/// (Extract's confluence).
///
/// The executor produces everything the three lint analyses consume:
/// the affine form of each pushed value (verify-linear), every statically
/// provable index/rate violation plus the highest peek offset touched
/// (verify-bounds), and the post-firing affine form of every mutable
/// field element (verify-state).
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_VERIFY_ABSTRACTINTERP_H
#define SLIN_VERIFY_ABSTRACTINTERP_H

#include "linear/AffineValue.h"
#include "wir/IR.h"
#include "wir/OpTape.h"

#include <string>
#include <vector>

namespace slin {
namespace verify {

/// A statically detected violation, anchored at a tape offset.
struct TapeFault {
  int Pc = -1; ///< instruction index; -1 for whole-tape facts
  std::string Msg;
};

/// Joined result of abstractly executing one firing.
struct TapeSummary {
  /// At least one path reached Halt (paths that fault hard stop early).
  bool Completed = false;
  /// The path/step budget ran out — results are partial and the caller
  /// must treat every property as unproven.
  bool Exploded = false;

  /// Data-dependent control flow was taken. FirstForkPc anchors the
  /// earliest branch whose condition was not a constant.
  bool Forked = false;
  int FirstForkPc = -1;

  /// Every index / rate / well-formedness violation found. Empty on a
  /// clean tape.
  std::vector<TapeFault> Faults;

  /// Affine form of each pushed value in push order, joined across
  /// completed paths (Top where paths disagree). Sized by the first
  /// completed path's push count.
  std::vector<AffineValue> Pushes;

  /// Post-firing value of every field element, [field][elem], joined
  /// across completed paths.
  std::vector<std::vector<AffineValue>> FieldFinal;

  /// Pops / pushes performed (from the first completed path; a fault is
  /// recorded when paths disagree or the count differs from the rates).
  int Pops = 0;
  int PushCount = 0;

  /// Highest input-window position read (peek offset + pops before it);
  /// -1 when the tape never reads input.
  int MaxPeekPos = -1;

  bool HasPrint = false;
  size_t PathsExplored = 0;

  bool faulted() const { return !Faults.empty(); }
};

/// Structural well-formedness of a (possibly deserialized, possibly
/// corrupted) tape against its own frame metadata and \p Fields: operand
/// register ranges, field/array slot ranges, immediate peek offsets,
/// intrinsic ids, jump targets. Violations are appended to \p Faults;
/// returns true when the tape is safe to (abstractly) execute.
bool checkWellFormed(const wir::OpProgram &P,
                     const std::vector<wir::FieldDef> &Fields,
                     std::vector<TapeFault> &Faults);

/// Abstractly executes one firing of \p P against \p Fields (the field
/// list the tape was compiled for). Always safe to call: a tape that
/// fails checkWellFormed is not executed and the summary only carries
/// the well-formedness faults.
TapeSummary abstractExecute(const wir::OpProgram &P,
                            const std::vector<wir::FieldDef> &Fields);

} // namespace verify
} // namespace slin

#endif // SLIN_VERIFY_ABSTRACTINTERP_H
