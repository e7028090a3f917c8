//===- linear/AbstractExec.h - Abstract op-tape executor --------*- C++ -*-===//
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
/// One execution yields the affine form of each pushed value, every
/// statically provable index/rate violation plus the highest peek offset
/// touched (the verify-linear and verify-bounds lint passes, verify/
/// Lint.h), and the post-firing value of every mutable field element —
/// from which classifySteadyState derives the shard-boundary state
/// classes the parallel backend seeds (compiler/Program.h ShardInfo).
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_LINEAR_ABSTRACTEXEC_H
#define SLIN_LINEAR_ABSTRACTEXEC_H

#include "linear/AffineValue.h"
#include "wir/IR.h"
#include "wir/OpTape.h"

#include <string>
#include <vector>

namespace slin {

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
  /// across completed paths. A Top here depends on the fields every
  /// path's value and every data-dependent branch taken depended on.
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
/// intrinsic ids, jump targets — and that every register and local
/// array is written earlier in tape order than it is first read, so no
/// value crosses firings through the reused frame. Violations are
/// appended to \p Faults; returns true when the tape is safe to
/// (abstractly) execute.
bool checkWellFormed(const wir::OpProgram &P,
                     const std::vector<wir::FieldDef> &Fields,
                     std::vector<TapeFault> &Faults);

/// Abstractly executes one firing of \p P against \p Fields (the field
/// list the tape was compiled for). Always safe to call: a tape that
/// fails checkWellFormed is not executed and the summary only carries
/// the well-formedness faults.
TapeSummary abstractExecute(const wir::OpProgram &P,
                            const std::vector<wir::FieldDef> &Fields);

/// Classification of a work function's cross-firing state, for the
/// parallel backend's shard-boundary reconstruction (exec/Parallel.h). A
/// firing is *reconstructable* when its observable behaviour is a
/// function of (a) the current firing's input window, (b) fields whose
/// per-firing progression has a closed form, and (c) fields fully
/// rewritten from the current inputs — so a worker can jump to steady
/// iteration k by seeding (b) exactly and replaying a bounded warmup to
/// refresh (c) and the channel contents.
struct SteadyStateInfo {
  enum class FieldKind {
    Affine,          ///< f' = f + Delta; seed f += Delta * firings
    ModAffine,       ///< f' = fmod(f + Delta, Mod), 0 <= f < Mod
    InputDetermined, ///< rewritten each firing from current inputs only
  };
  struct FieldUpdate {
    int Field = -1;
    FieldKind Kind = FieldKind::InputDetermined;
    double Delta = 0.0;
    double Mod = 0.0; ///< ModAffine only
  };

  /// False: the tape carries state this analysis cannot reconstruct (a
  /// field whose new value depends on its own or another rewritten
  /// field's old value, or a tape that faults or exhausts the executor's
  /// budget). Shard boundaries cannot be reconstructed; the parallel
  /// backend falls back.
  bool Reconstructable = false;
  std::string Reason; ///< why not, when !Reconstructable

  /// One entry per mutable field the tape stores.
  std::vector<FieldUpdate> Updates;

  const FieldUpdate *updateFor(int Field) const {
    for (const FieldUpdate &U : Updates)
      if (U.Field == Field)
        return &U;
    return nullptr;
  }
};

/// Classifies \p P's cross-firing state from its abstract execution
/// against \p Fields (the field list the tape was compiled for). Each
/// stored mutable field's post-firing value decides its class:
/// `f + Delta` over its own initial symbol alone is Affine,
/// `fmod(f + Delta, Mod)` is ModAffine, and a value depending on no
/// state except never-stored or closed-form fields is InputDetermined.
/// A tape that stores no field is reconstructable, and one that stores
/// into a field array by index is not, without executing either.
SteadyStateInfo classifySteadyState(const wir::OpProgram &P,
                                    const std::vector<wir::FieldDef> &Fields);

} // namespace slin

#endif // SLIN_LINEAR_ABSTRACTEXEC_H
