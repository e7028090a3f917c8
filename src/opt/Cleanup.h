//===- opt/Cleanup.h - Cleanup and verification passes ----------*- C++ -*-===//
///
/// \file
/// The compiler pipeline's cleanup and verification passes, run after the
/// paper's replacement/selection transforms (compiler/Pipeline.h):
///
///  * **LinearConstFold** — rebuilds generated linear filters whose
///    coefficient matrices carry compile-time-constant structure:
///    pure-offset nodes (A == 0, e.g. a linear region fed only by
///    constants) become constant emitters with no peek window beyond
///    their pops, and nodes whose deepest peek positions have all-zero
///    coefficients (combined decimating sections — Compressor tails —
///    produce these) get those dead rows trimmed, shrinking the peek
///    window and therefore every downstream buffer. Folding only fires
///    on filters that are verbatim outputs of our own code generator
///    (checked by structural hash), so the rebuilt filter's arithmetic —
///    and with it both output values and FLOP counts — is bit-identical
///    to the unfolded one.
///
///  * **DeadChannelElim** — deletes splitjoin branches whose outputs are
///    never consumed (joiner weight zero) and have no observable side
///    effects (no print statements anywhere in the subtree). Branches
///    fed by a duplicate splitter (or a zero splitter weight) are
///    removed outright; branches owed input by a roundrobin splitter are
///    reduced to a minimal pop-and-discard sink so the splitter's item
///    accounting is preserved. Splitjoins left with a single branch
///    collapse to that branch. The flat graph and schedule are
///    recomputed downstream, so the dead channels' buffers disappear.
///
///  * **VerifyRates** — an assertion pass: verifyStreamRates re-derives
///    the push/pop/peek balance equations of the (rewritten) stream
///    hierarchy and reports the first inconsistency as a string instead
///    of executing anything. The pipeline runs it after every rewrite
///    when PipelineOptions::VerifyAfterEachPass is set (default: the
///    SLIN_VERIFY environment variable), failing fast with the offending
///    pass's name.
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_OPT_CLEANUP_H
#define SLIN_OPT_CLEANUP_H

#include "graph/Stream.h"
#include "opt/LinearReplacement.h"

#include <cstdint>
#include <string>

namespace slin {

class AnalysisManager;

/// What the cleanup passes changed, for pass notes and tests.
struct CleanupStats {
  int ConstEmitters = 0;   ///< A == 0 nodes rebuilt as constant emitters
  int TrimmedFilters = 0;  ///< filters whose peek window shrank
  int64_t TrimmedPeekRows = 0; ///< dead peek positions removed in total
  int RemovedBranches = 0; ///< splitjoin children deleted outright
  int DiscardSinks = 0;    ///< dead branches reduced to pop-and-discard
  int CollapsedSplitJoins = 0; ///< single-branch splitjoins inlined

  bool any() const {
    return ConstEmitters || TrimmedFilters || RemovedBranches ||
           DiscardSinks || CollapsedSplitJoins;
  }
  /// Short human-readable summary for PassInfo notes ("no change" when
  /// nothing fired).
  std::string summary() const;
};

/// LinearConstFold. Returns the rewritten stream, or null when nothing
/// folded (the caller keeps the input). \p Style must be the pipeline's
/// code-generation style: a filter is only rebuilt when regenerating its
/// extracted node under \p Style reproduces it exactly, which both
/// certifies it as code-generator output and guarantees the trimmed
/// rebuild differs in nothing but the peek rate. \p AM memoizes the
/// extractions.
StreamPtr constFoldLinear(const Stream &Root, AnalysisManager &AM,
                          LinearCodeGenStyle Style, CleanupStats &Stats);

/// DeadChannelElim. Returns the rewritten stream, or null when nothing
/// was removed.
StreamPtr eliminateDeadChannels(const Stream &Root, CleanupStats &Stats);

/// True if any work/init-work function in \p S contains a print
/// statement (the only externally observable effect a stream can have).
bool hasObservableEffects(const Stream &S);

/// Re-derives the balance equations of \p Root; returns the first
/// inconsistency ("" when the graph has a valid steady state). Also
/// rejects negative rates, peek < pop windows and malformed init rates.
std::string verifyStreamRates(const Stream &Root);

} // namespace slin

#endif // SLIN_OPT_CLEANUP_H
