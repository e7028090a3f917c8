//===- verify/Lint.h - WIR abstract-interpretation linter -------*- C++ -*-===//
///
/// \file
/// The three lint analyses built on the abstract tape executor
/// (linear/AbstractExec.h), each checking a fact the optimizer stack and
/// the engines otherwise take on trust:
///
///  * verify-linear — the linearity oracle: re-derives the affine form
///    [A, b] of every work function from its op tape and cross-checks
///    it against linear/Extract coefficient by coefficient (exact ==),
///    with a "not-linear" witness (tape offset + reason) whenever the
///    tape disagrees;
///  * verify-bounds — the bounds & rate proof: every peek/pop/push and
///    field/array index in every tape stays inside declared rates and
///    windows, and the schedule replay of sched/Schedule.h (the one
///    verifySchedule uses), run with the *tape-derived* rates instead of
///    the declared ones, keeps every flat-buffer position inside the
///    StaticSchedule's high-water marks and buffer capacities (the
///    positions the CxxEmit lowering indexes with);
///  * verify-state — the shard-recipe audit: every seed in the program's
///    ShardInfo must match the tape's state class (classifySteadyState),
///    and a worker seeded at a fixed steady iteration and washed out
///    must then reproduce a sequential run's outputs bit for bit.
///
/// All three run as pipeline passes under SLIN_VERIFY (compiler/
/// Pipeline.cpp) and power the standalone tools/slin-lint CLI.
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_VERIFY_LINT_H
#define SLIN_VERIFY_LINT_H

#include "compiler/Program.h"
#include "linear/AbstractExec.h"

#include <string>
#include <vector>

namespace slin {

class Filter;

namespace verify {

struct Finding {
  enum class Severity {
    Error, ///< a proven disagreement / violation — fails the pass
    Note,  ///< informational (e.g. tape affine where Extract declined)
  };
  Severity Sev = Severity::Error;
  std::string Pass;  ///< verify-linear / verify-bounds / verify-state
  std::string Where; ///< filter (flat-node) name, or "schedule"
  int Pc = -1;       ///< tape offset; -1 when not tape-anchored
  std::string Message;
};

class LintReport {
public:
  void add(Finding F) { Findings.push_back(std::move(F)); }
  void error(const std::string &Pass, const std::string &Where, int Pc,
             std::string Msg) {
    add({Finding::Severity::Error, Pass, Where, Pc, std::move(Msg)});
  }
  void note(const std::string &Pass, const std::string &Where, int Pc,
            std::string Msg) {
    add({Finding::Severity::Note, Pass, Where, Pc, std::move(Msg)});
  }

  const std::vector<Finding> &findings() const { return Findings; }
  size_t errorCount() const;
  size_t noteCount() const;

  /// First Error-severity message (empty when clean) — the pipeline
  /// Status message shape of opt/Cleanup.h's verifiers.
  std::string firstError() const;

  /// Human-readable findings report.
  std::string text() const;
  /// Machine-readable report: {"errors":N,"notes":N,"findings":[...]}.
  std::string json() const;

private:
  std::vector<Finding> Findings;
};

//===----------------------------------------------------------------------===//
// Pipeline pass entry points
//===----------------------------------------------------------------------===//
// Each appends its findings to \p R and returns "" when no Error-severity
// finding was produced, else a one-line summary suitable for a
// Status(ErrorCode::VerifyFailed) message.

std::string verifyLinear(const CompiledProgram &P, LintReport &R);
std::string verifyBounds(const CompiledProgram &P, LintReport &R);
std::string verifyState(const CompiledProgram &P, LintReport &R);

/// All three passes over one compiled program (the slin-lint CLI body).
LintReport lintProgram(const CompiledProgram &P);

//===----------------------------------------------------------------------===//
// Per-tape hooks (mutation-corpus tests; also the passes' internals)
//===----------------------------------------------------------------------===//

/// Linearity oracle over one tape: cross-checks \p Tape against the
/// extraction result of \p F. \p Where labels findings.
void lintTapeLinear(const wir::OpProgram &Tape, const Filter &F,
                    const std::string &Where, LintReport &R);

/// Bounds & rate proof over one tape (no schedule context).
void lintTapeBounds(const wir::OpProgram &Tape,
                    const std::vector<wir::FieldDef> &Fields,
                    const std::string &Where, LintReport &R);

} // namespace verify
} // namespace slin

#endif // SLIN_VERIFY_LINT_H
