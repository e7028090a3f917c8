//===- compiler/Pipeline.h - The compiler pipeline --------------*- C++ -*-===//
///
/// \file
/// The unified compilation pipeline: the paper's flow — linear analysis,
/// combination, replacement (linear / frequency / redundancy), automatic
/// selection, then lowering (flatten, schedule, tape-compile) — expressed
/// as named passes run by one driver, with per-pass wall-clock timing,
/// optional dump-after-pass (DOT + JSON of the stream after every
/// transform), a shared hash-consed analysis cache, and a program cache
/// that makes recompiling a structurally identical configuration a map
/// lookup.
///
/// PipelineOptions is the single options struct for the whole stack:
/// what used to be scattered across OptimizerOptions, MeasureOptions'
/// engine fields, and per-engine knob structs. `optimize()` and friends
/// (opt/Optimizer.h) are thin wrappers over CompilerPipeline::compile.
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_COMPILER_PIPELINE_H
#define SLIN_COMPILER_PIPELINE_H

#include "compiler/Program.h"
#include "exec/ExecOptions.h"
#include "opt/Frequency.h"
#include "opt/LinearReplacement.h"
#include "support/Error.h"

#include <string>
#include <vector>

namespace slin {

class AnalysisManager;
class CostModel;

enum class OptMode {
  Base,       ///< run the program as written
  Linear,     ///< maximal linear replacement
  Freq,       ///< maximal frequency replacement
  Redundancy, ///< redundancy elimination on every linear filter
  AutoSel     ///< automatic optimization selection (Section 4.3)
};

const char *optModeName(OptMode M);

/// True when SLIN_VERIFY is set (non-empty, not "0") in the environment:
/// the default for PipelineOptions::VerifyAfterEachPass, letting CI runs
/// turn the verifier pass on across an unmodified test suite.
bool defaultVerifyAfterEachPass();

/// Options for the whole pipeline: transformation selection, the paper's
/// knobs, engine/exec options, caches and diagnostics.
struct PipelineOptions {
  OptMode Mode = OptMode::Base;
  /// Combine adjacent linear streams before replacement (Section 3.3);
  /// the paper's "(nc)" configurations disable this.
  bool Combine = true;
  LinearCodeGenStyle CodeGen = LinearCodeGenStyle::Auto;
  FrequencyOptions Freq;
  /// AutoSel cost model. Default: the paper's model — except when
  /// compiling for the compiled engine, where the measured model for that
  /// engine is substituted (its op tapes shift the time/frequency
  /// break-even points).
  const CostModel *Model = nullptr;
  /// AutoSel combination size guard (SelectionOptions::MaxMatrixElements).
  size_t MaxMatrixElements = size_t(1) << 22;

  /// LinearConstFold (opt/Cleanup.h): after replacement/selection,
  /// rebuild generated linear filters with compile-time-constant
  /// structure — pure-offset nodes become constant emitters, dead
  /// deep-peek rows are trimmed so buffers shrink. Never runs in Base
  /// mode (the program runs as written). Outputs and FLOP counts are
  /// bit-identical with the pass on or off.
  bool ConstFold = true;
  /// DeadChannelElim (opt/Cleanup.h): after replacement/selection,
  /// delete splitjoin branches whose outputs are never consumed (and
  /// the channels feeding them). Never runs in Base mode.
  bool DeadChannelElim = true;
  /// VerifyRates (opt/Cleanup.h): re-derive the balance equations after
  /// every rewrite pass and cross-check the static schedule after
  /// lowering (verifySchedule, sched/Schedule.h), aborting with the
  /// offending pass's name on any inconsistency. Defaults to the
  /// SLIN_VERIFY environment variable.
  bool VerifyAfterEachPass = defaultVerifyAfterEachPass();

  /// Engine selection + knobs. With Engine::Compiled, compile() also
  /// lowers the optimized stream to a CompiledProgram artifact.
  ExecOptions Exec;

  /// Hash-consed analysis cache (null: process-global AnalysisManager).
  AnalysisManager *AM = nullptr;
  /// Consult/populate the global ProgramCache when lowering.
  bool UseProgramCache = true;

  /// Non-empty: after every transform pass, write
  /// <DumpDir>/<NN>-<pass>.dot and .json of the current stream.
  std::string DumpDir;
};

/// One executed pass, for timing reports and tests.
struct PassInfo {
  std::string Name;
  double Seconds = 0.0;
  std::string Note; ///< e.g. "12/14 filters linear", "program cache hit"
};

/// The result of running the pipeline on one stream.
struct CompileResult {
  StreamPtr Optimized;
  /// The reusable execution artifact; set when Exec.Eng == Compiled.
  CompiledProgramRef Program;
  bool ProgramCacheHit = false;
  std::vector<PassInfo> Passes;

  /// tryCompile only: the requested configuration failed and this
  /// result came from the degradation ladder (a Base-mode recompile).
  /// DegradeReason records the original failure for observability.
  bool Degraded = false;
  std::string DegradeReason;

  double totalSeconds() const;
  /// Human-readable per-pass timing table.
  std::string timingReport() const;
};

class CompilerPipeline {
public:
  explicit CompilerPipeline(PipelineOptions Opts) : Opts(std::move(Opts)) {}

  /// Runs the configured passes on \p Root. A verifier failure is
  /// fatal (Status::orDie): there is no Base-mode recompile on this
  /// route, so a broken pass dies loudly instead of passing the
  /// equivalence tests by degrading.
  CompileResult compile(const Stream &Root) const;

  /// The serving-path front door: like compile(), but a recoverable
  /// failure degrades instead of aborting. An optimization-pass or
  /// verifier failure (real, or injected via the pass-verifier-trip
  /// fault point) triggers one recompile in Base mode — the program as
  /// written, the always-correct degradation target — with the original
  /// failure recorded in CompileResult::DegradeReason. Only a failure
  /// of that Base recompile (or of Base itself) returns a Status.
  Expected<CompileResult> tryCompile(const Stream &Root) const;

  const PipelineOptions &options() const { return Opts; }

private:
  CompileResult compileImpl(const Stream &Root, const PipelineOptions &Opts,
                            Status &St) const;

  PipelineOptions Opts;
};

/// One-call convenience wrapper.
CompileResult compileStream(const Stream &Root, const PipelineOptions &Opts);

} // namespace slin

#endif // SLIN_COMPILER_PIPELINE_H
