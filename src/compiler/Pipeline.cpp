//===- compiler/Pipeline.cpp - The compiler pipeline --------------------------==//

#include "compiler/Pipeline.h"

#include "codegen/NativeModule.h"
#include "compiler/AnalysisManager.h"
#include "compiler/ArtifactStore.h"
#include "compiler/StructuralHash.h"
#include "graph/Export.h"
#include "linear/Analysis.h"
#include "opt/Cleanup.h"
#include "opt/Redundancy.h"
#include "opt/Selection.h"
#include "sched/Schedule.h"
#include "support/Diag.h"
#include "support/FaultInjection.h"
#include "support/RuntimeConfig.h"
#include "verify/Lint.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace slin;

const char *slin::optModeName(OptMode M) {
  switch (M) {
  case OptMode::Base:
    return "base";
  case OptMode::Linear:
    return "linear";
  case OptMode::Freq:
    return "freq";
  case OptMode::Redundancy:
    return "redundancy";
  case OptMode::AutoSel:
    return "autosel";
  }
  unreachable("unknown optimization mode");
}

bool slin::defaultVerifyAfterEachPass() {
  return RuntimeConfig::current().Verify;
}

double CompileResult::totalSeconds() const {
  double T = 0.0;
  for (const PassInfo &P : Passes)
    T += P.Seconds;
  return T;
}

std::string CompileResult::timingReport() const {
  std::string Out;
  char Buf[160];
  for (const PassInfo &P : Passes) {
    std::snprintf(Buf, sizeof(Buf), "%-22s %9.3f ms  %s\n", P.Name.c_str(),
                  P.Seconds * 1e3, P.Note.c_str());
    Out += Buf;
  }
  std::snprintf(Buf, sizeof(Buf), "%-22s %9.3f ms\n", "total",
                totalSeconds() * 1e3);
  Out += Buf;
  return Out;
}

namespace {

/// Runs one pass body under the wall clock and records it.
template <class Fn>
auto runPass(CompileResult &R, const std::string &Name, Fn &&Body)
    -> decltype(Body()) {
  auto Start = std::chrono::steady_clock::now();
  auto Value = Body();
  double Secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  R.Passes.push_back({Name, Secs, std::string()});
  return Value;
}

void dumpAfterPass(const PipelineOptions &Opts, size_t Index,
                   const std::string &Pass, const Stream &S) {
  if (Opts.DumpDir.empty())
    return;
  char Prefix[32];
  std::snprintf(Prefix, sizeof(Prefix), "%02zu-", Index);
  std::string Base = Opts.DumpDir + "/" + Prefix + Pass;
  writeTextFile(Base + ".dot", streamToDot(S));
  writeTextFile(Base + ".json", streamToJson(S));
}

std::string analysisNote(const LinearAnalysis &LA) {
  LinearAnalysis::Stats St = LA.stats();
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "%d/%d filters linear",
                St.LinearFilters, St.Filters);
  return Buf;
}

/// Pipeline-level persistent cache key: the *pre-optimization* structure
/// plus every configuration knob that shapes what the passes produce. A
/// warm process that resolves this key through the artifact store's
/// alias records skips analysis, selection, replacement AND lowering —
/// the "zero compiler passes" load path. Returns false when the
/// configuration cannot be keyed: no compiled artifact requested, the
/// program cache bypassed, dump-after-pass side effects wanted, or a
/// cost model that does not content-hash.
bool pipelineAliasKey(const Stream &Root, const PipelineOptions &Opts,
                      HashDigest &Out) {
  // Destructured for the same compile-time exhaustiveness guarantee as
  // hashOptions: a new PipelineOptions (or FrequencyOptions) field fails
  // to compile here until it is either mixed into the key or explicitly
  // discarded below as non-semantic — it can never silently alias stored
  // compiles produced under different configurations.
  const auto &[Mode, Combine, CodeGen, Freq, Model, MaxMatrixElements,
               ConstFold, DeadChannelElim, VerifyAfterEachPass, Exec, AM,
               UseProgramCache, DumpDir] = Opts;
  // Non-semantic knobs: the analysis cache only memoizes pure functions,
  // the verifier never changes what the passes produce, and a bypassed
  // program cache / requested pass dumps disable aliasing entirely
  // rather than key it.
  (void)AM;
  (void)VerifyAfterEachPass;
  if (!usesCompiledArtifact(Exec.Eng) || !UseProgramCache ||
      !DumpDir.empty())
    return false;
  HashStream H;
  H.mix(0xa11a5); // domain tag
  hashStream(H, Root);
  H.mixInt(static_cast<int64_t>(Mode));
  H.mix(Combine ? 1 : 0);
  H.mixInt(static_cast<int64_t>(CodeGen));
  const auto &[FreqOptimized, FreqTier, FreqFFTSizeOverride, FreqPopLimit] =
      Freq;
  H.mix(FreqOptimized ? 1 : 0);
  H.mixInt(static_cast<int64_t>(FreqTier));
  H.mixInt(FreqFFTSizeOverride);
  H.mixInt(FreqPopLimit);
  if (!Model) {
    H.mix(0); // default model (engine-substituted deterministically)
  } else {
    H.mix(1);
    if (!Model->hashContent(H))
      return false;
  }
  H.mix(MaxMatrixElements);
  H.mix(ConstFold ? 1 : 0);
  H.mix(DeadChannelElim ? 1 : 0);
  // Of ExecOptions, only the compiled-engine knobs shape the artifact:
  // every artifact engine runs the same tapes/kernels (selection
  // substitutes one shared compiled-engine model), and DynamicOptions
  // never reach the compiled path.
  HashDigest OD = hashOptions(Exec.Compiled);
  H.mix(OD.Lo);
  H.mix(OD.Hi);
  Out = H.digest();
  return true;
}

/// Engine::Native: resolve (or emit+compile+dlopen) the program's native
/// module, recorded as its own timed pass. A null module is *not* an
/// error — no toolchain, a failed compile or a failed dlopen are
/// environmental, and the op-tape engine underneath is bit-identical —
/// so the result only carries Degraded/DegradeReason for observability.
/// Executors re-fetch the module from the cache (a memory hit).
void ensureNative(CompileResult &R) {
  codegen::NativeModuleCache &C = codegen::NativeModuleCache::global();
  codegen::NativeModuleCache::Stats Before = C.stats();
  std::string Reason;
  codegen::NativeModuleRef M =
      runPass(R, "native-codegen", [&] { return C.get(*R.Program, &Reason); });
  codegen::NativeModuleCache::Stats After = C.stats();
  if (M) {
    // Best-effort provenance from the stats delta (cosmetic only; other
    // threads may interleave).
    if (After.DiskHits > Before.DiskHits)
      R.Passes.back().Note = "disk object hit";
    else if (After.Compiles > Before.Compiles)
      R.Passes.back().Note = "emitted+compiled";
    else
      R.Passes.back().Note = "native cache hit (memory)";
    return;
  }
  R.Passes.back().Note = "degraded: " + Reason;
  R.Degraded = true;
  R.DegradeReason = "native codegen degraded to op tapes: " + Reason;
}

} // namespace

CompileResult CompilerPipeline::compile(const Stream &Root) const {
  // No Base-mode recompile here: a broken pass must die, not pass the
  // equivalence tests by degrading.
  Status St;
  CompileResult R = compileImpl(Root, Opts, St);
  St.orDie();
  return R;
}

Expected<CompileResult> CompilerPipeline::tryCompile(const Stream &Root) const {
  Status St;
  CompileResult R = compileImpl(Root, Opts, St);
  if (St.isOk())
    return R;
  // Degradation ladder: an optimization-pass or verifier failure means
  // the *rewritten* program is suspect — the program as written is not.
  // Recompile in Base mode and record why.
  if (Opts.Mode == OptMode::Base)
    return St.withContext("compile (base mode)");
  PipelineOptions BaseOpts = Opts;
  BaseOpts.Mode = OptMode::Base;
  Status BaseSt;
  CompileResult BaseR = compileImpl(Root, BaseOpts, BaseSt);
  if (!BaseSt.isOk())
    return BaseSt.withContext("base-mode degraded recompile");
  BaseR.Degraded = true;
  BaseR.DegradeReason = St.str();
  return BaseR;
}

/// The shared pipeline body. A verification failure is recorded in
/// \p St and the partial result returned; compile() and tryCompile()
/// apply their own policies to it.
/// \p Opts shadows the member deliberately: the degraded Base-mode
/// recompile reruns this body under modified options.
CompileResult CompilerPipeline::compileImpl(const Stream &Root,
                                            const PipelineOptions &Opts,
                                            Status &St) const {
  CompileResult R;
  AnalysisManager *AM = Opts.AM ? Opts.AM : &AnalysisManager::global();

  // VerifyRates: re-derive the balance equations of the current stream
  // after a rewrite pass, recorded as its own timed pass and a failure
  // (with the offending pass named) on the first inconsistency — a
  // corrupted rewrite stops here instead of surfacing as a wrong answer
  // three passes later. The pass-verifier-trip fault point injects a
  // failure here to drive the recovery ladder deterministically.
  // Returns false when compilation must stop.
  auto verifyAfter = [&](const Stream &S) {
    if (!Opts.VerifyAfterEachPass)
      return true;
    std::string After = R.Passes.empty() ? "<input>" : R.Passes.back().Name;
    std::string Err =
        runPass(R, "verify-rates", [&] { return verifyStreamRates(S); });
    R.Passes.back().Note = "after " + After;
    if (Err.empty() && faults::shouldFail(faults::Point::PassVerifierTrip))
      Err = "injected verifier trip";
    if (Err.empty())
      return true;
    std::string Msg =
        "rate verification failed after pass '" + After + "': " + Err;
    St = Status(ErrorCode::VerifyFailed, Msg);
    return false;
  };

  // --- Persistent-artifact fast path -------------------------------------
  // A prior process (or this one, pre-cache-clear) that compiled this
  // exact (stream, configuration) left an alias record pointing at its
  // artifact; resolving it replaces every pass below with one load.
  ArtifactStore *Store = ArtifactStore::enabledGlobal();
  HashDigest AliasKey;
  bool Keyed = Store && pipelineAliasKey(Root, Opts, AliasKey);
  if (Keyed) {
    ArtifactStore::Key AK;
    if (Store->loadAlias(AliasKey, AK)) {
      auto Loaded = runPass(R, "artifact-load", [&] {
        return ProgramCache::global().lookup(AK.Structure, AK.Options);
      });
      if (Loaded) {
        R.Program = std::move(Loaded);
        R.ProgramCacheHit = true;
        R.Optimized = R.Program->root().clone();
        R.Passes.back().Note = R.Program->loadedFromArtifact()
                                   ? "disk artifact hit"
                                   : "program cache hit";
        if (Opts.Exec.Eng == Engine::Native)
          ensureNative(R);
        return R;
      }
      R.Passes.pop_back(); // stale alias: fall through to a full compile
    }
  }

  // --- Transformation passes --------------------------------------------
  switch (Opts.Mode) {
  case OptMode::Base:
    R.Optimized = runPass(R, "clone", [&] { return Root.clone(); });
    break;
  case OptMode::Linear:
  case OptMode::Freq:
  case OptMode::Redundancy: {
    LinearAnalysis::Options LO;
    LO.AM = AM;
    auto LA = runPass(R, "linear-analysis", [&] {
      return std::make_unique<LinearAnalysis>(Root, LO);
    });
    R.Passes.back().Note = analysisNote(*LA);
    if (Opts.Mode == OptMode::Linear)
      R.Optimized = runPass(R, "linear-replacement", [&] {
        return replaceLinear(Root, *LA, Opts.Combine, Opts.CodeGen);
      });
    else if (Opts.Mode == OptMode::Freq)
      R.Optimized = runPass(R, "frequency-replacement", [&] {
        return replaceFrequency(Root, *LA, Opts.Combine, Opts.Freq);
      });
    else
      R.Optimized = runPass(R, "redundancy-replacement",
                            [&] { return replaceRedundancy(Root, *LA); });
    break;
  }
  case OptMode::AutoSel: {
    // The DP requires an analysis built with its own (tighter)
    // combination limit, so it owns one; extraction and combinations
    // still hash-cons through the shared AnalysisManager.
    SelectionOptions SO;
    SO.Freq = Opts.Freq;
    SO.CodeGen = Opts.CodeGen;
    SO.Model = Opts.Model;
    SO.MaxMatrixElements = Opts.MaxMatrixElements;
    SO.AM = AM;
    if (!SO.Model && usesCompiledArtifact(Opts.Exec.Eng)) {
      // Select for the engine that will run the result (the parallel
      // backend executes the compiled engine's tapes and kernels, so it
      // shares the compiled coefficients).
      static const MeasuredCostModel CompiledModel{Engine::Compiled};
      SO.Model = &CompiledModel;
    }
    R.Optimized = runPass(R, "selection",
                          [&] { return selectOptimizations(Root, SO); });
    break;
  }
  }
  dumpAfterPass(Opts, R.Passes.size(), R.Passes.back().Name, *R.Optimized);
  if (!verifyAfter(*R.Optimized))
    return R;

  // --- Cleanup passes ----------------------------------------------------
  // Base mode runs the program as written; every other mode has already
  // rewritten the graph, so folding and pruning its generated parts keeps
  // outputs (and FLOP counts) bit-identical while shrinking the schedule.
  if (Opts.Mode != OptMode::Base && Opts.ConstFold) {
    CleanupStats CS;
    StreamPtr Folded = runPass(R, "linear-const-fold", [&] {
      return constFoldLinear(*R.Optimized, *AM, Opts.CodeGen, CS);
    });
    R.Passes.back().Note = CS.summary();
    if (Folded) {
      R.Optimized = std::move(Folded);
      dumpAfterPass(Opts, R.Passes.size(), "linear-const-fold",
                    *R.Optimized);
      if (!verifyAfter(*R.Optimized))
        return R;
    }
  }
  if (Opts.Mode != OptMode::Base && Opts.DeadChannelElim) {
    CleanupStats CS;
    StreamPtr Pruned = runPass(R, "dead-channel-elim", [&] {
      return eliminateDeadChannels(*R.Optimized, CS);
    });
    R.Passes.back().Note = CS.summary();
    if (Pruned) {
      R.Optimized = std::move(Pruned);
      dumpAfterPass(Opts, R.Passes.size(), "dead-channel-elim",
                    *R.Optimized);
      if (!verifyAfter(*R.Optimized))
        return R;
    }
  }

  // --- Lowering ----------------------------------------------------------
  if (!usesCompiledArtifact(Opts.Exec.Eng))
    return R;

  if (Opts.UseProgramCache) {
    bool Hit = false;
    R.Program = runPass(R, "lower", [&] {
      return ProgramCache::global().get(*R.Optimized, Opts.Exec.Compiled,
                                        &Hit);
    });
    R.ProgramCacheHit = Hit;
  } else {
    R.Program = runPass(R, "lower", [&] {
      return std::make_shared<const CompiledProgram>(*R.Optimized,
                                                     Opts.Exec.Compiled);
    });
  }
  if (R.ProgramCacheHit) {
    R.Passes.back().Note = R.Program->loadedFromArtifact()
                               ? "disk artifact hit"
                               : "program cache hit";
  } else {
    // Split the lowering pass into its recorded phases.
    const CompiledProgram::BuildStats &BS = R.Program->buildStats();
    R.Passes.pop_back();
    R.Passes.push_back({"flatten", BS.FlattenSeconds, std::string()});
    R.Passes.push_back({"schedule", BS.ScheduleSeconds, std::string()});
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "B=%d",
                  R.Program->options().BatchIterations);
    R.Passes.push_back({"tape-compile", BS.TapeSeconds, Buf});
    if (Opts.VerifyAfterEachPass) {
      // Cross-check the freshly computed static schedule against an
      // independent replay (cache and artifact hits were verified when
      // first compiled, and disk loads are checksum-validated).
      std::string Err = runPass(R, "verify-schedule", [&] {
        return verifySchedule(R.Program->graph(), R.Program->schedule());
      });
      R.Passes.back().Note = "after lower";
      if (!Err.empty()) {
        std::string Msg =
            "schedule verification failed after lowering: " + Err;
        St = Status(ErrorCode::VerifyFailed, Msg);
        return R;
      }
      // The abstract-interpretation linter (src/verify/): three
      // independent oracles over the op tapes and schedule the
      // downstream engines are about to trust.
      struct LintPass {
        const char *Name;
        std::string (*Run)(const CompiledProgram &, verify::LintReport &);
      };
      const LintPass LintPasses[] = {{"verify-linear", verify::verifyLinear},
                                     {"verify-bounds", verify::verifyBounds},
                                     {"verify-state", verify::verifyState}};
      verify::LintReport Report;
      for (const LintPass &LP : LintPasses) {
        std::string LintErr =
            runPass(R, LP.Name, [&] { return LP.Run(*R.Program, Report); });
        R.Passes.back().Note = "after lower";
        if (LintErr.empty() &&
            faults::shouldFail(faults::Point::LintVerifierTrip))
          LintErr = std::string(LP.Name) + ": injected lint-verifier trip";
        if (!LintErr.empty()) {
          std::string Msg = "lint verification failed after lowering: " +
                            LintErr;
          St = Status(ErrorCode::VerifyFailed, Msg);
          return R;
        }
      }
    }
  }
  // Leave a pipeline-key → artifact-key alias so the next warm start
  // resolves this configuration without running any pass. Only aliases
  // to artifacts that actually persisted (a program with an
  // unserializable native stays memory-only) are worth writing.
  if (Keyed && R.Program) {
    ArtifactStore::Key AK{structuralHash(*R.Optimized),
                          hashOptions(Opts.Exec.Compiled)};
    if (Store->contains(AK))
      Store->storeAlias(AliasKey, AK);
  }
  if (Opts.Exec.Eng == Engine::Native && R.Program)
    ensureNative(R);
  return R;
}

CompileResult slin::compileStream(const Stream &Root,
                                  const PipelineOptions &Opts) {
  return CompilerPipeline(Opts).compile(Root);
}
