//===- exec/Engine.h - Execution backend selection --------------*- C++ -*-===//
///
/// \file
/// The backends that fire a program's filters: the dynamic data-driven
/// Executor (tree-walking interpreter, per-sweep readiness scan), the
/// compiled batched CompiledExecutor (static firing program, op tapes,
/// batched matrix kernels) and the same executor with emitted native
/// code attached. How many threads run a program is a separate choice:
/// a ParallelExecutor (exec/Parallel.h) shards one run's steady
/// iterations across workers, each a CompiledExecutor over the shared
/// CompiledProgram with whichever native module the caller resolved.
///
/// The degradation ladder. Every rung below gives the same outputs and
/// FLOP counts as the rung above it, only slower or less durable, and
/// each is reported (a DegradeReason, RunStats::FallbackReason or a
/// store counter), never fatal:
///
///  1. a failed optimization pass → the pipeline recompiles in Base mode
///     (compiler/Pipeline.h);
///  2. native codegen unavailable → a null module, so the op tapes fire
///     (codegen/NativeModule.h);
///  3. an unshardable program or a shard anomaly → one sequential run
///     (exec/Parallel.h);
///  4. an artifact store publish failure → the program stays in memory
///     only (compiler/ArtifactStore.h).
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_EXEC_ENGINE_H
#define SLIN_EXEC_ENGINE_H

namespace slin {

enum class Engine {
  Dynamic,  ///< exec/Executor.h
  Compiled, ///< exec/CompiledExecutor.h
  Native    ///< codegen/NativeModule.h (emitted C++, dlopen'd per program)
};

inline const char *engineName(Engine E) {
  switch (E) {
  case Engine::Dynamic:
    return "dynamic";
  case Engine::Compiled:
    return "compiled";
  case Engine::Native:
    return "native";
  }
  return "unknown";
}

/// Engines that execute a lowered CompiledProgram artifact (everything
/// but the tree interpreter): the pipeline lowers for them, the cost
/// model prices them with the compiled engine's coefficients.
inline bool usesCompiledArtifact(Engine E) { return E != Engine::Dynamic; }

} // namespace slin

#endif // SLIN_EXEC_ENGINE_H
