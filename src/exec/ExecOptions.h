//===- exec/ExecOptions.h - Unified execution options -----------*- C++ -*-===//
///
/// \file
/// One struct holding every engine knob: which engine runs the program
/// and the compiled engine's tuning options. Measurement helpers, the
/// compiler pipeline, the program cache and the bench harnesses all
/// carry an ExecOptions instead of parallel (engine, executor-options,
/// batch-iterations) fields. The option structs live here — away from
/// the engine headers — so option-only consumers stay light; the
/// compiled engine aliases them (`CompiledExecutor::Options`).
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_EXEC_EXECOPTIONS_H
#define SLIN_EXEC_EXECOPTIONS_H

#include "exec/Engine.h"

#include <cstddef>

namespace slin {

/// Knobs of sharded runs (exec/Parallel.h), which split a
/// CompiledProgram's steady iterations across worker threads.
struct ParallelOptions {
  /// Worker threads a sharded run fans out to (also the executor-pool
  /// size). 0 picks the hardware concurrency.
  int Workers = 4;
  /// Minimum steady iterations per shard; a run too short to give every
  /// worker this much (or a program whose shard-boundary state cannot be
  /// reconstructed) degrades gracefully to fewer workers / one shard.
  /// The effective floor is max(ShardMinIterations, washout) — shards
  /// shorter than the washout would spend more iterations refreshing
  /// boundary state than executing their span.
  long long ShardMinIterations = 32;

  bool operator==(const ParallelOptions &O) const {
    return Workers == O.Workers && ShardMinIterations == O.ShardMinIterations;
  }
};

/// Knobs of the compiled batched engine (exec/CompiledExecutor.h) and of
/// the sharded runs layered on top of it.
///
/// NOTE for maintainers: ProgramCache keys artifacts (in memory AND on
/// disk) on a hash of EVERY field of this struct. Adding a field is a
/// compile error in hashOptions (compiler/Program.cpp) and in
/// serializeProgram (compiler/ArtifactStore.cpp) until the new field is
/// mixed into the key and round-tripped — both destructure this struct
/// and ParallelOptions field by field, so a new knob can never silently
/// alias artifacts compiled under different options. Keep this struct
/// (and ParallelOptions) an aggregate, or those checks stop compiling.
struct CompiledOptions {
  /// Steady-state iterations fused into one batch program. Larger
  /// batches give the batched kernels longer runs (and cost
  /// proportionally more channel memory).
  int BatchIterations = 16;
  /// Sharding knobs (ignored by plain CompiledExecutor runs).
  ParallelOptions Parallel;
};

/// Engine selection plus the compiled engine's knobs.
struct ExecOptions {
  Engine Eng = Engine::Dynamic;
  CompiledOptions Compiled;
};

} // namespace slin

#endif // SLIN_EXEC_EXECOPTIONS_H
