//===- exec/Parallel.h - Parallel sharded execution backend -----*- C++ -*-===//
///
/// \file
/// Sharded steady-state execution over immutable CompiledProgram
/// artifacts (compiler/Program.h). ParallelExecutor splits one run's
/// steady iterations into per-worker shards, each served by an
/// independent CompiledExecutor instance over the same shared program.
/// Steady-state stream execution composes: the state at iteration k is a
/// function of closed-form filter progressions (seeded exactly) plus a
/// bounded window of recent data (channel leftovers, delay lines, kernel
/// partials), so a worker jumps to its shard boundary by seeding and then
/// replaying the schedule's washout depth (sched/Schedule.h
/// computeShardBoundary) with outputs discarded. Shard outputs are
/// spliced in order; the result — values AND FLOP counts — is
/// bit-identical to a single-threaded run of the same iterations.
/// Programs whose state cannot be reconstructed (feedback loops, opaque
/// filter state) degrade to an equivalent sequential run, never to an
/// error. Sharding is independent of the backend: every executor a run
/// builds carries the native module the caller resolved (null: op
/// tapes). Concurrent independent requests need no pool: each caller
/// builds its own executor over the shared program (service/Admission.h
/// bounds how many run at once).
///
/// Worker-thread FLOP counts are folded back into the submitting thread's
/// counters (support/OpCounters.h accumulate), so measurements over
/// sharded runs report the same totals as single-threaded runs.
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_EXEC_PARALLEL_H
#define SLIN_EXEC_PARALLEL_H

#include "codegen/NativeModule.h"
#include "compiler/Program.h"
#include "exec/ExecOptions.h"
#include "support/Error.h"
#include "support/FaultInjection.h"
#include "support/OpCounters.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace slin {

class CompiledExecutor;

/// Sharded steady-state execution of one logical run. Mirrors the
/// CompiledExecutor driving surface (provideInput / tryRun /
/// outputSnapshot / printed / outputsProduced) so measurement and tests
/// can swap the engines; successive run calls continue the same logical
/// stream, with every call's iteration span sharded afresh.
class ParallelExecutor {
public:
  /// Every executor this run builds (shards, the continuation and the
  /// sequential fallback) is a CompiledExecutor(Program, Native), so
  /// \p Native picks the backend exactly as it does there.
  ParallelExecutor(CompiledProgramRef Program, ParallelOptions Opts,
                   codegen::NativeModuleRef Native = nullptr);
  ~ParallelExecutor();

  ParallelExecutor(const ParallelExecutor &) = delete;
  ParallelExecutor &operator=(const ParallelExecutor &) = delete;

  /// Appends items to the logical run's external input stream.
  void provideInput(const std::vector<double> &Items);

  /// Runs until the observable output count reaches \p NOutputs (like
  /// CompiledExecutor::tryRun, but sharded across workers).
  /// tryRunIterations runs exactly \p Iters further steady iterations,
  /// sharded; the spliced outputs equal a single-threaded
  /// CompiledExecutor's tryRunIterations over the same span, bit for
  /// bit. Neither aborts: a deadlock (insufficient input) comes back as
  /// ErrorCode::Deadlock, and an optional \p DL is polled between firing
  /// programs by every executor the call drives. A shard whose seeding
  /// fails validation (ErrorCode::ShardAnomaly) is absorbed, not
  /// surfaced: the fan-out's partial results are discarded and the whole
  /// span re-runs sequentially — outputs and FLOP counts still
  /// bit-identical — with lastRunStats() recording Sequential plus the
  /// anomaly as FallbackReason. Timeout/Cancelled propagate (re-running
  /// would only take longer); after one, this object's logical stream
  /// is indeterminate — recover with a fresh executor.
  Status tryRun(size_t NOutputs, const faults::RunDeadline *DL = nullptr);
  Status tryRunIterations(int64_t Iters,
                          const faults::RunDeadline *DL = nullptr);

  std::vector<double> outputSnapshot() const { return ExtOut; }
  const std::vector<double> &printed() const { return Printed; }
  size_t outputsProduced() const;
  int64_t iterationsDone() const { return IterationsDone; }
  const CompiledProgram &program() const { return *Prog; }

  /// How the most recent tryRun/tryRunIterations call executed.
  struct RunStats {
    int ShardsUsed = 0;
    int64_t Iterations = 0;        ///< steady iterations this call
    int64_t WarmupIterations = 0;  ///< replayed (discarded) across shards
    bool Sequential = false;       ///< fell back to one in-place executor
    std::string FallbackReason;    ///< why, when Sequential
  };
  const RunStats &lastRunStats() const { return Stats; }

private:
  struct ShardResult {
    std::vector<double> Out;
    std::vector<double> Printed;
    OpCounts Ops;
    /// The shard's executor, kept alive so the last shard can be adopted
    /// as the continuation tail (it ends exactly at the new
    /// IterationsDone).
    std::unique_ptr<CompiledExecutor> Exec;
    size_t InFedEnd = 0; ///< global In index fed to Exec so far
    /// Non-Ok when the shard could not seed or run; its Out/Printed are
    /// then meaningless and the fan-out must discard every shard.
    Status St;
  };

  int64_t consumedInputItems() const;
  std::unique_ptr<CompiledExecutor> makeExecutor() const;
  void runShard(int64_t Start, int64_t Span, bool Counting,
                const faults::RunDeadline *DL, ShardResult &Result) const;
  template <class RunFn>
  Status runSequential(const faults::RunDeadline *DL, RunFn Run);
  Status recoverSpanSequentially(int64_t Iters, const Status &ShardSt,
                                 const faults::RunDeadline *DL);

  CompiledProgramRef Prog;
  ParallelOptions Opts;
  codegen::NativeModuleRef Native;
  std::vector<double> In; ///< full logical input stream, never trimmed
  std::vector<double> ExtOut;
  std::vector<double> Printed;
  int64_t IterationsDone = 0;
  bool InitDone = false;
  RunStats Stats;
  /// The persistent executor, positioned exactly at IterationsDone: for
  /// an unshardable program the sequential run holding the whole logical
  /// stream; for a shardable one the previous call's last shard, so
  /// short follow-up spans and seed-anomaly recovery run it forward with
  /// no re-seeding, no washout replay and no thread spawn.
  std::unique_ptr<CompiledExecutor> Cont;
  size_t ContInFed = 0; ///< items of In already handed to Cont
  /// Lazily probed outputs-per-iteration for print-driven graphs.
  int64_t ProbedPerIterOut = -1;
};

/// Resolves a worker-count knob: 0 means "ask the hardware" (min 1).
int resolveWorkerCount(int Requested);

} // namespace slin

#endif // SLIN_EXEC_PARALLEL_H
