//===- exec/CompiledExecutor.h - Batched compiled executor ------*- C++ -*-===//
///
/// \file
/// The compiled, batched steady-state execution engine — the runtime
/// counterpart of the paper's performance model, where linear replacement
/// collapses a pipeline into one matrix multiply whose cost is then
/// driven down by a tuned kernel (Sections 5.2-5.4). Where the dynamic
/// Executor re-discovers a schedule every sweep and tree-walks each work
/// function, this engine precomputes everything it can:
///
///  * the flattened graph's steady-state schedule (sched/Schedule.h)
///    becomes a fixed firing program — a short list of (node, count)
///    steps covering B steady-state iterations per batch;
///  * channels become flat ring buffers sized from the schedule's exact
///    high-water marks, compacted once per program run, so every peek
///    window and push cursor is a raw pointer;
///  * each work function is flattened once into an op tape
///    (wir/OpTape.h) executed by a tight dispatch loop;
///  * a linear node fired K times in a row executes one cache-blocked,
///    register-tiled K x e by e x u matrix multiply (matrix/Kernels.h
///    applyBatched) instead of K matrix-vector products.
///
/// Outputs are bit-identical to the dynamic Executor's: op tapes replay
/// the interpreter's evaluation order exactly, and batched kernels
/// replay the sequential kernels' per-firing accumulation order.
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_EXEC_COMPILEDEXECUTOR_H
#define SLIN_EXEC_COMPILEDEXECUTOR_H

#include "codegen/NativeModule.h"
#include "compiler/Program.h"
#include "exec/ExecOptions.h"
#include "exec/FlatGraph.h"
#include "sched/Schedule.h"
#include "support/Error.h"
#include "support/FaultInjection.h"
#include "wir/OpTape.h"

namespace slin {

/// An executor *instance* over an immutable CompiledProgram artifact
/// (compiler/Program.h): the artifact holds the flat graph, the static
/// schedule and the compiled op tapes; this class holds only runtime
/// state (channel buffers, register frames, field stores, native filter
/// clones), so one program instantiates any number of independent
/// executors — the "compile once, serve many runs" split.
class CompiledExecutor {
public:
  /// Knobs live in exec/ExecOptions.h (shared with the unified
  /// ExecOptions struct); the alias keeps `CompiledExecutor::Options`.
  using Options = CompiledOptions;

  /// Convenience constructors compiling a fresh private program (not
  /// routed through the ProgramCache; see exec/Measure.h for the cached
  /// path).
  explicit CompiledExecutor(const Stream &Root)
      : CompiledExecutor(Root, Options()) {}
  CompiledExecutor(const Stream &Root, Options Opts);

  /// Instantiates runtime state over a shared artifact.
  explicit CompiledExecutor(CompiledProgramRef Program);

  /// Same, with a dlopen'd native module attached (codegen/NativeModule.h;
  /// null: none): filters with an emitted entry point then run machine
  /// code instead of the op-tape dispatch loop (bit-identical by
  /// construction). Counting runs still take the tapes — emitted code does
  /// no accounting, and FLOP numbers must keep their interpreter meaning.
  CompiledExecutor(CompiledProgramRef Program, codegen::NativeModuleRef Native)
      : CompiledExecutor(std::move(Program)) {
    NativeMod = std::move(Native);
  }

  ~CompiledExecutor();

  CompiledExecutor(const CompiledExecutor &) = delete;
  CompiledExecutor &operator=(const CompiledExecutor &) = delete;

  /// Appends items to the graph's external input channel.
  void provideInput(const std::vector<double> &Items);

  /// Runs batch programs (falling back to single steady iterations when
  /// the remaining external input cannot cover a batch) until the
  /// observable output count reaches \p NOutputs. A deadlock
  /// (insufficient input / unproductive steady state) comes back as
  /// ErrorCode::Deadlock, and an optional \p DL is polled between
  /// firing programs so a runaway (or injected-hang) run returns
  /// Timeout/Cancelled. On any non-Ok Status the executor's state is
  /// indeterminate mid-stream — recover by rerunning on a fresh
  /// executor, never by continuing this one.
  Status tryRun(size_t NOutputs, const faults::RunDeadline *DL = nullptr) {
    return runToOutputs(NOutputs, DL, /*SingleIterations=*/false, nullptr);
  }

  /// Runs the init program (if not yet run) plus exactly \p Iters steady
  /// iterations, batch-granular where input allows; failures as tryRun.
  /// The iteration-driven counterpart of tryRun used by the parallel
  /// backend, whose shards and reference runs must execute identical
  /// firing sequences.
  Status tryRunIterations(int64_t Iters,
                          const faults::RunDeadline *DL = nullptr);

  /// Latency-mode tryRun: fires single steady iterations only — never
  /// the fused B-iteration batch program — so the first observable
  /// output lands after one iteration's work instead of a whole
  /// batch's. Outputs are bit-identical to tryRun's (the batch program
  /// replays the same firing sequence); only the time-to-first-output
  /// changes. \p FirstOutputSeconds (optional) receives the wall-clock
  /// seconds from this call's entry to the first new observable
  /// output. The service daemon's latency serving mode.
  Status tryRunLatency(size_t NOutputs,
                       const faults::RunDeadline *DL = nullptr,
                       double *FirstOutputSeconds = nullptr) {
    return runToOutputs(NOutputs, DL, /*SingleIterations=*/true,
                        FirstOutputSeconds);
  }

  /// Places this (freshly instantiated) executor at the state boundary of
  /// steady iteration \p StartIteration without executing iterations
  /// 0..StartIteration-1: channels are filled to their post-init live
  /// counts with placeholder zeros, init firings are marked done, and
  /// closed-form filter state is seeded exactly per the program's
  /// ShardInfo. The caller must then replay shardInfo().WashoutIterations
  /// steady iterations (discarding their outputs) before the state — and
  /// everything after it — is bit-identical to a sequential run. A
  /// non-shardable program, a stale executor, or an out-of-range seed
  /// recipe (and the shard-seed-corrupt fault point) return
  /// ErrorCode::ShardAnomaly — the parallel backend's cue to fall back
  /// to its sequential path.
  Status trySeedSteadyState(int64_t StartIteration);

  /// Items on the external output channel (never consumed).
  std::vector<double> outputSnapshot() const { return ExtOut; }

  /// Values produced by print statements, in order.
  const std::vector<double> &printed() const { return Printed; }

  /// Count of observable outputs produced so far.
  size_t outputsProduced() const;

  /// Items on the external output channel (cheap; no snapshot copy).
  size_t externalOutputCount() const { return ExtOut.size(); }

  /// Total node firings so far (diagnostics).
  uint64_t firings() const { return Firings; }

  /// The static schedule driving this engine (for tests/diagnostics).
  const StaticSchedule &schedule() const { return Sched; }

  /// The shared artifact this instance runs.
  const CompiledProgram &program() const { return *Prog; }

private:
  /// A flat channel buffer; live items occupy [Head, Tail). Compacted
  /// (live items moved to the front) after every program run, so within
  /// one program positions never exceed the scheduled buffer size.
  struct ChannelBuf {
    std::vector<double> Buf;
    size_t Head = 0;
    size_t Tail = 0;
    size_t live() const { return Tail - Head; }
  };

  /// Per-filter *runtime* state; the op tapes themselves live in the
  /// shared CompiledProgram artifact.
  struct FilterState {
    const wir::OpProgram *Work = nullptr;
    const wir::OpProgram *InitWork = nullptr; ///< null when none
    wir::WorkFrame Frame;
    wir::FieldStore Fields;
    std::unique_ptr<NativeFilter> Native;
    bool FiredOnce = false;
  };

  class PtrTape;

  size_t extInAvailable() const { return ExtIn.size() - ExtInPos; }
  const double *readBase(int Chan) const;
  void advanceRead(int Chan, size_t N);
  double *writePtr(int Chan, size_t N);
  void runProgram(const FiringProgram &Prog);
  /// Runs the init program once; an input shortfall is a Deadlock.
  Status ensureInit();
  /// The steady-state input-shortfall Deadlock; \p Progress says how far
  /// the calling loop got.
  Status steadyShortfall(const std::string &Progress) const;
  /// The output-driven loop behind tryRun (batches where input allows)
  /// and tryRunLatency (\p SingleIterations).
  Status runToOutputs(size_t NOutputs, const faults::RunDeadline *DL,
                      bool SingleIterations, double *FirstOutputSeconds);
  void fireFilterStep(size_t NodeIdx, int64_t K);
  void fireSplitJoinStep(size_t NodeIdx, int64_t K);
  void compact();

  CompiledProgramRef Prog;
  codegen::NativeModuleRef NativeMod; ///< null: op-tape dispatch only
  const flat::FlatGraph &Graph; ///< = Prog->graph()
  const StaticSchedule &Sched;  ///< = Prog->schedule()
  std::vector<ChannelBuf> Channels; ///< indexed by channel; external unused
  std::vector<FilterState> States;  ///< indexed by node; filters only
  std::vector<double> ExtIn;
  size_t ExtInPos = 0;
  std::vector<double> ExtOut;
  std::vector<double> Printed;
  /// Reusable splitter/joiner cursor scratch (no steady-state allocation).
  std::vector<double *> WriteCursors;
  std::vector<const double *> ReadCursors;
  bool InitDone = false;
  uint64_t Firings = 0;
};

} // namespace slin

#endif // SLIN_EXEC_COMPILEDEXECUTOR_H
