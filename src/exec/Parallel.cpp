//===- exec/Parallel.cpp - Parallel sharded execution backend ----------------==//

#include "exec/Parallel.h"

#include "exec/CompiledExecutor.h"
#include "support/MathUtil.h"

#include <algorithm>
#include <thread>

using namespace slin;

int slin::resolveWorkerCount(int Requested) {
  if (Requested > 0)
    return Requested;
  unsigned HW = std::thread::hardware_concurrency();
  return HW ? static_cast<int>(HW) : 1;
}

//===----------------------------------------------------------------------===//
// ParallelExecutor
//===----------------------------------------------------------------------===//

namespace {

/// Items the external input must hold beyond what a program run pops
/// (peek lookahead of the first consumer; init-work windows).
int64_t externalLookahead(const StaticSchedule &S) {
  int64_t E = std::max(S.InitExternalNeed - S.InitExternalPops,
                       S.SteadyExternalNeed - S.SteadyExternalPops);
  return std::max(E, S.BatchExternalNeed - S.BatchExternalPops);
}

} // namespace

ParallelExecutor::ParallelExecutor(CompiledProgramRef Program,
                                   ParallelOptions Opts,
                                   codegen::NativeModuleRef Native)
    : Prog(std::move(Program)), Opts(Opts), Native(std::move(Native)) {
  assert(Prog && "null program");
}

ParallelExecutor::~ParallelExecutor() = default;

void ParallelExecutor::provideInput(const std::vector<double> &Items) {
  In.insert(In.end(), Items.begin(), Items.end());
}

size_t ParallelExecutor::outputsProduced() const {
  return Prog->graph().RootProducesOutput ? ExtOut.size() : Printed.size();
}

std::unique_ptr<CompiledExecutor> ParallelExecutor::makeExecutor() const {
  return std::make_unique<CompiledExecutor>(Prog, Native);
}

int64_t ParallelExecutor::consumedInputItems() const {
  const StaticSchedule &S = Prog->schedule();
  return (InitDone ? S.InitExternalPops : 0) +
         IterationsDone * S.SteadyExternalPops;
}

/// Executes one shard: seeds (or genuinely initializes) a fresh executor
/// at the shard boundary, replays the washout with counting off, then
/// runs the shard span and keeps only its outputs and op deltas. Any
/// failure lands in Result.St (never aborts off the main thread).
void ParallelExecutor::runShard(int64_t Start, int64_t Span, bool Counting,
                                const faults::RunDeadline *DL,
                                ShardResult &Result) const {
  const StaticSchedule &S = Prog->schedule();
  int64_t Washout = Prog->shardInfo().WashoutIterations;
  int64_t From = std::max<int64_t>(0, Start - Washout);
  int64_t Warm = Start - From;

  Result.Exec = makeExecutor();
  CompiledExecutor &E = *Result.Exec;
  // The shard's input slice: its own pops plus the peek lookahead. A
  // worker replaying from the stream start (From == 0) runs the real
  // init program and consumes the init pops too.
  int64_t Offset = From == 0 ? 0 : S.InitExternalPops + From * S.SteadyExternalPops;
  int64_t Len = (From == 0 ? S.InitExternalPops : 0) +
                (Warm + Span) * S.SteadyExternalPops + externalLookahead(S);
  if (Len > 0 && Offset < static_cast<int64_t>(In.size())) {
    size_t End = std::min(In.size(), static_cast<size_t>(Offset + Len));
    E.provideInput(std::vector<double>(In.begin() + Offset, In.begin() + End));
    Result.InFedEnd = End;
  }

  if (From > 0) {
    Result.St = E.trySeedSteadyState(From);
    if (!Result.St.isOk())
      return;
  }
  if (Warm > 0 || From > 0) {
    // Replayed iterations refresh boundary state; their outputs are
    // discarded below and their ops must not count (a sequential run
    // executes them once, not once per shard). The Warm == 0 shard at the
    // true stream start takes no warmup at all: its init program must run
    // inside the counted span, exactly like a sequential run's.
    ops::CountingScope Off(false);
    Result.St = E.tryRunIterations(Warm, DL);
    if (!Result.St.isOk())
      return;
  }
  size_t OutBoundary = E.externalOutputCount();
  size_t PrintBoundary = E.printed().size();

  OpCounts Before = ops::counts();
  {
    ops::CountingScope Scope(Counting);
    Result.St = E.tryRunIterations(Span, DL);
  }
  Result.Ops = ops::counts() - Before;
  if (!Result.St.isOk())
    return;

  std::vector<double> Out = E.outputSnapshot();
  Result.Out.assign(Out.begin() + static_cast<ptrdiff_t>(OutBoundary),
                    Out.end());
  const std::vector<double> &P = E.printed();
  Result.Printed.assign(P.begin() + static_cast<ptrdiff_t>(PrintBoundary),
                        P.end());
}

/// Runs \p Run on the persistent executor after feeding it the input it
/// has not seen, and splices the outputs it produces onto the logical
/// stream. When none exists, a fresh one is first fed the whole input
/// and caught up (uncounted) through the iterations already done; that
/// replays work that already ran, so it cannot starve. A failure leaves
/// the executor indeterminate mid-stream, so it is discarded; the next
/// call rebuilds (and catches up) a fresh one.
template <class RunFn>
Status ParallelExecutor::runSequential(const faults::RunDeadline *DL,
                                       RunFn Run) {
  if (!Cont) {
    Cont = makeExecutor();
    Cont->provideInput(In);
    ContInFed = In.size();
    if (IterationsDone > 0) {
      ops::CountingScope Off(false);
      if (Status St = Cont->tryRunIterations(IterationsDone, DL);
          !St.isOk()) {
        Cont.reset();
        return St;
      }
    }
  }
  if (ContInFed < In.size()) {
    Cont->provideInput(std::vector<double>(
        In.begin() + static_cast<ptrdiff_t>(ContInFed), In.end()));
    ContInFed = In.size();
  }
  size_t OutBoundary = Cont->externalOutputCount();
  size_t PrintBoundary = Cont->printed().size();
  if (Status St = Run(*Cont); !St.isOk()) {
    Cont.reset();
    return St;
  }
  std::vector<double> Out = Cont->outputSnapshot();
  ExtOut.insert(ExtOut.end(), Out.begin() + static_cast<ptrdiff_t>(OutBoundary),
                Out.end());
  const std::vector<double> &P = Cont->printed();
  Printed.insert(Printed.end(),
                 P.begin() + static_cast<ptrdiff_t>(PrintBoundary), P.end());
  return Status::ok();
}

/// A shard failed with \p ShardSt. Only a seed anomaly is recoverable:
/// every shard's partial output has been discarded and the whole span
/// re-runs on the persistent executor. The sequential re-run fires the
/// exact firing sequence a single-threaded engine would, so outputs and
/// FLOP counts stay bit-identical to the clean path.
Status ParallelExecutor::recoverSpanSequentially(int64_t Iters,
                                                 const Status &ShardSt,
                                                 const faults::RunDeadline *DL) {
  if (ShardSt.code() != ErrorCode::ShardAnomaly)
    return ShardSt;
  if (Status St = runSequential(DL,
                                [&](CompiledExecutor &E) {
                                  return E.tryRunIterations(Iters, DL);
                                });
      !St.isOk())
    return St;
  Stats = RunStats();
  Stats.Iterations = Iters;
  Stats.ShardsUsed = 1;
  Stats.Sequential = true;
  Stats.FallbackReason = ShardSt.str();
  IterationsDone += Iters;
  InitDone = true;
  return Status::ok();
}

Status ParallelExecutor::tryRunIterations(int64_t Iters,
                                          const faults::RunDeadline *DL) {
  Stats = RunStats();
  if (Iters <= 0)
    return Status::ok();
  Stats.Iterations = Iters;
  const StaticSchedule &S = Prog->schedule();
  auto RunSpan = [&](CompiledExecutor &E) {
    return E.tryRunIterations(Iters, DL);
  };

  const CompiledProgram::ShardInfo &SI = Prog->shardInfo();
  if (!SI.Shardable) {
    // The persistent executor does its own input bookkeeping.
    if (Status St = runSequential(DL, RunSpan); !St.isOk())
      return St;
    Stats.ShardsUsed = 1;
    Stats.Sequential = true;
    Stats.FallbackReason = SI.Reason;
    IterationsDone += Iters;
    InitDone = true;
    return Status::ok();
  }

  // Validate input coverage up front (workers must not hit the engine's
  // deadlock diagnostics off the main thread).
  int64_t Required = (InitDone ? 0 : S.InitExternalPops) +
                     Iters * S.SteadyExternalPops + externalLookahead(S);
  int64_t Avail = static_cast<int64_t>(In.size()) - consumedInputItems();
  if (Avail < Required)
    return Status(ErrorCode::Deadlock,
                  "parallel run needs " + std::to_string(Required) +
                      " external input items, have " + std::to_string(Avail));

  // Shards shorter than the washout replay more than they execute; the
  // floor keeps the fan-out worth its warmup.
  int64_t MinSpan = std::max<int64_t>(
      {static_cast<int64_t>(Opts.ShardMinIterations), SI.WashoutIterations, 1});
  int Workers = resolveWorkerCount(Opts.Workers);
  int Shards = static_cast<int>(
      std::min<int64_t>(Workers, std::max<int64_t>(1, Iters / MinSpan)));
  bool Counting = ops::isCounting();

  if (Shards == 1) {
    // Single shard: run on the calling thread (its counting scope
    // already applies — no delta folding). The persistent executor sits
    // exactly at IterationsDone and continues directly, with no
    // re-seeding or washout replay.
    if (Cont) {
      if (Status St = runSequential(DL, RunSpan); !St.isOk())
        return St;
    } else {
      ShardResult R;
      runShard(IterationsDone, Iters, Counting, DL, R);
      if (!R.St.isOk())
        return recoverSpanSequentially(Iters, R.St, DL);
      Stats.WarmupIterations += std::min(SI.WashoutIterations, IterationsDone);
      ExtOut.insert(ExtOut.end(), R.Out.begin(), R.Out.end());
      Printed.insert(Printed.end(), R.Printed.begin(), R.Printed.end());
      Cont = std::move(R.Exec);
      ContInFed = R.InFedEnd;
    }
    Stats.ShardsUsed = 1;
    IterationsDone += Iters;
    InitDone = true;
    return Status::ok();
  }

  // Fanning out. The persistent executor will be superseded by the new
  // last shard (which ends at the new IterationsDone) — but it is kept
  // alive until the shards succeed, as the cheapest sequential-recovery
  // point should one of them hit a seed anomaly.
  int64_t Base = Iters / Shards, Rem = Iters % Shards;
  std::vector<ShardResult> Results(static_cast<size_t>(Shards));
  std::vector<std::thread> Threads;
  Threads.reserve(static_cast<size_t>(Shards));
  int64_t Start = IterationsDone;
  for (int I = 0; I != Shards; ++I) {
    int64_t Span = Base + (I < Rem ? 1 : 0);
    if (I > 0 || Start > 0)
      Stats.WarmupIterations += std::min(SI.WashoutIterations, Start);
    Threads.emplace_back([this, Start, Span, Counting, DL, &Results, I] {
      runShard(Start, Span, Counting, DL, Results[static_cast<size_t>(I)]);
    });
    Start += Span;
  }
  for (std::thread &T : Threads)
    T.join();

  // One bad shard poisons the span: later shards' outputs depend on
  // positions the bad shard was meant to cover, so discard everything
  // (op deltas were never folded in) and re-run sequentially.
  for (ShardResult &R : Results)
    if (!R.St.isOk())
      return recoverSpanSequentially(Iters, R.St, DL);

  OpCounts Total;
  for (ShardResult &R : Results) {
    ExtOut.insert(ExtOut.end(), R.Out.begin(), R.Out.end());
    Printed.insert(Printed.end(), R.Printed.begin(), R.Printed.end());
    Total += R.Ops;
  }
  if (Counting)
    ops::accumulate(Total);
  Cont = std::move(Results.back().Exec);
  ContInFed = Results.back().InFedEnd;

  Stats.ShardsUsed = Shards;
  IterationsDone += Iters;
  InitDone = true;
  return Status::ok();
}

Status ParallelExecutor::tryRun(size_t NOutputs,
                                const faults::RunDeadline *DL) {
  size_t Have = outputsProduced();
  if (Have >= NOutputs)
    return Status::ok();
  const StaticSchedule &S = Prog->schedule();

  if (!Prog->shardInfo().Shardable) {
    // Drive the persistent executor's own output-driven loop directly —
    // identical behavior (including deadlock diagnostics) to a plain
    // CompiledExecutor::tryRun. It holds the whole logical stream, so
    // the target is the same.
    Stats = RunStats();
    if (Status St = runSequential(DL,
                                  [&](CompiledExecutor &E) {
                                    return E.tryRun(NOutputs, DL);
                                  });
        !St.isOk())
      return St;
    Stats.ShardsUsed = 1;
    Stats.Sequential = true;
    Stats.FallbackReason = Prog->shardInfo().Reason;
    InitDone = true;
    return Status::ok();
  }

  int64_t PerIter = S.SteadyExternalPushes;
  if (!Prog->graph().RootProducesOutput) {
    // Print-driven graph: the schedule cannot count prints statically, so
    // probe a throwaway executor for two iterations (uncounted) when
    // enough input exists; otherwise leave the rate unknown and let the
    // loop below pace itself.
    if (ProbedPerIterOut < 0 &&
        static_cast<int64_t>(In.size()) >=
            S.InitExternalPops + 2 * S.SteadyExternalPops +
                externalLookahead(S)) {
      std::unique_ptr<CompiledExecutor> E = makeExecutor();
      ops::CountingScope Off(false);
      E->provideInput(In);
      if (Status St = E->tryRunIterations(1, DL); !St.isOk())
        return St;
      size_t O1 = E->outputsProduced();
      if (Status St = E->tryRunIterations(1, DL); !St.isOk())
        return St;
      ProbedPerIterOut = static_cast<int64_t>(E->outputsProduced() - O1);
    }
    PerIter = std::max<int64_t>(ProbedPerIterOut, 0);
  }

  // The rate may be approximate (print counts can vary per iteration),
  // so loop to the target like the sequential engine does, and fail the
  // same way it does: a batch-sized span yielding no output is a
  // deadlock, and exhausted input surfaces tryRunIterations' diagnostic.
  int64_t Floor = 1;
  while (outputsProduced() < NOutputs) {
    size_t Before = outputsProduced();
    int64_t Deficit = static_cast<int64_t>(NOutputs - Before);
    int64_t Iters = std::max<int64_t>(
        PerIter > 0 ? ceilDiv(Deficit, PerIter) : S.BatchIterations, Floor);
    if (S.SteadyExternalPops > 0) {
      int64_t Budget = (static_cast<int64_t>(In.size()) -
                        consumedInputItems() -
                        (InitDone ? 0 : S.InitExternalPops) -
                        externalLookahead(S)) /
                       S.SteadyExternalPops;
      Iters = std::min(Iters, std::max<int64_t>(Budget, 1));
    }
    if (Status St = tryRunIterations(std::max<int64_t>(Iters, 1), DL);
        !St.isOk())
      return St;
    if (outputsProduced() == Before) {
      if (Iters >= S.BatchIterations)
        return Status(ErrorCode::Deadlock,
                      "stream graph deadlocked: steady state produces no "
                      "observable output");
      // A short span may legitimately print nothing; escalate to a full
      // batch before declaring deadlock (input-starved runs terminate
      // via tryRunIterations' own diagnostic as the budget drains).
      Floor = S.BatchIterations;
    }
  }
  return Status::ok();
}
