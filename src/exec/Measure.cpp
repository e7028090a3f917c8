//===- exec/Measure.cpp - Steady-state measurement ---------------------------==//

#include "exec/Measure.h"

#include "compiler/Program.h"
#include "exec/CompiledExecutor.h"
#include "exec/Parallel.h"

#include <chrono>

using namespace slin;

namespace {

/// The measurement protocol over any engine: all expose the same
/// tryRun/outputsProduced surface. A run that cannot reach its output
/// target (a deadlocked graph) is fatal here.
template <class ExecT, class MakeExec>
Measurement measureWith(const MeasureOptions &Opts, MakeExec Make) {
  Measurement M;

  // Counting run: warm up, snapshot, run the measured window, diff. The
  // schedulers may overshoot a requested output count, so both the op
  // delta and the output delta are taken from actual progress.
  {
    ExecT E = Make();
    ops::CountingScope Scope;
    ops::reset();
    E.tryRun(Opts.WarmupOutputs).orDie();
    OpCounts OpsBefore = ops::counts();
    size_t OutBefore = E.outputsProduced();
    E.tryRun(OutBefore + Opts.MeasureOutputs).orDie();
    M.Ops = ops::counts() - OpsBefore;
    M.Outputs = E.outputsProduced() - OutBefore;
  }

  // Timing run: identical schedule, counting disabled.
  if (Opts.MeasureTime) {
    ExecT E = Make();
    ops::CountingScope Scope(false);
    E.tryRun(Opts.WarmupOutputs).orDie();
    size_t OutBefore = E.outputsProduced();
    auto Start = std::chrono::steady_clock::now();
    E.tryRun(OutBefore + Opts.MeasureOutputs).orDie();
    auto End = std::chrono::steady_clock::now();
    double Secs = std::chrono::duration<double>(End - Start).count();
    size_t Outs = E.outputsProduced() - OutBefore;
    // Rescale to the counting run's window size.
    M.Seconds = Outs ? Secs * static_cast<double>(M.Outputs) /
                           static_cast<double>(Outs)
                     : 0.0;
  }
  return M;
}

} // namespace

Measurement slin::measureSteadyState(const Stream &Root,
                                     const MeasureOptions &Opts) {
  if (usesCompiledArtifact(Opts.Exec.Eng)) {
    CompiledProgramRef P =
        Opts.Program ? Opts.Program
                     : ProgramCache::global().get(Root, Opts.Exec.Compiled);
    if (Opts.Exec.Eng == Engine::Parallel)
      // Worker-thread op counts fold back into this thread's counters
      // (ops::accumulate), so the protocol below reads them as usual.
      return measureWith<ParallelExecutor>(Opts, [&] {
        return ParallelExecutor(P, Opts.Exec.Compiled.Parallel);
      });
    if (Opts.Exec.Eng == Engine::Native) {
      // The module attaches to both runs; counting-gated dispatch keeps
      // the counting run on the op tapes (real FLOPs) while the timing
      // run executes emitted code. Null (degraded) is the Compiled path.
      codegen::NativeModuleRef M = codegen::NativeModuleCache::global().get(*P);
      return measureWith<CompiledExecutor>(
          Opts, [&] { return CompiledExecutor(P, M); });
    }
    return measureWith<CompiledExecutor>(
        Opts, [&] { return CompiledExecutor(P, nullptr); });
  }
  return measureWith<Executor>(
      Opts, [&] { return Executor(Root, Opts.Exec.Dynamic); });
}

std::vector<double> slin::collectOutputs(const Stream &Root, size_t NOutputs,
                                         Engine Eng) {
  auto Collect = [&](auto &&E) {
    E.tryRun(NOutputs).orDie();
    std::vector<double> Out =
        E.printed().empty() ? E.outputSnapshot() : E.printed();
    if (Out.size() > NOutputs)
      Out.resize(NOutputs);
    return Out;
  };
  if (!usesCompiledArtifact(Eng))
    return Collect(Executor(Root));
  CompiledProgramRef P = ProgramCache::global().get(Root, CompiledOptions());
  if (Eng == Engine::Parallel)
    return Collect(ParallelExecutor(P));
  return Collect(CompiledExecutor(
      P, Eng == Engine::Native ? codegen::NativeModuleCache::global().get(*P)
                               : nullptr));
}
