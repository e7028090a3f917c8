//===- service/Admission.cpp - Serving set and request admission ----------===//
///
/// \file
/// Startup warming and the per-request admission/execution path behind
/// service/Admission.h.
///
//===----------------------------------------------------------------------===//

#include "service/Admission.h"

#include "apps/Benchmarks.h"
#include "codegen/NativeModule.h"
#include "compiler/ArtifactStore.h"
#include "exec/CompiledExecutor.h"

#include <chrono>
#include <utility>

using namespace slin;
using namespace slin::service;

Admission::Admission(ServiceConfig C)
    : Cfg(std::move(C)), Slots(resolveWorkerCount(Cfg.Workers)) {}

Admission::~Admission() = default;

Admission::Counters Admission::counters() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Counts;
}

std::vector<std::string> Admission::graphs() const {
  std::vector<std::string> Names;
  Names.reserve(Entries.size());
  for (const auto &E : Entries)
    Names.push_back(E->Name);
  return Names;
}

Admission::Entry *Admission::findEntry(const std::string &Name) {
  for (auto &E : Entries)
    if (E->Name == Name)
      return E.get();
  return nullptr;
}

Status Admission::start() {
  // Bulk-warm the program cache from the artifact store first, so the
  // per-graph compiles below resolve without running a single pass on a
  // restart against a populated store.
  if (Cfg.Prefetch)
    if (ArtifactStore *Store = ArtifactStore::enabledGlobal()) {
      size_t N = ProgramCache::global().prefetchFrom(*Store);
      std::lock_guard<std::mutex> Lock(Mutex);
      Counts.PrefetchedArtifacts = N;
    }

  std::vector<std::string> Names = Cfg.Graphs;
  if (Names.empty())
    for (const auto &B : apps::allBenchmarks())
      Names.push_back(B.Name);

  for (const std::string &Name : Names) {
    const apps::BenchmarkEntry *Found = nullptr;
    for (const auto &B : apps::allBenchmarks())
      if (B.Name == Name) {
        Found = &B;
        break;
      }
    if (!Found)
      return Status(ErrorCode::Internal,
                    "unknown serving-set graph '" + Name + "'");
    if (findEntry(Name))
      continue; // configured twice; one entry is plenty

    StreamPtr Root = Found->Build();
    PipelineOptions Opts;
    Opts.Mode = Cfg.Mode;
    Opts.Exec.Eng = Engine::Compiled;
    CompilerPipeline Pipeline(Opts);
    Expected<CompileResult> ER = Pipeline.tryCompile(*Root);
    if (!ER.hasValue())
      return Status(ErrorCode::Internal,
                    "serving-set graph '" + Name +
                        "' failed to compile: " + ER.status().message());
    CompileResult R = ER.take();
    if (!R.Program)
      return Status(ErrorCode::Internal,
                    "serving-set graph '" + Name + "' produced no program");

    auto E = std::make_unique<Entry>();
    E->Name = Name;
    E->Prog = R.Program;
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      if (R.ProgramCacheHit || R.Program->loadedFromArtifact())
        ++Counts.WarmStarts;
      else
        ++Counts.StartupCompiles;
    }
    Entries.push_back(std::move(E));
  }

  // Publish the counters once the serving set exists; the registration
  // dies with this object, so a stopped service vanishes from snapshots
  // instead of dangling.
  StatsReg = StatsRegistry::Registration("service", [this](
                                                        StatsRegistry::Counters
                                                            &Out) {
    Counters C = counters();
    Out.emplace_back("requests", C.Requests);
    Out.emplace_back("served", C.Served);
    Out.emplace_back("rejected", C.Rejected);
    Out.emplace_back("timeouts", C.Timeouts);
    Out.emplace_back("failures", C.Failures);
    Out.emplace_back("degraded", C.Degraded);
    Out.emplace_back("prefetched_artifacts", C.PrefetchedArtifacts);
    Out.emplace_back("warm_starts", C.WarmStarts);
    Out.emplace_back("startup_compiles", C.StartupCompiles);
    uint64_t Waiting = 0;
    for (const auto &E : Entries) {
      std::lock_guard<std::mutex> Lock(E->SlotMutex);
      Waiting += E->Waiting;
    }
    Out.emplace_back("queue_depth", Waiting);
  });
  return Status::ok();
}

RunResponse Admission::run(const RunRequest &R) {
  RunResponse Resp;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Counts.Requests;
  }

  Entry *E = findEntry(R.Graph);
  if (!E) {
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Counts.Rejected;
    Resp.St = Status(ErrorCode::Internal,
                     "graph '" + R.Graph + "' is not in the serving set");
    return Resp;
  }
  {
    std::unique_lock<std::mutex> Slot(E->SlotMutex);
    if (E->Waiting >= Cfg.MaxQueueDepth) {
      Slot.unlock();
      std::lock_guard<std::mutex> Lock(Mutex);
      ++Counts.Rejected;
      Resp.St = Status(ErrorCode::Overloaded,
                       "queue depth for '" + R.Graph + "' is at the cap (" +
                           std::to_string(Cfg.MaxQueueDepth) + ")");
      return Resp;
    }
    ++E->Waiting;
    E->SlotFreed.wait(Slot, [&] { return E->Running < Slots; });
    --E->Waiting;
    ++E->Running;
  }

  codegen::NativeModuleRef Native;
  if (R.Eng == Engine::Native) {
    // Resolve the program's native module once; unavailability is the
    // degradation ladder, not an error.
    std::lock_guard<std::mutex> Lock(E->NativeMutex);
    if (!E->NativeResolved) {
      E->Native = codegen::NativeModuleCache::global().get(
          *E->Prog, &E->NativeDegradeReason);
      E->NativeResolved = true;
    }
    if (E->Native) {
      Native = E->Native;
    } else {
      Resp.Degraded = true;
      Resp.DegradeReason = E->NativeDegradeReason.empty()
                               ? "native codegen unavailable"
                               : E->NativeDegradeReason;
    }
  }

  size_t NOutputs = std::min<size_t>(
      R.NOutputs ? R.NOutputs : Cfg.DefaultOutputs, Cfg.MaxOutputs);
  int64_t DeadlineMillis =
      R.DeadlineMillis > 0 ? R.DeadlineMillis : Cfg.DefaultDeadlineMillis;
  faults::RunDeadline DL = faults::RunDeadline::afterMillis(DeadlineMillis);
  const faults::RunDeadline *DLP = DeadlineMillis > 0 ? &DL : nullptr;
  const CompiledProgramRef &Prog = E->Prog;
  OpCounts Before = ops::counts();
  auto Start = std::chrono::steady_clock::now();
  {
    ops::CountingScope Scope(R.CountOps);
    if (R.Shard && !R.Latency) {
      ParallelExecutor X(Prog, Prog->options().Parallel, Native);
      X.provideInput(R.Input);
      Resp.St = X.tryRun(NOutputs, DLP);
      if (Resp.St.isOk())
        Resp.Outputs = Prog->graph().RootProducesOutput ? X.outputSnapshot()
                                                        : X.printed();
    } else {
      CompiledExecutor X(Prog, Native);
      X.provideInput(R.Input);
      Resp.St = R.Latency ? X.tryRunLatency(NOutputs, DLP,
                                            &Resp.FirstOutputSeconds)
                          : X.tryRun(NOutputs, DLP);
      if (Resp.St.isOk())
        Resp.Outputs = Prog->graph().RootProducesOutput ? X.outputSnapshot()
                                                        : X.printed();
    }
  }
  Resp.ServerSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  if (Resp.St.isOk()) {
    // A run stops at a batch or iteration boundary; ship what was asked.
    if (Resp.Outputs.size() > NOutputs)
      Resp.Outputs.resize(NOutputs);
    Resp.Flops = static_cast<uint64_t>((ops::counts() - Before).flops());
  }

  {
    std::lock_guard<std::mutex> Slot(E->SlotMutex);
    --E->Running;
  }
  E->SlotFreed.notify_one();

  std::lock_guard<std::mutex> Lock(Mutex);
  if (Resp.St.isOk())
    ++Counts.Served;
  else if (Resp.St.code() == ErrorCode::Timeout ||
           Resp.St.code() == ErrorCode::Cancelled)
    ++Counts.Timeouts;
  else
    ++Counts.Failures;
  if (Resp.Degraded)
    ++Counts.Degraded;
  return Resp;
}
