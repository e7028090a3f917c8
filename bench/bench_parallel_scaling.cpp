//===- bench/bench_parallel_scaling.cpp - Parallel backend scaling --------==//
//
// Throughput scaling of the parallel sharded backend (exec/Parallel.h)
// over worker counts, on representative shardable benchmarks, plus the
// executor-pool "serve many users" mode. Each row reports wall-clock for
// a fixed iteration span (best of N rounds, op counting off) and the
// speedup against the single-worker run of the same program.
//
// Sharding overhead is the washout replay (shard boundaries are
// reconstructed, not re-executed), so per-worker spans are chosen large
// relative to each program's washout depth. Speedups saturate at the
// machine's core count: on a single-core container every worker count
// measures ~1x.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "compiler/Program.h"
#include "exec/Parallel.h"

#include <chrono>

using namespace slin;
using namespace slin::apps;
using namespace slin::bench;

namespace {

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

struct ScalingCase {
  const char *Name;
  OptMode Mode;
  const char *ModeTag;
  int64_t Iterations;
};

} // namespace

int main() {
  JsonReport Report("parallel_scaling");
  const int Rounds = 3;
  const int WorkerSweep[] = {1, 2, 4, 8};

  const ScalingCase Cases[] = {
      {"FIR", OptMode::Base, "base", 16384},
      {"FilterBank", OptMode::Linear, "linear", 2048},
      {"Radar", OptMode::AutoSel, "autosel", 2048},
  };

  std::printf("Sharded steady-state scaling (fixed iteration span)\n");
  std::printf("%-22s %8s %10s %12s %9s %7s\n", "Benchmark", "workers",
              "shards", "ms (best)", "iters/ms", "speedup");
  printRule();

  for (const ScalingCase &C : Cases) {
    StreamPtr Root;
    for (const BenchmarkEntry &B : allBenchmarks())
      if (B.Name == C.Name)
        Root = B.Build();
    OptimizerOptions O;
    O.Mode = C.Mode;
    StreamPtr Opt = optimize(*Root, O);
    auto Program =
        std::make_shared<const CompiledProgram>(*Opt, CompiledOptions());
    std::string Label = std::string(C.Name) + "_" + C.ModeTag;
    if (!Program->shardInfo().Shardable) {
      std::printf("%-22s unshardable: %s\n", Label.c_str(),
                  Program->shardInfo().Reason.c_str());
      continue;
    }

    double OneWorker = 0.0;
    for (int Workers : WorkerSweep) {
      ParallelOptions PO;
      PO.Workers = Workers;
      PO.ShardMinIterations = 32;
      double Best = 0.0;
      int Shards = 0;
      for (int R = 0; R != Rounds; ++R) {
        ParallelExecutor E(Program, PO);
        ops::CountingScope Off(false);
        auto Start = std::chrono::steady_clock::now();
        E.tryRunIterations(C.Iterations).orDie();
        double Secs = secondsSince(Start);
        if (R == 0 || Secs < Best)
          Best = Secs;
        Shards = E.lastRunStats().ShardsUsed;
      }
      if (Workers == 1)
        OneWorker = Best;
      double Speedup = Best > 0.0 ? OneWorker / Best : 0.0;
      std::printf("%-22s %8d %10d %12.2f %9.1f %6.2fx\n", Label.c_str(),
                  Workers, Shards, Best * 1e3,
                  static_cast<double>(C.Iterations) / (Best * 1e3), Speedup);
      Report.add(Label, Engine::Parallel,
                 {{"workers", static_cast<double>(Workers)},
                  {"shards", static_cast<double>(Shards)},
                  {"iterations", static_cast<double>(C.Iterations)},
                  {"washout",
                   static_cast<double>(Program->shardInfo().WashoutIterations)},
                  {"ms", Best * 1e3},
                  {"speedup_x", Speedup}});
    }
    printRule();
  }

  // Executor-pool mode: many independent short runs against one program.
  {
    StreamPtr Root;
    for (const BenchmarkEntry &B : allBenchmarks())
      if (B.Name == "FIR")
        Root = B.Build();
    auto Program =
        std::make_shared<const CompiledProgram>(*Root, CompiledOptions());
    const int Requests = 32;
    const size_t Outputs = 2048;
    std::printf("Executor pool (%d requests x %zu outputs)\n", Requests,
                Outputs);
    std::printf("%-22s %8s %12s %7s\n", "Benchmark", "workers", "ms (best)",
                "speedup");
    printRule();
    double OneWorker = 0.0;
    for (int Workers : WorkerSweep) {
      double Best = 0.0;
      for (int R = 0; R != Rounds; ++R) {
        ExecutorPool Pool(Program, Workers);
        ops::CountingScope Off(false);
        auto Start = std::chrono::steady_clock::now();
        std::vector<std::future<ExecutorPool::Result>> Futures;
        for (int I = 0; I != Requests; ++I) {
          ExecutorPool::Request Req;
          Req.NOutputs = Outputs;
          Futures.push_back(Pool.submit(std::move(Req)));
        }
        for (auto &F : Futures)
          F.get();
        double Secs = secondsSince(Start);
        if (R == 0 || Secs < Best)
          Best = Secs;
      }
      if (Workers == 1)
        OneWorker = Best;
      double Speedup = Best > 0.0 ? OneWorker / Best : 0.0;
      std::printf("%-22s %8d %12.2f %6.2fx\n", "FIR_base_pool", Workers,
                  Best * 1e3, Speedup);
      Report.add("FIR_base_pool", Engine::Parallel,
                 {{"workers", static_cast<double>(Workers)},
                  {"requests", static_cast<double>(Requests)},
                  {"outputs", static_cast<double>(Outputs)},
                  {"ms", Best * 1e3},
                  {"speedup_x", Speedup}});
    }
    printRule();
  }
  return 0;
}
