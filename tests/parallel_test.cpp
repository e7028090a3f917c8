//===- tests/parallel_test.cpp - Parallel sharded execution backend -------==//
//
// The parallel backend's contract: sharded runs are *bit-identical* to
// single-threaded CompiledExecutor runs — output values, printed values
// AND FLOP counts — across the test graphs and every benchmark x
// optimization configuration; programs whose shard-boundary state cannot
// be reconstructed degrade to an equivalent sequential run. Plus the
// executor pool, the concurrency stress tests, the ProgramCache
// options-keying regression and AnalysisManager eviction.
//
//===----------------------------------------------------------------------===//

#include "apps/Benchmarks.h"
#include "apps/Dsp.h"
#include "compiler/AnalysisManager.h"
#include "compiler/Pipeline.h"
#include "compiler/Program.h"
#include "exec/CompiledExecutor.h"
#include "exec/Measure.h"
#include "exec/Parallel.h"
#include "opt/Optimizer.h"
#include "TestGraphs.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <thread>

using namespace slin;
using namespace slin::testing_helpers;
using apps::allBenchmarks;
using apps::BenchmarkEntry;
using apps::buildFIR;
using apps::buildFMRadio;

namespace {

CompiledProgramRef makeProgram(const Stream &Root,
                               CompiledOptions Opts = CompiledOptions()) {
  return std::make_shared<const CompiledProgram>(Root, Opts);
}

/// Reference single-threaded run over exactly \p Iters steady iterations.
struct RefRun {
  std::vector<double> Out;
  std::vector<double> Printed;
  OpCounts Ops;
};

RefRun referenceRun(CompiledProgramRef P, int64_t Iters,
                    const std::vector<double> &Input = {}) {
  RefRun R;
  CompiledExecutor E(P);
  if (!Input.empty())
    E.provideInput(Input);
  ops::CountingScope Scope;
  OpCounts Before = ops::counts();
  E.tryRunIterations(Iters).orDie();
  R.Ops = ops::counts() - Before;
  R.Out = E.outputSnapshot();
  R.Printed = E.printed();
  return R;
}

RefRun parallelRun(CompiledProgramRef P, int64_t Iters, ParallelOptions Opts,
                   const std::vector<double> &Input = {},
                   ParallelExecutor::RunStats *Stats = nullptr) {
  RefRun R;
  ParallelExecutor E(P, Opts);
  if (!Input.empty())
    E.provideInput(Input);
  ops::CountingScope Scope;
  OpCounts Before = ops::counts();
  E.tryRunIterations(Iters).orDie();
  R.Ops = ops::counts() - Before;
  R.Out = E.outputSnapshot();
  R.Printed = E.printed();
  if (Stats)
    *Stats = E.lastRunStats();
  return R;
}

/// Iteration span that forces several shards past the washout depth but
/// stays cheap (freq-replaced programs do a lot of work per iteration).
int64_t spanFor(const CompiledProgram &P, int /*Workers*/) {
  int64_t W = P.shardInfo().Shardable ? P.shardInfo().WashoutIterations : 0;
  return std::min<int64_t>(4096, 3 * std::max<int64_t>(W, 8) + 1);
}

//===----------------------------------------------------------------------===//
// Sharded bit-identity on the engine test graphs
//===----------------------------------------------------------------------===//

StreamPtr sourcePipeline(std::vector<StreamPtr> Mids) {
  auto P = std::make_unique<Pipeline>("p");
  P->add(makeCountingSource());
  for (StreamPtr &M : Mids)
    P->add(std::move(M));
  P->add(makePrinterSink());
  return P;
}

struct GraphCase {
  std::string Name;
  std::function<StreamPtr()> Build;
  bool ExpectShardable;
};

std::vector<GraphCase> shardGraphs() {
  std::vector<GraphCase> G;
  G.push_back({"PeekingFIR", [] {
    std::vector<StreamPtr> M;
    M.push_back(makeFIR({1.5, -2.25, 3.0, 0.5, -0.125, 7.0, 11.0, -13.0}));
    return sourcePipeline(std::move(M));
  }, true});
  G.push_back({"RateMismatch", [] {
    std::vector<StreamPtr> M;
    M.push_back(makeExpander(3));
    M.push_back(makeGain(0.5));
    M.push_back(makeCompressor(2));
    return sourcePipeline(std::move(M));
  }, true});
  G.push_back({"DuplicateSplitJoin", [] {
    auto SJ = std::make_unique<SplitJoin>("sj", Splitter::duplicate(),
                                          Joiner::roundRobin({1, 2}));
    SJ->add(makeGain(10));
    {
      auto Inner = std::make_unique<Pipeline>("inner");
      Inner->add(makeFIR({1, 2, 3}));
      Inner->add(makeExpander(2));
      SJ->add(std::move(Inner));
    }
    std::vector<StreamPtr> M;
    M.push_back(std::move(SJ));
    return sourcePipeline(std::move(M));
  }, true});
  G.push_back({"RoundRobinSplitJoin", [] {
    auto SJ = std::make_unique<SplitJoin>("sj", Splitter::roundRobin({2, 1}),
                                          Joiner::roundRobin({2, 1}));
    SJ->add(makeGain(1));
    SJ->add(makeGain(-1));
    std::vector<StreamPtr> M;
    M.push_back(std::move(SJ));
    return sourcePipeline(std::move(M));
  }, true});
  G.push_back({"DelayLine", [] {
    std::vector<StreamPtr> M;
    M.push_back(apps::makeDelay(0.25));
    M.push_back(makeFIR({0.5, 0.5, 1.0}));
    return sourcePipeline(std::move(M));
  }, true});
  G.push_back({"RampAndTable", [] {
    // Modular-cursor source (idx = (idx + 1) mod Period) upstream of a
    // peeking filter: exercises ModAffine seeding.
    auto P = std::make_unique<Pipeline>("p");
    P->add(apps::makeRampSource(16));
    P->add(makeFIR({1, -2, 4, -8, 16}, "fir5"));
    P->add(makePrinterSink());
    return StreamPtr(std::move(P));
  }, true});
  // Feedback loops cycle state; must fall back, still bit-identically.
  G.push_back({"FeedbackLoop", [] {
    std::vector<StreamPtr> M;
    M.push_back(std::make_unique<FeedbackLoop>(
        "fb", Joiner::roundRobin({1, 1}), makeSumDiffFilter(),
        makeIdentity(), Splitter::roundRobin({1, 1}),
        std::vector<double>{0.5}));
    return sourcePipeline(std::move(M));
  }, false});
  return G;
}

class ShardedEquivalence : public ::testing::TestWithParam<GraphCase> {};

TEST_P(ShardedEquivalence, BitIdenticalToSingleThread) {
  StreamPtr Root = GetParam().Build();
  CompiledProgramRef P = makeProgram(*Root);
  EXPECT_EQ(P->shardInfo().Shardable, GetParam().ExpectShardable)
      << P->shardInfo().Reason;

  ParallelOptions PO;
  PO.Workers = 4;
  PO.ShardMinIterations = 4;
  int64_t S = spanFor(*P, PO.Workers);

  RefRun Ref = referenceRun(P, S);
  ParallelExecutor::RunStats Stats;
  RefRun Par = parallelRun(P, S, PO, {}, &Stats);

  EXPECT_EQ(Ref.Out, Par.Out);
  EXPECT_EQ(Ref.Printed, Par.Printed);
  EXPECT_EQ(Ref.Ops.flops(), Par.Ops.flops());
  EXPECT_TRUE(Ref.Ops == Par.Ops);
  if (GetParam().ExpectShardable) {
    EXPECT_FALSE(Stats.Sequential);
    EXPECT_GT(Stats.ShardsUsed, 1) << "span " << S << " washout "
                                   << P->shardInfo().WashoutIterations;
  } else {
    EXPECT_TRUE(Stats.Sequential);
    EXPECT_FALSE(Stats.FallbackReason.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    TestGraphs, ShardedEquivalence, ::testing::ValuesIn(shardGraphs()),
    [](const ::testing::TestParamInfo<GraphCase> &I) { return I.param.Name; });

//===----------------------------------------------------------------------===//
// Externally-driven graphs (input sharding with peek overlap)
//===----------------------------------------------------------------------===//

StreamPtr externallyDrivenGraph() {
  auto P = std::make_unique<Pipeline>("ext");
  P->add(makeFIR({2, -1, 0.5, 4, -3, 1, 1, -1}, "extfir"));
  P->add(makeGain(0.25));
  return P;
}

TEST(ParallelExternalInput, ShardedSlicesMatchSingleThread) {
  StreamPtr Root = externallyDrivenGraph();
  CompiledProgramRef P = makeProgram(*Root);
  ASSERT_TRUE(P->shardInfo().Shardable) << P->shardInfo().Reason;

  int64_t S = 200;
  std::vector<double> Input;
  for (int I = 0; I != 600; ++I)
    Input.push_back(0.125 * I - 3.0);

  ParallelOptions PO;
  PO.Workers = 4;
  PO.ShardMinIterations = 4;
  RefRun Ref = referenceRun(P, S, Input);
  ParallelExecutor::RunStats Stats;
  RefRun Par = parallelRun(P, S, PO, Input, &Stats);

  EXPECT_EQ(Ref.Out, Par.Out);
  EXPECT_TRUE(Ref.Ops == Par.Ops);
  EXPECT_GT(Stats.ShardsUsed, 1);
}

TEST(ParallelExternalInput, InsufficientInputIsReportedUpFront) {
  StreamPtr Root = externallyDrivenGraph();
  CompiledProgramRef P = makeProgram(*Root);
  ParallelExecutor E(P, ParallelOptions());
  E.provideInput({1, 2, 3});
  Status St = E.tryRunIterations(64);
  EXPECT_EQ(St.code(), ErrorCode::Deadlock);
  EXPECT_NE(St.message().find("external input"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Continuation across run calls
//===----------------------------------------------------------------------===//

TEST(ParallelContinuation, SplitRunsEqualOneRun) {
  StreamPtr Root = shardGraphs()[0].Build(); // PeekingFIR, washout 7
  CompiledProgramRef P = makeProgram(*Root);
  ASSERT_TRUE(P->shardInfo().Shardable);
  int64_t W = P->shardInfo().WashoutIterations;
  ASSERT_GT(W, 0);

  ParallelOptions PO;
  PO.Workers = 3;
  PO.ShardMinIterations = 2;

  // First span shorter than the washout: the continuation's first shard
  // must replay from the true stream start (seed boundary would be
  // negative).
  int64_t S1 = W - 2, S2 = 150;
  RefRun Ref = referenceRun(P, S1 + S2);

  ParallelExecutor E(P, PO);
  ops::CountingScope Scope;
  OpCounts Before = ops::counts();
  E.tryRunIterations(S1).orDie();
  E.tryRunIterations(S2).orDie();
  OpCounts Ops = ops::counts() - Before;

  EXPECT_EQ(Ref.Printed, E.printed());
  EXPECT_EQ(Ref.Out, E.outputSnapshot());
  EXPECT_TRUE(Ref.Ops == Ops);
  EXPECT_EQ(E.iterationsDone(), S1 + S2);
}

TEST(ParallelContinuation, SingleShardCallsContinueTheAdoptedTail) {
  // Workers=1 forces single-shard calls; the second and third calls must
  // continue the adopted tail executor (no washout replay) and still be
  // bit-identical — values and FLOPs — to one sequential run.
  StreamPtr Root = shardGraphs()[0].Build();
  CompiledProgramRef P = makeProgram(*Root);
  ASSERT_TRUE(P->shardInfo().Shardable);

  RefRun Ref = referenceRun(P, 120);

  ParallelOptions PO;
  PO.Workers = 1;
  ParallelExecutor E(P, PO);
  ops::CountingScope Scope;
  OpCounts Before = ops::counts();
  E.tryRunIterations(40).orDie();
  E.tryRunIterations(40).orDie();
  E.tryRunIterations(40).orDie();
  OpCounts Ops = ops::counts() - Before;
  EXPECT_EQ(E.lastRunStats().WarmupIterations, 0)
      << "tail continuation must not replay";
  EXPECT_EQ(Ref.Printed, E.printed());
  EXPECT_TRUE(Ref.Ops == Ops);
}

TEST(ParallelRunByOutputs, ProbedPrintRatesReachTarget) {
  StreamPtr Root = shardGraphs()[1].Build(); // RateMismatch (print-driven)
  CompiledProgramRef P = makeProgram(*Root);
  ParallelExecutor E(P, ParallelOptions());
  E.tryRun(100).orDie();
  EXPECT_GE(E.outputsProduced(), 100u);
  // Prefix-identical to the engine the shards run on.
  auto Expect = collectOutputs(*Root, 100, Engine::Compiled);
  ASSERT_GE(E.printed().size(), Expect.size());
  for (size_t I = 0; I != Expect.size(); ++I)
    EXPECT_EQ(E.printed()[I], Expect[I]) << "output " << I;
}

//===----------------------------------------------------------------------===//
// Benchmarks x configurations (the equivalence suite, sharded)
//===----------------------------------------------------------------------===//

struct BenchCase {
  std::string Benchmark;
  OptMode Mode;
};

std::string benchCaseName(const ::testing::TestParamInfo<BenchCase> &Info) {
  const BenchCase &C = Info.param;
  std::string Mode;
  switch (C.Mode) {
  case OptMode::Linear: Mode = "linear"; break;
  case OptMode::Freq: Mode = "freq"; break;
  case OptMode::Redundancy: Mode = "redund"; break;
  case OptMode::AutoSel: Mode = "autosel"; break;
  case OptMode::Base: Mode = "base"; break;
  }
  return C.Benchmark + "_" + Mode;
}

std::vector<BenchCase> benchCases() {
  std::vector<BenchCase> Cases;
  for (const BenchmarkEntry &B : allBenchmarks()) {
    Cases.push_back({B.Name, OptMode::Base});
    Cases.push_back({B.Name, OptMode::Linear});
    Cases.push_back({B.Name, OptMode::Freq});
    Cases.push_back({B.Name, OptMode::AutoSel});
  }
  return Cases;
}

class BenchmarkShardedEquivalence : public ::testing::TestWithParam<BenchCase> {
};

TEST_P(BenchmarkShardedEquivalence, BitIdenticalToSingleThread) {
  const BenchCase &C = GetParam();
  StreamPtr Base;
  for (const BenchmarkEntry &B : allBenchmarks())
    if (B.Name == C.Benchmark)
      Base = B.Build();
  ASSERT_NE(Base, nullptr);
  OptimizerOptions O;
  O.Mode = C.Mode;
  StreamPtr Opt = optimize(*Base, O);
  CompiledProgramRef P = makeProgram(*Opt);

  ParallelOptions PO;
  PO.Workers = 4;
  PO.ShardMinIterations = 4;
  int64_t S = spanFor(*P, PO.Workers);

  RefRun Ref = referenceRun(P, S);
  ParallelExecutor::RunStats Stats;
  RefRun Par = parallelRun(P, S, PO, {}, &Stats);

  EXPECT_EQ(Ref.Out, Par.Out);
  EXPECT_EQ(Ref.Printed, Par.Printed);
  EXPECT_TRUE(Ref.Ops == Par.Ops)
      << "flops " << Ref.Ops.flops() << " vs " << Par.Ops.flops();
  // DToA's feedback loop (and any opaque state) must degrade, not break.
  if (!P->shardInfo().Shardable) {
    EXPECT_TRUE(Stats.Sequential);
  }
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, BenchmarkShardedEquivalence,
                         ::testing::ValuesIn(benchCases()), benchCaseName);

//===----------------------------------------------------------------------===//
// Measurement over the parallel engine
//===----------------------------------------------------------------------===//

TEST(ParallelMeasure, FlopTotalsMatchCompiledEngine) {
  StreamPtr Root = buildFIR(64);
  MeasureOptions MO;
  MO.WarmupOutputs = 64;
  MO.MeasureOutputs = 512;
  MO.MeasureTime = false;
  MO.Exec.Eng = Engine::Compiled;
  MO.Program = makeProgram(*Root);
  Measurement Single = measureSteadyState(*Root, MO);

  MO.Exec.Eng = Engine::Parallel;
  MO.Exec.Compiled.Parallel.Workers = 4;
  MO.Exec.Compiled.Parallel.ShardMinIterations = 8;
  Measurement Par = measureSteadyState(*Root, MO);

  // Worker-thread counters must aggregate into the measured result: same
  // windows, same totals.
  EXPECT_EQ(Single.Outputs, Par.Outputs);
  EXPECT_TRUE(Single.Ops == Par.Ops)
      << Single.Ops.flops() << " vs " << Par.Ops.flops();
  EXPECT_GT(Par.Ops.flops(), 0u);
}

TEST(OpCounters, AccumulateFoldsWorkerDeltas) {
  ops::CountingScope Scope;
  ops::reset();
  OpCounts Delta;
  std::thread T([&] {
    ops::CountingScope WorkerScope;
    OpCounts Before = ops::counts();
    double X = 1.0;
    for (int I = 0; I != 10; ++I)
      X = ops::add(X, 2.0);
    Delta = ops::counts() - Before;
    EXPECT_GT(X, 0.0);
  });
  T.join();
  EXPECT_EQ(Delta.Adds, 10u);
  EXPECT_EQ(ops::counts().Adds, 0u); // worker ops invisible until folded
  ops::accumulate(Delta);
  EXPECT_EQ(ops::counts().Adds, 10u);
}

//===----------------------------------------------------------------------===//
// Executor pool
//===----------------------------------------------------------------------===//

TEST(ExecutorPool, ConcurrentRequestsMatchSequentialRuns) {
  StreamPtr Root = buildFIR(32);
  CompiledProgramRef P = makeProgram(*Root);

  std::vector<double> Expect;
  OpCounts ExpectOps;
  {
    CompiledExecutor E(P);
    ops::CountingScope Scope;
    OpCounts Before = ops::counts();
    E.tryRun(96).orDie();
    ExpectOps = ops::counts() - Before;
    Expect = E.printed();
  }

  ExecutorPool Pool(P, 4);
  EXPECT_EQ(Pool.workers(), 4);
  std::vector<std::future<ExecutorPool::Result>> Futures;
  for (int I = 0; I != 12; ++I) {
    ExecutorPool::Request R;
    R.NOutputs = 96;
    R.CountOps = true;
    Futures.push_back(Pool.submit(std::move(R)));
  }
  for (auto &F : Futures) {
    ExecutorPool::Result R = F.get();
    EXPECT_EQ(R.Outputs, Expect);
    EXPECT_TRUE(R.Ops == ExpectOps);
  }
  EXPECT_EQ(Pool.served(), 12u);
}

//===----------------------------------------------------------------------===//
// Concurrency stress (exercised under TSan in CI)
//===----------------------------------------------------------------------===//

TEST(ConcurrencyStress, ExecutorsAndAnalysesInParallel) {
  StreamPtr Root = buildFIR(24);
  CompiledProgramRef P = makeProgram(*Root);
  std::vector<double> Expect = [&] {
    CompiledExecutor E(P);
    E.tryRun(64).orDie();
    return E.printed();
  }();

  std::atomic<int> Failures{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T != 8; ++T) {
    Threads.emplace_back([&, T] {
      for (int R = 0; R != 3; ++R) {
        // Independent executor instances over the shared artifact.
        CompiledExecutor E(P);
        E.tryRun(64).orDie();
        if (E.printed() != Expect)
          ++Failures;
        // Concurrent compiles through the global caches.
        StreamPtr G = buildFMRadio(8 + T % 3, 3);
        OptimizerOptions OO;
        OO.Mode = OptMode::AutoSel;
        StreamPtr Opt = optimize(*G, OO);
        if (!Opt)
          ++Failures;
        // Concurrent hash-consed extraction.
        auto F = makeFIR({1.0, 2.0, 3.0, double(T)}, "stress");
        auto X = AnalysisManager::global().extraction(*F);
        if (!X)
          ++Failures;
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Failures.load(), 0);
}

//===----------------------------------------------------------------------===//
// ProgramCache options-keying regression
//===----------------------------------------------------------------------===//

TEST(ProgramCacheKeying, DistinctOptionsGetDistinctArtifacts) {
  StreamPtr Root = buildFIR(16);
  ProgramCache Cache;

  CompiledOptions A;
  A.BatchIterations = 16;
  A.Parallel.Workers = 1;
  CompiledOptions B = A;
  B.Parallel.Workers = 4; // same BatchIterations: the old key collided

  bool Hit = true;
  CompiledProgramRef PA = Cache.get(*Root, A, &Hit);
  EXPECT_FALSE(Hit);
  CompiledProgramRef PB = Cache.get(*Root, B, &Hit);
  EXPECT_FALSE(Hit) << "options differing only in parallel knobs must not "
                       "share a cache entry";
  EXPECT_NE(PA.get(), PB.get());
  EXPECT_EQ(PA->options().Parallel.Workers, 1);
  EXPECT_EQ(PB->options().Parallel.Workers, 4);

  // Same options again: served from cache.
  CompiledProgramRef PA2 = Cache.get(*Root, A, &Hit);
  EXPECT_TRUE(Hit);
  EXPECT_EQ(PA.get(), PA2.get());

  CompiledOptions C = A;
  C.Parallel.ShardMinIterations = 99;
  Cache.get(*Root, C, &Hit);
  EXPECT_FALSE(Hit);
}

//===----------------------------------------------------------------------===//
// AnalysisManager eviction
//===----------------------------------------------------------------------===//

TEST(AnalysisManagerEviction, CapBoundsEntriesAndCountsEvictions) {
  AnalysisManager AM;
  AM.setCapacity(2, 2);

  auto MakeF = [](int I) {
    return makeFIR({1.0 + I, 2.0, 3.0 + I}, "evict" + std::to_string(I));
  };
  for (int I = 0; I != 5; ++I)
    ASSERT_NE(AM.extraction(*MakeF(I)), nullptr);

  AnalysisManager::Stats S = AM.stats();
  EXPECT_EQ(S.ExtractionMisses, 5u);
  EXPECT_LE(S.ExtractionEntries, 2u);
  EXPECT_EQ(S.ExtractionEvictions, 3u);

  // Recently used entries survive; evicted ones recompute correctly.
  auto R4 = AM.extraction(*MakeF(4));
  EXPECT_EQ(AM.stats().ExtractionHits, 1u);
  auto R0 = AM.extraction(*MakeF(0));
  EXPECT_EQ(AM.stats().ExtractionMisses, 6u);
  ASSERT_NE(R0, nullptr);
  ASSERT_NE(R4, nullptr);

  // Shrinking the cap evicts immediately.
  AM.setCapacity(1, 1);
  EXPECT_LE(AM.stats().ExtractionEntries, 1u);
}

TEST(AnalysisManagerEviction, LruKeepsHotEntries) {
  AnalysisManager AM;
  AM.setCapacity(2, 2);
  auto A = makeFIR({1, 2}, "hotA");
  auto B = makeFIR({3, 4}, "hotB");
  auto C = makeFIR({5, 6}, "hotC");
  AM.extraction(*A);
  AM.extraction(*B);
  AM.extraction(*A); // refresh A; B is now the LRU entry
  AM.extraction(*C); // evicts B
  uint64_t MissesBefore = AM.stats().ExtractionMisses;
  AM.extraction(*A);
  EXPECT_EQ(AM.stats().ExtractionMisses, MissesBefore) << "A was evicted";
  AM.extraction(*B);
  EXPECT_EQ(AM.stats().ExtractionMisses, MissesBefore + 1) << "B survived";
}

//===----------------------------------------------------------------------===//
// Shard-boundary computation unit checks
//===----------------------------------------------------------------------===//

TEST(ShardBoundary, WashoutTracksPeekWindows) {
  // peek 8 / pop 1 leaves 7 items on the source channel: washout 7.
  StreamPtr Root = shardGraphs()[0].Build();
  CompiledProgramRef P = makeProgram(*Root);
  ASSERT_TRUE(P->shardInfo().Shardable);
  EXPECT_EQ(P->shardInfo().WashoutIterations, 7);

  // No peeking anywhere: nothing to wash out.
  StreamPtr Rate = shardGraphs()[1].Build();
  CompiledProgramRef P2 = makeProgram(*Rate);
  ASSERT_TRUE(P2->shardInfo().Shardable);
  EXPECT_EQ(P2->shardInfo().WashoutIterations, 0);

  // A delay line is depth-1 state: washout at least one iteration.
  StreamPtr Delay = shardGraphs()[4].Build();
  CompiledProgramRef P3 = makeProgram(*Delay);
  ASSERT_TRUE(P3->shardInfo().Shardable);
  EXPECT_GE(P3->shardInfo().WashoutIterations, 1);
}

TEST(ShardBoundary, ClosedFormSeedsForSources) {
  StreamPtr Root = shardGraphs()[5].Build(); // RampAndTable
  CompiledProgramRef P = makeProgram(*Root);
  ASSERT_TRUE(P->shardInfo().Shardable) << P->shardInfo().Reason;
  ASSERT_EQ(P->shardInfo().Seeds.size(), 1u);
  const CompiledProgram::ShardInfo::FieldSeed &S = P->shardInfo().Seeds[0];
  EXPECT_EQ(S.DeltaRest, 1.0);
  EXPECT_EQ(S.Modulus, 16.0);
}

TEST(ShardBoundary, NegativeModularCursorIsRejected) {
  // A countdown cursor idx = fmod(idx - 1, P) goes negative, where the
  // tape's per-firing fmod and a one-shot closed form pick different
  // representatives — such fields must not be seeded.
  using namespace slin::wir;
  using namespace slin::wir::build;
  auto P = std::make_unique<Pipeline>("p");
  {
    std::vector<FieldDef> Fields = {FieldDef::mutableScalar("idx", 0)};
    WorkFunction W(0, 0, 1,
                   stmts(push(fld("idx")),
                         fldAssign("idx", mod(sub(fld("idx"), cst(1)),
                                              cst(8)))));
    P->add(std::make_unique<Filter>("Countdown", std::move(Fields),
                                    std::move(W)));
  }
  P->add(makePrinterSink());
  CompiledProgramRef Prog = makeProgram(*P);
  EXPECT_FALSE(Prog->shardInfo().Shardable);

  // The fallback still reproduces the sequential stream bit for bit.
  RefRun Ref = referenceRun(Prog, 100);
  RefRun Par = parallelRun(Prog, 100, ParallelOptions());
  EXPECT_EQ(Ref.Printed, Par.Printed);
}

TEST(ShardBoundary, OpaqueStateIsRejected) {
  // An accumulator (x += pop()) cannot be seeded or washed out.
  using namespace slin::wir;
  using namespace slin::wir::build;
  auto P = std::make_unique<Pipeline>("p");
  P->add(makeCountingSource());
  {
    std::vector<FieldDef> Fields = {FieldDef::mutableScalar("acc", 0)};
    WorkFunction W(1, 1, 1,
                   stmts(fldAssign("acc", add(fld("acc"), pop())),
                         push(fld("acc"))));
    P->add(std::make_unique<Filter>("Accum", std::move(Fields), std::move(W)));
  }
  P->add(makePrinterSink());
  CompiledProgramRef Prog = makeProgram(*P);
  EXPECT_FALSE(Prog->shardInfo().Shardable);
  EXPECT_NE(Prog->shardInfo().Reason.find("Accum"), std::string::npos);

  // ... and the parallel executor still runs it, sequentially and
  // bit-identically.
  RefRun Ref = referenceRun(Prog, 100);
  ParallelExecutor::RunStats Stats;
  RefRun Par = parallelRun(Prog, 100, ParallelOptions(), {}, &Stats);
  EXPECT_EQ(Ref.Printed, Par.Printed);
  EXPECT_TRUE(Ref.Ops == Par.Ops);
  EXPECT_TRUE(Stats.Sequential);
}

//===----------------------------------------------------------------------===//
// State-classification agreement table
//===----------------------------------------------------------------------===//
//
// Hand-written filters with the verdict the shard-boundary state analysis
// must reach for each, observed through the program's ShardInfo — the
// only thing the parallel backend trusts: a closed-form field becomes a
// FieldSeed (Modulus 0 for a counter, > 0 for a cursor), an
// input-determined field adds no seed but forces a washout, and state
// that cannot be reconstructed makes the program unshardable with the
// filter named in the reason.

enum class Verdict { Affine, ModAffine, InputDetermined, NotReconstructable };

struct StateCase {
  std::string Name; ///< also the filter's name
  Verdict Expect;
  std::vector<FieldDef> Fields;
  std::function<WorkFunction()> Work; ///< pop 1 / push 1
  double Delta = 0.0, Mod = 0.0;      ///< expected seed (closed forms)
};

std::vector<StateCase> stateCases() {
  using namespace slin::wir;
  using namespace slin::wir::build;
  auto Scalar = [](const char *N) { return FieldDef::mutableScalar(N, 0); };
  std::vector<StateCase> C;
  C.push_back({"Counter", Verdict::Affine, {Scalar("n")}, [] {
    return WorkFunction(1, 1, 1,
                        stmts(push(add(pop(), fld("n"))),
                              fldAssign("n", add(fld("n"), cst(3)))));
  }, 3.0, 0.0});
  C.push_back({"Cursor", Verdict::ModAffine, {Scalar("idx")}, [] {
    return WorkFunction(1, 1, 1,
                        stmts(push(add(pop(), fld("idx"))),
                              fldAssign("idx", mod(add(fld("idx"), cst(2)),
                                                   cst(7)))));
  }, 2.0, 7.0});
  C.push_back({"DelayLine", Verdict::InputDetermined, {Scalar("last")}, [] {
    return WorkFunction(1, 1, 1,
                        stmts(push(fld("last")), fldAssign("last", pop())));
  }});
  C.push_back({"AbsDelay", Verdict::InputDetermined, {Scalar("last")}, [] {
    return WorkFunction(1, 1, 1,
                        stmts(push(fld("last")),
                              fldAssign("last", absE(pop()))));
  }});
  C.push_back({"TableByCursor", Verdict::InputDetermined,
               {FieldDef::constArray("table", {0.5, -1, 2, 4}), Scalar("idx"),
                Scalar("last")},
               [] {
    return WorkFunction(
        1, 1, 1,
        stmts(push(fld("last")),
              fldAssign("last", mul(fldAt("table", fld("idx")), pop())),
              fldAssign("idx", mod(add(fld("idx"), cst(1)), cst(4)))));
  }});
  C.push_back({"Accumulator", Verdict::NotReconstructable, {Scalar("acc")},
               [] {
    return WorkFunction(1, 1, 1,
                        stmts(fldAssign("acc", add(fld("acc"), pop())),
                              push(fld("acc"))));
  }});
  C.push_back({"SignLatch", Verdict::NotReconstructable, {Scalar("acc")}, [] {
    return WorkFunction(
        1, 1, 1,
        stmts(ifStmt(gt(fld("acc"), cst(0)), stmts(fldAssign("acc", cst(1))),
                     stmts(fldAssign("acc", cst(0)))),
              push(add(fld("acc"), pop()))));
  }});
  C.push_back({"StoredTwice", Verdict::NotReconstructable, {Scalar("f")}, [] {
    return WorkFunction(1, 1, 1,
                        stmts(fldAssign("f", add(fld("f"), cst(1))),
                              push(add(fld("f"), pop())),
                              fldAssign("f", mul(fld("f"), cst(2)))));
  }});
  C.push_back({"RingBuffer", Verdict::NotReconstructable,
               {FieldDef::mutableArray("buf", {0, 0, 0, 0}), Scalar("pos")},
               [] {
    return WorkFunction(
        1, 1, 1,
        stmts(push(fldAt("buf", fld("pos"))),
              fldArrAssign("buf", fld("pos"), pop()),
              fldAssign("pos", mod(add(fld("pos"), cst(1)), cst(4)))));
  }});
  C.push_back({"Countdown", Verdict::NotReconstructable, {Scalar("idx")}, [] {
    return WorkFunction(1, 1, 1,
                        stmts(push(add(pop(), fld("idx"))),
                              fldAssign("idx", mod(sub(fld("idx"), cst(1)),
                                                   cst(8)))));
  }});
  return C;
}

void PrintTo(const StateCase &C, std::ostream *OS) { *OS << C.Name; }

class StateAgreement : public ::testing::TestWithParam<StateCase> {};

TEST_P(StateAgreement, ShardInfoMatchesTheExpectedVerdict) {
  const StateCase &C = GetParam();
  auto Root = std::make_unique<Pipeline>("p");
  Root->add(makeCountingSource());
  Root->add(std::make_unique<Filter>(C.Name, C.Fields, C.Work()));
  Root->add(makePrinterSink());
  CompiledProgramRef P = makeProgram(*Root);
  const CompiledProgram::ShardInfo &SI = P->shardInfo();

  int Node = -1;
  for (size_t I = 0; I != P->graph().Nodes.size(); ++I)
    if (P->graph().Nodes[I].Name.find(C.Name) != std::string::npos)
      Node = static_cast<int>(I);
  ASSERT_GE(Node, 0);
  std::vector<CompiledProgram::ShardInfo::FieldSeed> Own;
  for (const CompiledProgram::ShardInfo::FieldSeed &S : SI.Seeds)
    if (S.Node == Node)
      Own.push_back(S);

  switch (C.Expect) {
  case Verdict::Affine:
  case Verdict::ModAffine:
    ASSERT_TRUE(SI.Shardable) << SI.Reason;
    ASSERT_EQ(Own.size(), 1u);
    EXPECT_EQ(Own[0].DeltaRest, C.Delta);
    EXPECT_EQ(Own[0].Modulus, C.Mod);
    EXPECT_EQ(SI.WashoutIterations, 0);
    break;
  case Verdict::InputDetermined:
    ASSERT_TRUE(SI.Shardable) << SI.Reason;
    EXPECT_EQ(Own.size(), C.Name == "TableByCursor" ? 1u : 0u);
    EXPECT_GE(SI.WashoutIterations, 1);
    break;
  case Verdict::NotReconstructable:
    EXPECT_FALSE(SI.Shardable);
    EXPECT_NE(SI.Reason.find(C.Name), std::string::npos) << SI.Reason;
    EXPECT_TRUE(SI.Seeds.empty());
    break;
  }

  // Whatever the verdict, sharded runs reproduce the sequential stream.
  ParallelOptions PO;
  PO.Workers = 4;
  PO.ShardMinIterations = 4;
  RefRun Ref = referenceRun(P, 64);
  RefRun Par = parallelRun(P, 64, PO);
  EXPECT_EQ(Ref.Printed, Par.Printed);
}

INSTANTIATE_TEST_SUITE_P(
    HandWritten, StateAgreement, ::testing::ValuesIn(stateCases()),
    [](const ::testing::TestParamInfo<StateCase> &I) { return I.param.Name; });

/// Compact rendering of every ShardInfo field.
std::string renderShardInfo(const CompiledProgram::ShardInfo &SI) {
  std::string S = (SI.Shardable ? "shardable" : "sequential") +
                  std::string(" washout=") +
                  std::to_string(SI.WashoutIterations);
  if (!SI.Reason.empty())
    S += " reason='" + SI.Reason + "'";
  char Buf[96];
  for (const CompiledProgram::ShardInfo::FieldSeed &Sd : SI.Seeds) {
    std::snprintf(Buf, sizeof(Buf), " %d.%d:%g+%g/%g%%%g", Sd.Node,
                  Sd.Field, Sd.Base, Sd.DeltaFirst, Sd.DeltaRest, Sd.Modulus);
    S += Buf;
  }
  return S;
}

TEST(StateAgreement, BenchmarkShardInfoIsPinned) {
  // Every app as written and under AutoSel: the shard recipe the state
  // analysis derives, pinned field by field.
  const std::string Radar12 = [] {
    std::string S;
    for (int N = 0; N != 12; ++N)
      S += " " + std::to_string(N * 3) + ".0:0+1/1%0";
    return S;
  }();
  const std::string RadarSel12 = [] {
    std::string S;
    for (int N = 0; N != 12; ++N)
      S += " " + std::to_string(N) + ".0:0+1/1%0";
    return S;
  }();
  const std::string DToA =
      "sequential washout=0 reason='feedback loop: state cycles through "
      "'Delay''";
  const std::map<std::string, std::pair<std::string, std::string>> Want = {
      {"FIR", {"shardable washout=255 0.1:0+1/1%16",
               "shardable washout=2 0.1:0+1/1%16"}},
      {"RateConvert", {"shardable washout=50 0.0:0+1/1%0",
                       "shardable washout=2 0.0:0+1/1%0"}},
      {"TargetDetect", {"shardable washout=299 0.1:0+1/1%3000",
                        "shardable washout=2 0.1:0+1/1%3000"}},
      {"FMRadio", {"shardable washout=76 0.0:0+1/1%0",
                   "shardable washout=4 0.0:0+1/1%0"}},
      {"Radar", {"shardable washout=26" + Radar12,
                 "shardable washout=26" + RadarSel12}},
      {"FilterBank", {"shardable washout=99 0.1:0+1/1%100",
                      "shardable washout=2 0.1:0+1/1%100"}},
      {"Vocoder", {"shardable washout=6 0.1:0+1/1%11",
                   "shardable washout=4 0.1:0+1/1%11"}},
      {"Oversampler", {"shardable washout=60 0.1:0+1/1%100",
                       "shardable washout=2 0.1:0+1/1%100"}},
      {"DToA", {DToA, DToA}},
  };
  for (const BenchmarkEntry &B : allBenchmarks()) {
    auto It = Want.find(B.Name);
    ASSERT_NE(It, Want.end()) << B.Name;
    StreamPtr Root = B.Build();
    EXPECT_EQ(renderShardInfo(makeProgram(*Root)->shardInfo()),
              It->second.first)
        << B.Name;
    PipelineOptions PO;
    PO.Mode = OptMode::AutoSel;
    PO.Exec.Eng = Engine::Compiled;
    PO.UseProgramCache = false;
    CompileResult Sel = CompilerPipeline(PO).tryCompile(*Root).orDie();
    EXPECT_EQ(renderShardInfo(Sel.Program->shardInfo()), It->second.second)
        << B.Name << " under AutoSel";
  }
}

} // namespace
