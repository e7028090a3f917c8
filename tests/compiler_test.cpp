//===- tests/compiler_test.cpp - Compiler pipeline & caches ---------------==//
//
// The StreamCompiler subsystem: structural hashing of stream subtrees,
// the hash-consed AnalysisManager (extraction + combination memoization,
// invalidation, cache-on/off equivalence), the CompiledProgram artifact
// (one program, many independent executor instances), the ProgramCache
// (compiling a structurally identical configuration twice is one
// compile), and the pass manager's timing/dump diagnostics.
//
//===----------------------------------------------------------------------===//

#include "apps/Benchmarks.h"
#include "compiler/AnalysisManager.h"
#include "compiler/Pipeline.h"
#include "compiler/Program.h"
#include "compiler/StructuralHash.h"
#include "exec/CompiledExecutor.h"
#include "exec/Measure.h"
#include "linear/Analysis.h"
#include "opt/Optimizer.h"
#include "TestGraphs.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

using namespace slin;
using namespace slin::testing_helpers;

namespace {

StreamPtr firPipeline(std::vector<double> Taps, const std::string &Name) {
  auto P = std::make_unique<Pipeline>(Name);
  P->add(makeCountingSource());
  P->add(makeFIR(std::move(Taps)));
  P->add(makePrinterSink());
  return P;
}

//===----------------------------------------------------------------------===//
// Structural hashing
//===----------------------------------------------------------------------===//

TEST(StructuralHash, IdenticalBuildsAndClonesAgree) {
  StreamPtr A = firPipeline({1, 2, 3, 4}, "p");
  StreamPtr B = firPipeline({1, 2, 3, 4}, "p");
  EXPECT_EQ(structuralHash(*A), structuralHash(*B));
  EXPECT_EQ(structuralHash(*A), structuralHash(*A->clone()));
}

TEST(StructuralHash, NamesDoNotAffectTheHash) {
  // The replacers generate fresh names on every run; caching must see
  // through them.
  StreamPtr A = firPipeline({1, 2, 3, 4}, "p");
  StreamPtr B = firPipeline({1, 2, 3, 4}, "differently_named");
  EXPECT_EQ(structuralHash(*A), structuralHash(*B));
}

TEST(StructuralHash, ContentChangesTheHash) {
  StreamPtr A = firPipeline({1, 2, 3, 4}, "p");
  EXPECT_NE(structuralHash(*A), structuralHash(*firPipeline({1, 2, 3}, "p")));
  EXPECT_NE(structuralHash(*A),
            structuralHash(*firPipeline({1, 2, 3, 5}, "p")));
}

TEST(StructuralHash, WeightsAndSplitterKindMatter) {
  auto Make = [](Splitter S, Joiner J) {
    auto SJ = std::make_unique<SplitJoin>("sj", std::move(S), std::move(J));
    SJ->add(makeGain(1.0));
    SJ->add(makeGain(1.0));
    return SJ;
  };
  HashDigest Dup =
      structuralHash(*Make(Splitter::duplicate(), Joiner::roundRobin({1, 1})));
  HashDigest RR = structuralHash(
      *Make(Splitter::roundRobin({1, 1}), Joiner::roundRobin({1, 1})));
  HashDigest RR21 = structuralHash(
      *Make(Splitter::roundRobin({2, 1}), Joiner::roundRobin({1, 1})));
  EXPECT_NE(Dup, RR);
  EXPECT_NE(RR, RR21);
}

TEST(StructuralHash, GeneratedNativeFiltersHashByContent) {
  // Two separately generated PackedNative linear filters over the same
  // node must alias; a different matrix must not.
  LinearNode N(Matrix::fromRows({{0.5, 1.0}, {2.0, 0.25}}),
               Vector{0.0, 0.0}, 2, 1, 2);
  LinearNode M(Matrix::fromRows({{0.5, 1.0}, {2.5, 0.25}}),
               Vector{0.0, 0.0}, 2, 1, 2);
  auto F1 = makeLinearFilter(N, "a", LinearCodeGenStyle::PackedNative);
  auto F2 = makeLinearFilter(N, "b", LinearCodeGenStyle::PackedNative);
  auto F3 = makeLinearFilter(M, "a", LinearCodeGenStyle::PackedNative);
  EXPECT_EQ(structuralHash(*F1), structuralHash(*F2));
  EXPECT_NE(structuralHash(*F1), structuralHash(*F3));
}

/// The knobs of one small IR filter inside a one-child pipeline; each
/// hash-coverage row below changes exactly one of them.
struct IRSpec {
  double Const = 2.0;
  std::string Var = "t";
  int LocalSize = 4;
  bool FieldMutable = false;
  bool FieldArray = false;
  double FieldInit = 0.5;
  bool HasInitWork = false;
  int Peek = 3, Pop = 1, Push = 1;
  int LoopBegin = 0, LoopEnd = 2;
  bool SwapIfArms = false;
  bool Uncounted = false;
  std::string FilterName = "f";
  std::string PipelineName = "p";
};

StreamPtr buildIR(const IRSpec &S) {
  StmtList Then = stmts(push(vr(S.Var)));
  StmtList Else = stmts(push(neg(vr(S.Var))));
  if (S.SwapIfArms)
    std::swap(Then, Else);
  StmtPtr Tail = popStmt();
  if (S.Uncounted)
    Tail = uncounted(stmts(std::move(Tail)));
  wir::WorkFunction W(
      S.Peek, S.Pop, S.Push,
      stmts(localArray("a", S.LocalSize), arrAssign("a", cst(0), peek(0)),
            assign(S.Var, mul(cst(S.Const), arrAt("a", cst(0)))),
            loop("i", cst(S.LoopBegin), cst(S.LoopEnd),
                 stmts(assign(S.Var, add(vr(S.Var), mul(fldAt("h", vr("i")),
                                                        peek(vr("i"))))))),
            ifStmt(gt(vr(S.Var), fld("g")), std::move(Then), std::move(Else)),
            std::move(Tail)));
  std::vector<wir::FieldDef> Fields = {
      wir::FieldDef::constArray("h", {1, 2, 3}),
      {"g", S.FieldArray, S.FieldMutable, {S.FieldInit}}};
  auto F = std::make_unique<Filter>(S.FilterName, std::move(Fields),
                                    std::move(W));
  if (S.HasInitWork)
    F->setInitWork(wir::WorkFunction(1, 1, 0, stmts(popStmt())));
  auto P = std::make_unique<Pipeline>(S.PipelineName);
  P->add(std::move(F));
  return P;
}

TEST(StructuralHash, EveryIREditChangesTheHashAndNoRenameDoes) {
  struct Row {
    const char *What;
    void (*Edit)(IRSpec &);
    bool Changes;
  };
  const Row Rows[] = {
      {"ConstExpr value", [](IRSpec &S) { S.Const = 3.0; }, true},
      {"variable name", [](IRSpec &S) { S.Var = "u"; }, true},
      {"local-array size", [](IRSpec &S) { S.LocalSize = 5; }, true},
      {"field IsMutable", [](IRSpec &S) { S.FieldMutable = true; }, true},
      {"field IsArray", [](IRSpec &S) { S.FieldArray = true; }, true},
      {"field Init", [](IRSpec &S) { S.FieldInit = 0.25; }, true},
      {"init work added", [](IRSpec &S) { S.HasInitWork = true; }, true},
      {"peek rate", [](IRSpec &S) { S.Peek = 4; }, true},
      {"pop rate", [](IRSpec &S) { S.Pop = 2; }, true},
      {"push rate", [](IRSpec &S) { S.Push = 2; }, true},
      {"For begin", [](IRSpec &S) { S.LoopBegin = 1; }, true},
      {"For end", [](IRSpec &S) { S.LoopEnd = 3; }, true},
      {"If arms swapped", [](IRSpec &S) { S.SwapIfArms = true; }, true},
      {"Uncounted wrapper", [](IRSpec &S) { S.Uncounted = true; }, true},
      {"filter renamed", [](IRSpec &S) { S.FilterName = "g"; }, false},
      {"container renamed", [](IRSpec &S) { S.PipelineName = "q"; }, false},
  };
  const HashDigest Base = structuralHash(*buildIR(IRSpec()));
  for (const Row &R : Rows) {
    IRSpec S;
    R.Edit(S);
    HashDigest H = structuralHash(*buildIR(S));
    EXPECT_EQ(H != Base, R.Changes) << R.What;
  }
}

//===----------------------------------------------------------------------===//
// AnalysisManager
//===----------------------------------------------------------------------===//

TEST(AnalysisManager, HashConsesExtractionAcrossIdenticalFilters) {
  AnalysisManager AM;
  StreamPtr A = firPipeline({1, 2, 3, 4, 5, 6, 7, 8}, "a");
  StreamPtr B = firPipeline({1, 2, 3, 4, 5, 6, 7, 8}, "b");

  LinearAnalysis::Options LO;
  LO.AM = &AM;
  LinearAnalysis LA1(*A, LO);
  auto AfterFirst = AM.stats();
  EXPECT_GT(AfterFirst.ExtractionMisses, 0u);

  LinearAnalysis LA2(*B, LO);
  auto AfterSecond = AM.stats();
  // Every filter of the structurally identical graph hits the cache.
  EXPECT_EQ(AfterSecond.ExtractionMisses, AfterFirst.ExtractionMisses);
  EXPECT_GE(AfterSecond.ExtractionHits,
            AfterFirst.ExtractionHits + 3); // source, FIR, sink

  // The two analyses share one hash-consed node (not just equal values).
  const Filter *FirA = cast<Filter>(cast<Pipeline>(A.get())->children()[1].get());
  const Filter *FirB = cast<Filter>(cast<Pipeline>(B.get())->children()[1].get());
  EXPECT_EQ(LA1.nodeFor(*FirA), LA2.nodeFor(*FirB));
}

TEST(AnalysisManager, RewriteChangesKeySoNoStaleReuse) {
  AnalysisManager AM;
  LinearAnalysis::Options LO;
  LO.AM = &AM;

  StreamPtr A = firPipeline({1, 2, 3, 4}, "p");
  LinearAnalysis LA1(*A, LO);
  auto Before = AM.stats();

  // "Rewrite": same shape, one coefficient changed. The structural hash
  // differs, so extraction re-runs instead of serving the stale node.
  StreamPtr B = firPipeline({1, 2, 3, 9}, "p");
  EXPECT_NE(structuralHash(*A), structuralHash(*B));
  LinearAnalysis LA2(*B, LO);
  auto After = AM.stats();
  EXPECT_GT(After.ExtractionMisses, Before.ExtractionMisses);

  const Filter *FirA = cast<Filter>(cast<Pipeline>(A.get())->children()[1].get());
  const Filter *FirB = cast<Filter>(cast<Pipeline>(B.get())->children()[1].get());
  ASSERT_NE(LA2.nodeFor(*FirB), nullptr);
  EXPECT_NE(LA1.nodeFor(*FirA)->coeff(3, 0), LA2.nodeFor(*FirB)->coeff(3, 0));
}

TEST(AnalysisManager, InvalidateDropsEntries) {
  AnalysisManager AM;
  LinearAnalysis::Options LO;
  LO.AM = &AM;
  StreamPtr A = firPipeline({1, 2, 3, 4}, "p");
  LinearAnalysis LA1(*A, LO);
  auto Before = AM.stats();
  AM.invalidate();
  LinearAnalysis LA2(*A, LO);
  auto After = AM.stats();
  // Everything recomputes after invalidation...
  EXPECT_GT(After.ExtractionMisses, Before.ExtractionMisses);
  // ...and nodes handed out earlier stay alive and correct (shared_ptr
  // ownership survives the cache flush).
  const Filter *Fir = cast<Filter>(cast<Pipeline>(A.get())->children()[1].get());
  ASSERT_NE(LA1.nodeFor(*Fir), nullptr);
  EXPECT_EQ(LA1.nodeFor(*Fir)->coeff(0, 0), 1.0);
}

TEST(AnalysisManager, CombinationResultsAreMemoized) {
  AnalysisManager AM;
  LinearAnalysis::Options LO;
  LO.AM = &AM;
  // Two structurally identical two-stage linear pipelines: the second
  // pipeline's combination is a cache hit.
  auto Make = [] {
    auto P = std::make_unique<Pipeline>("lin");
    P->add(makeFIR({1, 2, 3}));
    P->add(makeGain(0.5));
    return P;
  };
  StreamPtr A = Make();
  StreamPtr B = Make();
  LinearAnalysis LA1(*A, LO);
  auto AfterFirst = AM.stats();
  EXPECT_EQ(AfterFirst.CombineMisses, 1u);
  LinearAnalysis LA2(*B, LO);
  auto AfterSecond = AM.stats();
  EXPECT_EQ(AfterSecond.CombineMisses, 1u);
  EXPECT_EQ(AfterSecond.CombineHits, AfterFirst.CombineHits + 1);
  EXPECT_EQ(LA1.nodeFor(*A), LA2.nodeFor(*B)); // shared combined node
}

/// AutoSel must produce identical results with the cache on and off —
/// the cached values are pure-function results, so this is a strict
/// differential test of the whole DP through the cache layer.
TEST(AnalysisManager, AutoSelBitIdenticalWithCacheOnAndOff) {
  for (const char *Name : {"FilterBank", "TargetDetect", "RateConvert"}) {
    StreamPtr Root;
    for (const apps::BenchmarkEntry &B : apps::allBenchmarks())
      if (B.Name == Name)
        Root = B.Build();
    ASSERT_NE(Root, nullptr) << Name;

    AnalysisManager Cached;
    AnalysisManager Uncached;
    Uncached.setEnabled(false);

    PipelineOptions OC;
    OC.Mode = OptMode::AutoSel;
    OC.AM = &Cached;
    PipelineOptions OU = OC;
    OU.AM = &Uncached;

    StreamPtr WithCache = compileStream(*Root, OC).Optimized;
    StreamPtr WithoutCache = compileStream(*Root, OU).Optimized;

    // Same selected configuration...
    EXPECT_EQ(structuralHash(*WithCache), structuralHash(*WithoutCache))
        << Name;
    EXPECT_EQ(printGraph(*WithCache), printGraph(*WithoutCache)) << Name;
    // ...and bit-identical outputs on both engines.
    EXPECT_EQ(collectOutputs(*WithCache, 32, Engine::Dynamic),
              collectOutputs(*WithoutCache, 32, Engine::Dynamic))
        << Name;
    EXPECT_EQ(collectOutputs(*WithCache, 32, Engine::Compiled),
              collectOutputs(*WithoutCache, 32, Engine::Compiled))
        << Name;
    EXPECT_GT(Cached.stats().ExtractionHits + Cached.stats().CombineHits, 0u)
        << Name;
  }
}

//===----------------------------------------------------------------------===//
// CompiledProgram artifacts and the ProgramCache
//===----------------------------------------------------------------------===//

TEST(CompiledProgram, OneArtifactManyIndependentInstances) {
  StreamPtr Root = firPipeline({1.5, -2.25, 3.0, 0.5}, "p");
  auto Program = std::make_shared<const CompiledProgram>(*Root,
                                                         CompiledOptions());
  CompiledExecutor E1(Program);
  CompiledExecutor E2(Program);
  E1.tryRun(64).orDie();
  E2.tryRun(64).orDie(); // fresh state: same prefix, not a continuation
  EXPECT_EQ(E1.printed(), E2.printed());
  // And both match the dynamic reference engine bit for bit.
  EXPECT_EQ(E1.printed(), collectOutputs(*Root, 64, Engine::Dynamic));
}

TEST(ProgramCache, CompilingTwiceHitsTheCache) {
  ProgramCache::global().clear();
  StreamPtr Root = apps::buildFilterBank();

  PipelineOptions O;
  O.Mode = OptMode::Linear;
  O.Exec.Eng = Engine::Compiled;

  CompileResult First = compileStream(*Root, O);
  ASSERT_NE(First.Program, nullptr);
  EXPECT_FALSE(First.ProgramCacheHit);

  // A fresh optimize() of the same configuration produces a structurally
  // identical stream — the lowering must be a cache hit sharing the same
  // artifact object.
  CompileResult Second = compileStream(*Root, O);
  EXPECT_TRUE(Second.ProgramCacheHit);
  EXPECT_EQ(First.Program.get(), Second.Program.get());

  // Different engine options are a different artifact.
  PipelineOptions O2 = O;
  O2.Exec.Compiled.BatchIterations = 4;
  CompileResult Third = compileStream(*Root, O2);
  EXPECT_FALSE(Third.ProgramCacheHit);
  EXPECT_NE(First.Program.get(), Third.Program.get());
  EXPECT_EQ(Third.Program->schedule().BatchIterations, 4);
}

TEST(ProgramCache, RepeatedMeasurementsShareOneCompile) {
  ProgramCache::global().clear();
  auto SBefore = ProgramCache::global().stats();
  StreamPtr Root = firPipeline({1, 2, 3, 4, 5, 6, 7, 8}, "p");
  MeasureOptions MO;
  MO.WarmupOutputs = 32;
  MO.MeasureOutputs = 128;
  MO.Exec.Eng = Engine::Compiled;
  // Each measurement's counting and timing runs share one artifact
  // fetch; a repeated measurement of the structurally identical graph
  // (even a fresh clone) recompiles nothing.
  measureSteadyState(*Root, MO);
  StreamPtr Clone = Root->clone();
  measureSteadyState(*Clone, MO);
  auto S = ProgramCache::global().stats();
  EXPECT_EQ(S.Misses, SBefore.Misses + 1);
  EXPECT_GE(S.Hits, SBefore.Hits + 1);
}

//===----------------------------------------------------------------------===//
// Pass manager diagnostics
//===----------------------------------------------------------------------===//

TEST(CompilerPipeline, RecordsPassTimings) {
  StreamPtr Root = apps::buildFIR(64);
  PipelineOptions O;
  O.Mode = OptMode::Linear;
  O.Exec.Eng = Engine::Compiled;
  O.UseProgramCache = false;
  O.VerifyAfterEachPass = false; // keep the pass list env-independent
  CompileResult R = compileStream(*Root, O);
  std::vector<std::string> Names;
  for (const PassInfo &P : R.Passes)
    Names.push_back(P.Name);
  EXPECT_EQ(Names,
            (std::vector<std::string>{"linear-analysis", "linear-replacement",
                                      "linear-const-fold", "dead-channel-elim",
                                      "flatten", "schedule", "tape-compile"}));
  EXPECT_FALSE(R.timingReport().empty());
  EXPECT_GT(R.totalSeconds(), 0.0);
}

TEST(CompilerPipeline, VerifierPassesAreRecordedWhenEnabled) {
  StreamPtr Root = apps::buildFIR(64);
  PipelineOptions O;
  O.Mode = OptMode::Linear;
  O.Exec.Eng = Engine::Compiled;
  O.UseProgramCache = false;
  O.VerifyAfterEachPass = true;
  CompileResult R = compileStream(*Root, O);
  bool SawRates = false, SawSchedule = false;
  for (const PassInfo &P : R.Passes) {
    SawRates = SawRates || P.Name == "verify-rates";
    SawSchedule = SawSchedule || P.Name == "verify-schedule";
  }
  EXPECT_TRUE(SawRates);
  EXPECT_TRUE(SawSchedule);
}

TEST(CompilerPipeline, DumpAfterPassWritesDotAndJson) {
  namespace fs = std::filesystem;
  fs::path Dir = fs::temp_directory_path() / "slin_dump_test";
  fs::remove_all(Dir);

  StreamPtr Root = apps::buildFIR(32);
  PipelineOptions O;
  O.Mode = OptMode::Linear;
  O.DumpDir = Dir.string();
  compileStream(*Root, O);

  bool SawDot = false, SawJson = false;
  for (const auto &Entry : fs::directory_iterator(Dir)) {
    if (Entry.path().extension() == ".dot")
      SawDot = Entry.file_size() > 0;
    if (Entry.path().extension() == ".json")
      SawJson = Entry.file_size() > 0;
  }
  EXPECT_TRUE(SawDot);
  EXPECT_TRUE(SawJson);
  fs::remove_all(Dir);
}

} // namespace
