//===- tests/cleanup_test.cpp - Cleanup & verification pass tests ----------==//
//
// LinearConstFold: bit-identical outputs AND FLOP counts vs the unfolded
// pipeline on the fig 5-1 benchmarks, with measurably smaller schedules.
// DeadChannelElim: dead splitjoin branches disappear (or reduce to
// discard sinks) without observable change. VerifyRates: deliberately
// corrupted graphs and schedules are caught with a diagnostic. Artifact
// round-trip: folded programs persist and reload bit-identically.
//
//===----------------------------------------------------------------------===//

#include "apps/Benchmarks.h"
#include "compiler/AnalysisManager.h"
#include "compiler/ArtifactStore.h"
#include "compiler/Pipeline.h"
#include "exec/CompiledExecutor.h"
#include "exec/Measure.h"
#include "opt/Cleanup.h"
#include "sched/Schedule.h"
#include "verify/Lint.h"
#include "wir/Build.h"

#include "TestGraphs.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <numeric>
#include <tuple>
#include <unistd.h>

using namespace slin;
using namespace slin::testing_helpers;

namespace {

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

PipelineOptions cleanupOn(OptMode M) {
  PipelineOptions O;
  O.Mode = M;
  O.VerifyAfterEachPass = true; // every test compile self-checks
  return O;
}

PipelineOptions cleanupOff(OptMode M) {
  PipelineOptions O = cleanupOn(M);
  O.ConstFold = false;
  O.DeadChannelElim = false;
  return O;
}

/// Total steady-state buffer capacity of \p S's compiled schedule.
int64_t bufferTotal(const Stream &S) {
  flat::FlatGraph G(S);
  StaticSchedule Sched = computeSchedule(G, 16);
  return std::accumulate(Sched.ChannelBufSize.begin(),
                         Sched.ChannelBufSize.end(), int64_t{0});
}

Measurement measureFlops(const Stream &Root, Engine Eng) {
  MeasureOptions MO;
  MO.WarmupOutputs = 64;
  MO.MeasureOutputs = 256;
  MO.MeasureTime = false;
  MO.Exec.Eng = Eng;
  return measureSteadyState(Root, MO);
}

const PassInfo *findPass(const CompileResult &R, const std::string &Name) {
  for (const PassInfo &P : R.Passes)
    if (P.Name == Name)
      return &P;
  return nullptr;
}

/// Filter with a peek window deeper than its pops and an all-zero
/// coefficient matrix: pushes a constant, consumes one item, inspects
/// three. LinearConstFold must rebuild it as a peek-free-beyond-pops
/// constant emitter.
std::unique_ptr<Filter> makeZeroMatrixFilter() {
  using namespace wir;
  using namespace wir::build;
  WorkFunction W(3, 1, 1, stmts(push(cst(3.25)), popStmt()));
  return std::make_unique<Filter>("ZeroMatrix", std::vector<FieldDef>{},
                                  std::move(W));
}

/// Sink that consumes one item per firing without printing — an
/// unobservable branch tail for the dead-channel tests.
std::unique_ptr<Filter> makeSilentSink() {
  using namespace wir;
  using namespace wir::build;
  WorkFunction W(1, 1, 0, stmts(popStmt()));
  return std::make_unique<Filter>("SilentSink", std::vector<FieldDef>{},
                                  std::move(W));
}

/// source -> SJ{Gain branch (kept), FIR->sink branch (dead)} -> printer.
StreamPtr deadBranchGraph(Splitter Split, bool PrintingTail) {
  auto Root = std::make_unique<Pipeline>("deadbranch");
  Root->add(makeCountingSource());
  auto SJ = std::make_unique<SplitJoin>("sj", std::move(Split),
                                        Joiner::roundRobin({1, 0}));
  SJ->add(makeGain(2.0));
  auto Dead = std::make_unique<Pipeline>("deadpipe");
  Dead->add(makeFIR({1, 2, 3, 4, 5, 6, 7, 8}, "DeadFir"));
  if (PrintingTail)
    Dead->add(makePrinterSink());
  else
    Dead->add(makeSilentSink());
  SJ->add(std::move(Dead));
  Root->add(std::move(SJ));
  Root->add(makePrinterSink());
  return Root;
}

} // namespace

//===----------------------------------------------------------------------===//
// LinearConstFold
//===----------------------------------------------------------------------===//

// The fold must be invisible in both output values and FLOP counts: the
// rebuilt filters are the same generated code with a smaller declared
// peek window.
TEST(ConstFold, BitIdenticalOutputsAndFlopsOnFig51Benchmarks) {
  for (const char *Name : {"RateConvert", "FilterBank", "Vocoder"}) {
    for (OptMode Mode : {OptMode::Linear, OptMode::AutoSel}) {
      StreamPtr Root;
      for (const auto &B : apps::allBenchmarks())
        if (B.Name == Name)
          Root = B.Build();
      ASSERT_NE(Root, nullptr) << Name;

      CompileResult On = compileStream(*Root, cleanupOn(Mode));
      CompileResult Off = compileStream(*Root, cleanupOff(Mode));
      for (Engine Eng : {Engine::Dynamic, Engine::Compiled}) {
        EXPECT_EQ(collectOutputs(*On.Optimized, 384, Eng),
                  collectOutputs(*Off.Optimized, 384, Eng))
            << Name << " " << optModeName(Mode) << " on "
            << engineName(Eng);
        Measurement MOn = measureFlops(*On.Optimized, Eng);
        Measurement MOff = measureFlops(*Off.Optimized, Eng);
        EXPECT_EQ(MOn.Ops.flops(), MOff.Ops.flops())
            << Name << " " << optModeName(Mode) << " on "
            << engineName(Eng);
        EXPECT_EQ(MOn.Outputs, MOff.Outputs);
      }
    }
  }
}

// Combined decimating sections (Compressor tails) leave their deepest
// peek positions with all-zero coefficients; trimming them must shrink
// the compiled buffers of at least one paper benchmark.
TEST(ConstFold, ShrinksBuffersOnAtLeastOneFig51Benchmark) {
  int Shrunk = 0;
  for (const auto &B : apps::allBenchmarks()) {
    StreamPtr Root = B.Build();
    CompileResult On = compileStream(*Root, cleanupOn(OptMode::Linear));
    CompileResult Off = compileStream(*Root, cleanupOff(OptMode::Linear));
    int64_t BufOn = bufferTotal(*On.Optimized);
    int64_t BufOff = bufferTotal(*Off.Optimized);
    EXPECT_LE(BufOn, BufOff) << B.Name << ": cleanup grew the buffers";
    if (BufOn < BufOff)
      ++Shrunk;
  }
  EXPECT_GE(Shrunk, 1)
      << "const folding trimmed no fig 5-1 benchmark's buffers";
}

TEST(ConstFold, VocoderTrimIsReportedInPassNotes) {
  StreamPtr Root = apps::buildVocoder();
  CompileResult R = compileStream(*Root, cleanupOn(OptMode::Linear));
  const PassInfo *P = findPass(R, "linear-const-fold");
  ASSERT_NE(P, nullptr);
  EXPECT_NE(P->Note.find("trimmed"), std::string::npos) << P->Note;
}

// An all-zero coefficient matrix folds to a constant emitter whose peek
// window is its pop count; values, FLOPs and the shrunken window are all
// checked.
TEST(ConstFold, ZeroMatrixBecomesConstEmitter) {
  auto Build = [] {
    auto Root = std::make_unique<Pipeline>("zm");
    Root->add(makeCountingSource());
    Root->add(makeZeroMatrixFilter());
    Root->add(makePrinterSink());
    return Root;
  };
  StreamPtr Root = Build();
  CompileResult On = compileStream(*Root, cleanupOn(OptMode::Linear));
  CompileResult Off = compileStream(*Root, cleanupOff(OptMode::Linear));
  const PassInfo *P = findPass(On, "linear-const-fold");
  ASSERT_NE(P, nullptr);
  EXPECT_NE(P->Note.find("const emitter"), std::string::npos) << P->Note;
  EXPECT_EQ(collectOutputs(*On.Optimized, 64),
            collectOutputs(*Off.Optimized, 64));
  EXPECT_LT(bufferTotal(*On.Optimized), bufferTotal(*Off.Optimized));
}

// Hand-written filters — even linear ones with dead peek rows — are not
// code-generator output and must never be rebuilt (their arithmetic
// order is not ours to preserve). A loop-coded FIR whose two deepest
// taps are zero is trimmable by its matrix but fails the
// codegen-identity gate.
TEST(ConstFold, HandWrittenFiltersAreLeftAlone) {
  auto Root = std::make_unique<Pipeline>("hand");
  Root->add(makeCountingSource());
  Root->add(makeFIR({1.0, 2.0, 0.0, 0.0}, "DeadTapFir"));
  Root->add(makePrinterSink());
  CleanupStats Stats;
  AnalysisManager AM;
  StreamPtr Out =
      constFoldLinear(*Root, AM, LinearCodeGenStyle::Auto, Stats);
  EXPECT_EQ(Out, nullptr);
  EXPECT_FALSE(Stats.any());
}

//===----------------------------------------------------------------------===//
// DeadChannelElim
//===----------------------------------------------------------------------===//

// A duplicate-splitter branch the joiner never reads is deleted, and the
// two-branch splitjoin collapses onto the surviving branch.
TEST(DeadChannel, DuplicateBranchIsRemovedAndSplitJoinCollapses) {
  StreamPtr Root = deadBranchGraph(Splitter::duplicate(), false);
  CleanupStats Stats;
  StreamPtr Out = eliminateDeadChannels(*Root, Stats);
  ASSERT_NE(Out, nullptr);
  EXPECT_EQ(Stats.RemovedBranches, 1);
  EXPECT_EQ(Stats.CollapsedSplitJoins, 1);
  GraphCounts Before = countStreams(*Root), After = countStreams(*Out);
  EXPECT_EQ(After.SplitJoins, Before.SplitJoins - 1);
  EXPECT_LT(After.Filters, Before.Filters);
  EXPECT_EQ(collectOutputs(*Out, 64), collectOutputs(*Root, 64));
}

// A roundrobin branch still owed items keeps a minimal discard sink in
// place of its whole subtree; outputs are unchanged and the dead FIR's
// FLOPs disappear.
TEST(DeadChannel, RoundRobinBranchReducesToDiscardSink) {
  StreamPtr Root = deadBranchGraph(Splitter::roundRobin({1, 1}), false);
  CompileResult On = compileStream(*Root, cleanupOn(OptMode::Linear));
  CompileResult Off = compileStream(*Root, cleanupOff(OptMode::Linear));
  const PassInfo *P = findPass(On, "dead-channel-elim");
  ASSERT_NE(P, nullptr);
  EXPECT_NE(P->Note.find("discard sink"), std::string::npos) << P->Note;
  for (Engine Eng : {Engine::Dynamic, Engine::Compiled}) {
    EXPECT_EQ(collectOutputs(*On.Optimized, 128, Eng),
              collectOutputs(*Off.Optimized, 128, Eng));
    EXPECT_LT(measureFlops(*On.Optimized, Eng).Ops.flops(),
              measureFlops(*Off.Optimized, Eng).Ops.flops());
  }
  // Idempotent: a second pass finds nothing left to remove.
  CleanupStats Stats;
  EXPECT_EQ(eliminateDeadChannels(*On.Optimized, Stats), nullptr);
}

// A branch that prints is observable no matter what the joiner ignores.
TEST(DeadChannel, PrintingBranchSurvives) {
  StreamPtr Root = deadBranchGraph(Splitter::duplicate(), true);
  CleanupStats Stats;
  EXPECT_EQ(eliminateDeadChannels(*Root, Stats), nullptr);
  EXPECT_FALSE(Stats.any());
}

TEST(DeadChannel, LiveBranchesAreUntouchedAcrossBenchmarks) {
  // None of the paper's nine programs contains a dead branch; the pass
  // must report "no change" on all of them.
  for (const auto &B : apps::allBenchmarks()) {
    StreamPtr Root = B.Build();
    CleanupStats Stats;
    EXPECT_EQ(eliminateDeadChannels(*Root, Stats), nullptr) << B.Name;
  }
}

//===----------------------------------------------------------------------===//
// VerifyRates: stream hierarchy
//===----------------------------------------------------------------------===//

TEST(VerifyRates, AcceptsEveryBenchmark) {
  for (const auto &B : apps::allBenchmarks()) {
    StreamPtr Root = B.Build();
    EXPECT_EQ(verifyStreamRates(*Root), "") << B.Name;
  }
}

TEST(VerifyRates, CatchesJoinerWeightCountMismatch) {
  auto Root = std::make_unique<Pipeline>("bad");
  Root->add(makeCountingSource());
  auto SJ = std::make_unique<SplitJoin>("sj", Splitter::duplicate(),
                                        Joiner::roundRobin({1, 1, 1}));
  SJ->add(makeGain(1.0));
  SJ->add(makeGain(2.0));
  Root->add(std::move(SJ));
  Root->add(makePrinterSink());
  std::string Err = verifyStreamRates(*Root);
  EXPECT_NE(Err.find("joiner weight count mismatch"), std::string::npos)
      << Err;
}

TEST(VerifyRates, CatchesMismatchedDuplicateConsumption) {
  auto Root = std::make_unique<Pipeline>("bad");
  Root->add(makeCountingSource());
  auto SJ = std::make_unique<SplitJoin>("sj", Splitter::duplicate(),
                                        Joiner::roundRobin({1, 1}));
  SJ->add(makeGain(1.0));      // pop 1 push 1
  SJ->add(makeCompressor(2));  // pop 2 push 1
  Root->add(std::move(SJ));
  Root->add(makePrinterSink());
  std::string Err = verifyStreamRates(*Root);
  EXPECT_NE(Err.find("consume mismatched amounts"), std::string::npos)
      << Err;
}

TEST(VerifyRates, CatchesPeekBelowPop) {
  using namespace wir;
  using namespace wir::build;
  auto Root = std::make_unique<Pipeline>("bad");
  Root->add(makeCountingSource());
  WorkFunction W(1, 2, 1, stmts(push(pop()), popStmt()));
  Root->add(std::make_unique<Filter>("BadRates", std::vector<FieldDef>{},
                                     std::move(W)));
  Root->add(makePrinterSink());
  std::string Err = verifyStreamRates(*Root);
  EXPECT_NE(Err.find("peek rate below pop rate"), std::string::npos) << Err;
}

TEST(VerifyRates, CatchesMidPipelineSink) {
  auto Root = std::make_unique<Pipeline>("bad");
  Root->add(makeCountingSource());
  Root->add(makePrinterSink()); // pushes nothing but is not last
  Root->add(makeGain(1.0));
  std::string Err = verifyStreamRates(*Root);
  EXPECT_NE(Err.find("pushes nothing but is not last"), std::string::npos)
      << Err;
}

//===----------------------------------------------------------------------===//
// VerifyRates: lowered schedule
//===----------------------------------------------------------------------===//

/// One fig 5-1 app, compiled at one batch size.
using AppAndBatch = std::tuple<std::string, int>;

class VerifySchedule : public ::testing::TestWithParam<AppAndBatch> {
protected:
  void SetUp() override {
    Program = compiled(std::get<0>(GetParam()), std::get<1>(GetParam()));
    ASSERT_NE(Program, nullptr);
  }

  /// Compiles each (app, B) once for the whole suite.
  static CompiledProgramRef compiled(const std::string &App, int B) {
    static std::map<AppAndBatch, CompiledProgramRef> Programs;
    CompiledProgramRef &P = Programs[{App, B}];
    for (const apps::BenchmarkEntry &E : apps::allBenchmarks())
      if (!P && E.Name == App) {
        StreamPtr Root = E.Build();
        PipelineOptions O;
        O.Mode = OptMode::Linear;
        O.Exec.Eng = Engine::Compiled;
        O.Exec.Compiled.BatchIterations = B;
        O.UseProgramCache = false;
        P = compileStream(*Root, O).Program;
      }
    return P;
  }

  bool isInternal(size_t C) const {
    return static_cast<int>(C) != Program->graph().ExternalIn &&
           static_cast<int>(C) != Program->graph().ExternalOut;
  }

  /// The program reassembled with schedule \p S through
  /// CompiledProgram::Parts, as the artifact loader would.
  CompiledProgramRef withSchedule(StaticSchedule S) const {
    CompiledProgram::Parts Parts;
    Parts.Opts = Program->options();
    Parts.Root = Program->root().clone();
    Parts.Graph = flat::FlatGraph(*Parts.Root);
    Parts.Sched = std::move(S);
    for (size_t I = 0; I != Parts.Graph.Nodes.size(); ++I)
      Parts.Artifacts.push_back(Program->filterArtifact(I));
    Parts.Shard = Program->shardInfo();
    return std::make_shared<const CompiledProgram>(std::move(Parts));
  }

  static size_t boundsErrors(const CompiledProgram &P) {
    verify::LintReport R;
    verify::verifyBounds(P, R);
    return R.errorCount();
  }

  CompiledProgramRef Program;
};

static std::vector<std::string> benchmarkNames() {
  std::vector<std::string> Names;
  for (const apps::BenchmarkEntry &E : apps::allBenchmarks())
    Names.push_back(E.Name);
  return Names;
}

INSTANTIATE_TEST_SUITE_P(
    Apps, VerifySchedule,
    ::testing::Combine(::testing::ValuesIn(benchmarkNames()),
                       ::testing::Values(1, 16)),
    [](const ::testing::TestParamInfo<AppAndBatch> &Info) {
      return std::get<0>(Info.param) + "_B" +
             std::to_string(std::get<1>(Info.param));
    });

TEST_P(VerifySchedule, AcceptsTheRealSchedule) {
  EXPECT_EQ(verifySchedule(Program->graph(), Program->schedule()), "");
  EXPECT_EQ(boundsErrors(*withSchedule(Program->schedule())), 0u);
}

TEST_P(VerifySchedule, CatchesTamperedRepetitions) {
  StaticSchedule S = Program->schedule();
  S.Repetitions.front() += 1;
  EXPECT_NE(verifySchedule(Program->graph(), S), "");
}

TEST_P(VerifySchedule, CatchesTamperedInitFirings) {
  StaticSchedule S = Program->schedule();
  S.InitFirings.back() += 1;
  EXPECT_NE(verifySchedule(Program->graph(), S), "");
}

TEST_P(VerifySchedule, CatchesTamperedFiringProgram) {
  StaticSchedule S = Program->schedule();
  ASSERT_FALSE(S.SteadyProgram.empty());
  S.SteadyProgram.front().Count += 1;
  EXPECT_NE(verifySchedule(Program->graph(), S), "");
}

TEST_P(VerifySchedule, CatchesTamperedHighWaterMark) {
  StaticSchedule S = Program->schedule();
  for (size_t C = 0; C != S.ChannelHighWater.size(); ++C)
    if (isInternal(C) && S.ChannelHighWater[C] > 0) {
      S.ChannelHighWater[C] -= 1;
      break;
    }
  EXPECT_NE(verifySchedule(Program->graph(), S), "");
  // verify-bounds replays the same programs with the tape-derived rates
  // and must see the tampered mark too.
  EXPECT_GT(boundsErrors(*withSchedule(S)), 0u);
}

TEST_P(VerifySchedule, CatchesTamperedBufferCapacity) {
  StaticSchedule S = Program->schedule();
  for (size_t C = 0; C != S.ChannelBufSize.size(); ++C) {
    if (isInternal(C) && S.ChannelBufSize[C] > 0) {
      S.ChannelBufSize[C] -= 1;
      break;
    }
  }
  EXPECT_NE(verifySchedule(Program->graph(), S), "");
  EXPECT_GT(boundsErrors(*withSchedule(S)), 0u);
}

TEST_P(VerifySchedule, CatchesTamperedPostInitLive) {
  StaticSchedule S = Program->schedule();
  for (size_t C = 0; C != S.PostInitLive.size(); ++C) {
    if (isInternal(C)) {
      S.PostInitLive[C] += 1;
      break;
    }
  }
  EXPECT_NE(verifySchedule(Program->graph(), S), "");
}

//===----------------------------------------------------------------------===//
// Artifact round-trip of a folded program
//===----------------------------------------------------------------------===//

// A program whose stream was const-folded must persist and reload with
// bit-identical behaviour and zero compiler passes (the alias fast
// path), proving the folded structure participates in option hashing
// and artifact keys.
TEST(FoldedArtifact, RoundTripsThroughTheStore) {
  namespace fs = std::filesystem;
  std::string Dir =
      (fs::temp_directory_path() /
       ("slin-cleanup-test-" + std::to_string(::getpid())))
          .string();
  ArtifactStore::setGlobalDir(Dir);
  ProgramCache::global().clear();

  PipelineOptions O;
  O.Mode = OptMode::Linear;
  O.Exec.Eng = Engine::Compiled;
  O.VerifyAfterEachPass = true;

  StreamPtr Root = apps::buildVocoder();
  CompileResult Cold = slin::compileStream(*Root, O);
  ASSERT_NE(Cold.Program, nullptr);
  const PassInfo *Fold = findPass(Cold, "linear-const-fold");
  ASSERT_NE(Fold, nullptr);
  EXPECT_NE(Fold->Note, "no change");

  ProgramCache::global().clear(); // drop memory tier; keep the disk tier
  CompileResult Warm = slin::compileStream(*Root, O);
  ASSERT_NE(Warm.Program, nullptr);
  EXPECT_TRUE(Warm.Program->loadedFromArtifact());
  EXPECT_EQ(Warm.Passes.size(), 1u) << Warm.timingReport();
  EXPECT_EQ(verifySchedule(Warm.Program->graph(),
                           Warm.Program->schedule()),
            "");

  auto RunProgram = [](const CompiledProgramRef &P, size_t N) {
    CompiledExecutor E(P);
    E.tryRun(N).orDie();
    std::vector<double> Out =
        E.printed().empty() ? E.outputSnapshot() : E.printed();
    if (Out.size() > N)
      Out.resize(N);
    return Out;
  };
  EXPECT_EQ(RunProgram(Warm.Program, 256), RunProgram(Cold.Program, 256));

  ArtifactStore::setGlobalDir("");
  ProgramCache::global().clear();
  std::error_code EC;
  fs::remove_all(Dir, EC);
}
