//===- tests/compiled_exec_test.cpp - Compiled engine tests ----------------==//
//
// The compiled batched execution engine, bottom up: the static scheduler
// (flat balance equations, init fixpoint, firing programs, high-water
// marks), the work-function op tape (bit-identical values AND identical
// op counts vs the tree interpreter), the batched matrix kernels
// (bit-identical to their sequential forms), and the CompiledExecutor
// driving them (external input handling, init work, feedback loops,
// batch-size invariance).
//
//===----------------------------------------------------------------------===//

#include "apps/Benchmarks.h"
#include "exec/CompiledExecutor.h"
#include "exec/Measure.h"
#include "matrix/Kernels.h"
#include "opt/Frequency.h"
#include "sched/Schedule.h"
#include "TestGraphs.h"

#include <gtest/gtest.h>

#include <random>

using namespace slin;
using namespace slin::testing_helpers;

namespace {

//===----------------------------------------------------------------------===//
// Static schedule
//===----------------------------------------------------------------------===//

TEST(Schedule, PipelineRepetitionsAndInit) {
  Pipeline P("p");
  P.add(makeCountingSource());
  P.add(makeFIR({1, 2, 3})); // peek 3 pop 1: needs 2 items of lookahead
  P.add(makePrinterSink());
  flat::FlatGraph G(P);
  StaticSchedule S = computeSchedule(G, 4);
  ASSERT_EQ(S.Repetitions.size(), 3u);
  EXPECT_EQ(S.Repetitions, (std::vector<int64_t>{1, 1, 1}));
  // Source must prime the FIR's peek - pop = 2 extra items.
  EXPECT_EQ(S.InitFirings, (std::vector<int64_t>{2, 0, 0}));
  // Each batch covers 4 steady states.
  int64_t SourceFirings = 0;
  for (const FiringStep &St : S.BatchProgram)
    if (St.Node == 0)
      SourceFirings += St.Count;
  EXPECT_EQ(SourceFirings, 4);
}

TEST(Schedule, MismatchedRatesSolveMinimally) {
  Pipeline P("p");
  P.add(makeCountingSource());
  P.add(makeExpander(2));
  P.add(makeCompressor(3));
  P.add(makePrinterSink());
  flat::FlatGraph G(P);
  StaticSchedule S = computeSchedule(G, 1);
  // Expander x3, Compressor x2 balances 2*3 == 3*2; source feeds 3,
  // sink drains 2 per steady state.
  EXPECT_EQ(S.Repetitions, (std::vector<int64_t>{3, 3, 2, 2}));
}

TEST(Schedule, ExternalInputAccounting) {
  auto F = makeFIR({1, 2, 3, 4}); // peek 4 pop 1
  flat::FlatGraph G(*F);
  StaticSchedule S = computeSchedule(G, 8);
  EXPECT_EQ(S.SteadyExternalPops, 1);
  EXPECT_EQ(S.SteadyExternalNeed, 1 + 3); // pop + lookahead
  EXPECT_EQ(S.BatchExternalPops, 8);
  EXPECT_EQ(S.BatchExternalNeed, 8 + 3);
  EXPECT_EQ(S.BatchExternalPushes, 8);
}

TEST(Schedule, HighWaterTracksBatch) {
  Pipeline P("p");
  P.add(makeCountingSource());
  P.add(makeGain(2));
  P.add(makePrinterSink());
  flat::FlatGraph G(P);
  StaticSchedule S = computeSchedule(G, 16);
  // The greedy program fires the source 16 times back to back, so the
  // source->gain channel's high-water mark is the full batch.
  bool Any = false;
  for (size_t C = 0; C != G.numChannels(); ++C)
    if (S.ChannelHighWater[C] == 16)
      Any = true;
  EXPECT_TRUE(Any);
}

TEST(Schedule, OnlyWellFormedStepsAreAccepted) {
  const size_t NumNodes = 3;
  EXPECT_TRUE(isWellFormedStep({2, 1}, NumNodes));
  EXPECT_FALSE(isWellFormedStep({0, 0}, NumNodes));  // zero count
  EXPECT_FALSE(isWellFormedStep({0, -4}, NumNodes)); // negative count
  EXPECT_FALSE(isWellFormedStep({3, 1}, NumNodes));  // node out of range
  EXPECT_FALSE(isWellFormedStep({-1, 1}, NumNodes));

  for (const apps::BenchmarkEntry &E : apps::allBenchmarks())
    for (int B : {1, 16}) {
      StreamPtr Root = E.Build();
      flat::FlatGraph G(*Root);
      StaticSchedule S = computeSchedule(G, B);
      for (const FiringProgram *P :
           {&S.InitProgram, &S.BatchProgram, &S.SteadyProgram})
        for (const FiringStep &Step : *P)
          ASSERT_TRUE(isWellFormedStep(Step, G.Nodes.size()))
              << E.Name << " B=" << B << ": node " << Step.Node
              << ", count " << Step.Count;

      // The replay holds stored programs to the same rule.
      for (int64_t Count : {0, -4}) {
        StaticSchedule Bad = S;
        Bad.SteadyProgram.push_back({0, Count});
        EXPECT_NE(verifySchedule(G, Bad).find("malformed step"),
                  std::string::npos)
            << E.Name << " B=" << B;
      }
    }
}

TEST(ScheduleDeath, DeadlockedFeedbackLoopIsFatal) {
  // No enqueued items: the joiner can never fire.
  auto FB = std::make_unique<FeedbackLoop>(
      "fb", Joiner::roundRobin({1, 1}), makeSumDiffFilter(), makeIdentity(),
      Splitter::roundRobin({1, 1}), std::vector<double>{});
  flat::FlatGraph G(*FB);
  EXPECT_DEATH(computeSchedule(G, 4), "cannot schedule");
}

//===----------------------------------------------------------------------===//
// Op tape vs tree interpreter
//===----------------------------------------------------------------------===//

/// Runs one firing of \p F through the interpreter (VectorTape) and the
/// op tape (raw buffers), expecting bit-identical outputs and identical
/// op counts.
void expectTapeMatchesInterp(const Filter &F,
                             const std::vector<double> &Input) {
  ASSERT_FALSE(F.isNative());
  const wir::WorkFunction &W = F.work();

  wir::VectorTape T(Input);
  wir::FieldStore SInterp(F.fields());
  ops::CountingScope Scope;
  ops::reset();
  wir::interpret(W, F.fields(), SInterp, T);
  OpCounts InterpOps = ops::counts();

  wir::OpProgram P = wir::OpProgram::compile(W, F.fields());
  wir::WorkFrame Frame;
  P.prepareFrame(Frame);
  wir::FieldStore STape(F.fields());
  std::vector<double> Out(static_cast<size_t>(std::max(W.PushRate, 1)));
  std::vector<double> Printed;
  ops::reset();
  P.run(Frame, STape, Input.data(), Out.data(), Printed);
  OpCounts TapeOps = ops::counts();

  ASSERT_EQ(T.Output.size(), static_cast<size_t>(W.PushRate));
  for (int J = 0; J != W.PushRate; ++J)
    EXPECT_EQ(T.Output[static_cast<size_t>(J)], Out[static_cast<size_t>(J)])
        << "push " << J;
  EXPECT_EQ(T.Printed, Printed);
  // Mutable fields must evolve identically.
  for (size_t I = 0; I != SInterp.Values.size(); ++I)
    EXPECT_EQ(SInterp.Values[I], STape.Values[I]) << "field " << I;
  // The paper's FLOP taxonomy must be preserved exactly.
  EXPECT_EQ(InterpOps.Adds, TapeOps.Adds);
  EXPECT_EQ(InterpOps.Subs, TapeOps.Subs);
  EXPECT_EQ(InterpOps.Muls, TapeOps.Muls);
  EXPECT_EQ(InterpOps.Divs, TapeOps.Divs);
  EXPECT_EQ(InterpOps.Cmps, TapeOps.Cmps);
  EXPECT_EQ(InterpOps.Trans, TapeOps.Trans);
}

TEST(OpTape, FIRMatchesInterp) {
  auto F = makeFIR({0.5, -1.25, 3.0, 0.0, 2.5});
  expectTapeMatchesInterp(*F, {1.5, -2.25, 3.125, 4.0, 5.5, 6.0});
}

TEST(OpTape, CompressorAndAdderMatchInterp) {
  auto C = makeCompressor(3);
  expectTapeMatchesInterp(*C, {1, 2, 3});
  auto A = makeAdder(4);
  expectTapeMatchesInterp(*A, {0.1, 0.2, 0.3, 0.4});
}

TEST(OpTape, ControlFlowAndIntrinsics) {
  using namespace slin::wir;
  using namespace slin::wir::build;
  // if (peek(0) < peek(1)) push(sin(pop())) else push(-pop());
  // plus a local array round-trip and a logical operator.
  StmtList Body;
  Body.push_back(localArray("buf", 4));
  Body.push_back(arrAssign("buf", cst(2), peek(1)));
  Body.push_back(
      ifStmt(lt(peek(0), peek(1)),
             stmts(push(call(Intrinsic::Sin, pop())),
                   push(arrAt("buf", cst(2)))),
             stmts(push(neg(pop())), push(cst(0)))));
  Body.push_back(assign("flag", bin(BinOp::LAnd, gt(peek(0), cst(-100)),
                                    le(peek(0), cst(100)))));
  Body.push_back(push(vr("flag")));
  Body.push_back(popStmt());
  WorkFunction W(2, 2, 3, std::move(Body));
  Filter F("ctrl", {}, std::move(W));
  expectTapeMatchesInterp(F, {0.25, 0.75});
}

TEST(OpTape, StatefulFieldsMatchInterp) {
  // Counting source: mutable scalar field evolves across the firing.
  auto S = makeCountingSource();
  expectTapeMatchesInterp(*S, {});
}

TEST(OpTape, LogicalResultFeedingAddIsNotMisfused) {
  using namespace slin::wir;
  using namespace slin::wir::build;
  // Regression: (a && b) + v ends the LAnd sequence with a Const landing
  // pad that the AddImm peephole must NOT fuse away (the LAnd's end jump
  // targets the instruction after it).
  StmtList Body;
  Body.push_back(assign("v", peek(2)));
  Body.push_back(push(add(bin(BinOp::LAnd, peek(0), peek(1)), vr("v"))));
  Body.push_back(popStmt());
  WorkFunction W(3, 1, 1, std::move(Body));
  Filter F("landadd", {}, std::move(W));
  expectTapeMatchesInterp(F, {1, 2, 10});  // true path: 1 + 10
  expectTapeMatchesInterp(F, {0, 2, 10});  // false path: 0 + 10
}

TEST(OpTape, LoopExitTargetIsNotMisfused) {
  using namespace slin::wir;
  using namespace slin::wir::build;
  // Regression companion: an accumulation right after a loop exit (a
  // jump target) must not fuse with the loop's last instruction.
  StmtList Body;
  Body.push_back(assign("s", cst(0)));
  Body.push_back(loop("i", cst(0), peek(0),
                      stmts(assign("s", add(vr("s"), peek(vr("i")))))));
  Body.push_back(push(add(vr("s"), cst(100))));
  Body.push_back(popStmt());
  WorkFunction W(4, 1, 1, std::move(Body));
  Filter F("loopadd", {}, std::move(W));
  expectTapeMatchesInterp(F, {3, 5, 7, 9});
}

//===----------------------------------------------------------------------===//
// Batched kernels
//===----------------------------------------------------------------------===//

TEST(BatchedKernels, PackedBatchedBitIdentical) {
  std::mt19937 Rng(7);
  std::uniform_real_distribution<double> D(-2.0, 2.0);
  const int E = 13, U = 5, O = 3, K = 11;
  Matrix C(E, U);
  Vector B(U);
  for (int P = 0; P != E; ++P)
    for (int J = 0; J != U; ++J)
      C.at(P, J) = (P + J) % 4 == 0 ? 0.0 : D(Rng); // some zero bands
  for (int J = 0; J != U; ++J)
    B[J] = J % 2 ? D(Rng) : 0.0;
  PackedLinearKernel Kern(C, B);

  std::vector<double> In(static_cast<size_t>((K - 1) * O + E));
  for (double &V : In)
    V = D(Rng);
  std::vector<double> Seq(static_cast<size_t>(K) * U), Bat(Seq.size());
  for (int I = 0; I != K; ++I)
    Kern.applyBanded(In.data() + static_cast<size_t>(I) * O,
                     Seq.data() + static_cast<size_t>(I) * U);
  Kern.applyBatched(In.data(), Bat.data(), K, O);
  EXPECT_EQ(Seq, Bat);

  // Counted path: batched counts == K x sequential counts.
  ops::CountingScope Scope;
  ops::reset();
  Kern.applyBanded(In.data(), Seq.data());
  OpCounts One = ops::counts();
  ops::reset();
  Kern.applyBatched(In.data(), Bat.data(), K, O);
  OpCounts Batch = ops::counts();
  EXPECT_EQ(Batch.flops(), static_cast<uint64_t>(K) * One.flops());
}

TEST(BatchedKernels, TunedBatchedBitIdentical) {
  std::mt19937 Rng(11);
  std::uniform_real_distribution<double> D(-1.0, 1.0);
  const int E = 10, U = 4, O = 2, K = 9;
  Matrix C(E, U);
  Vector B(U);
  for (int P = 0; P != E; ++P)
    for (int J = 0; J != U; ++J)
      C.at(P, J) = D(Rng);
  for (int J = 0; J != U; ++J)
    B[J] = D(Rng);
  TunedGemv Kern(C, B);

  std::vector<double> In(static_cast<size_t>((K - 1) * O + E));
  for (double &V : In)
    V = D(Rng);
  std::vector<double> Seq(static_cast<size_t>(K) * U), Bat(Seq.size());
  for (int I = 0; I != K; ++I)
    Kern.apply(In.data() + static_cast<size_t>(I) * O,
               Seq.data() + static_cast<size_t>(I) * U);
  Kern.applyBatched(In.data(), Bat.data(), K, O);
  EXPECT_EQ(Seq, Bat);
}

/// The frequency filter (Transformations 5 and 6): fireBatch over flat
/// memory must match K tape firings bit for bit, and count K times one
/// firing's ops.
TEST(BatchedKernels, FreqBatchedBitIdentical) {
  std::mt19937 Rng(17);
  std::uniform_real_distribution<double> D(-1.0, 1.0);
  const int K = 5;
  for (bool Optimized : {true, false})
    for (int E : {1, 9})
      for (int U : {1, 3}) {
        SCOPED_TRACE(::testing::Message()
                     << (Optimized ? "optimized" : "naive") << " E=" << E
                     << " U=" << U);
        Matrix A(static_cast<size_t>(E), static_cast<size_t>(U));
        Vector B(static_cast<size_t>(U));
        for (int P = 0; P != E; ++P)
          for (int J = 0; J != U; ++J)
            A.at(static_cast<size_t>(P), static_cast<size_t>(J)) = D(Rng);
        for (int J = 0; J != U; ++J)
          B[static_cast<size_t>(J)] = J % 2 ? D(Rng) : 0.0;
        FrequencyOptions FO;
        FO.Optimized = Optimized;
        StreamPtr S =
            makeFrequencyStream(LinearNode(A, B, E, 1, U), "freq", FO);
        const auto &F = *cast<Filter>(
            cast<Pipeline>(S.get())->children().front().get());
        ASSERT_TRUE(F.isNative());
        std::unique_ptr<NativeFilter> Seq = F.native().clone();
        std::unique_ptr<NativeFilter> Bat = F.native().clone();
        const size_t Pop = static_cast<size_t>(Seq->popRate());
        const size_t Push = static_cast<size_t>(Seq->pushRate());
        const size_t InitPop =
            Seq->hasInitWork() ? static_cast<size_t>(Seq->initPopRate()) : 0;
        std::vector<double> In(InitPop + (K - 1) * Pop +
                               static_cast<size_t>(Seq->peekRate()));
        for (double &V : In)
          V = D(Rng);

        // The init firing (optimized form) leaves the partial sums the
        // first steady firing completes; run it on both instances.
        if (InitPop) {
          wir::VectorTape T1(In), T2(In);
          Seq->fireInit(T1);
          Bat->fireInit(T2);
          EXPECT_EQ(T1.Output, T2.Output);
        }
        wir::VectorTape T(std::vector<double>(In.begin() + InitPop, In.end()));
        for (int I = 0; I != K; ++I)
          Seq->fire(T);
        std::vector<double> Out(K * Push);
        ASSERT_TRUE(Bat->fireBatch(In.data() + InitPop, Out.data(), K));
        EXPECT_EQ(T.Output, Out);

#if SLIN_COUNT_OPS
        // Counted: one batch of K == K tape firings, kind by kind.
        ops::CountingScope Scope;
        ops::reset();
        wir::VectorTape T1(std::vector<double>(In.begin() + InitPop,
                                               In.end()));
        for (int I = 0; I != K; ++I)
          Seq->fire(T1);
        OpCounts Fired = ops::counts();
        ops::reset();
        ASSERT_TRUE(Bat->fireBatch(In.data() + InitPop, Out.data(), K));
        OpCounts Batched = ops::counts();
        ops::reset();
        wir::VectorTape T2(std::vector<double>(In.begin() + InitPop,
                                               In.end()));
        Seq->fire(T2);
        OpCounts One = ops::counts();
        EXPECT_GT(One.flops(), 0u);
        EXPECT_EQ(Batched.flops(), K * One.flops());
        EXPECT_EQ(Fired, Batched);
        EXPECT_EQ(T1.Output, Out);
#endif
      }
}

//===----------------------------------------------------------------------===//
// CompiledExecutor
//===----------------------------------------------------------------------===//

TEST(CompiledExec, SourceFIRSink) {
  Pipeline P("FIRProgram");
  P.add(makeCountingSource());
  P.add(makeFIR({1, 2, 3}));
  P.add(makePrinterSink());
  CompiledExecutor E(P);
  E.tryRun(4).orDie();
  ASSERT_GE(E.printed().size(), 4u);
  for (int K = 0; K != 4; ++K)
    EXPECT_DOUBLE_EQ(E.printed()[static_cast<size_t>(K)], 6.0 * K + 8.0);
}

TEST(CompiledExec, ExternalInputAndOutput) {
  auto F = makeFIR({2, 5});
  CompiledExecutor E(*F);
  E.provideInput({1, 2, 3, 4});
  E.tryRun(3).orDie();
  auto Out = E.outputSnapshot();
  ASSERT_GE(Out.size(), 3u);
  EXPECT_DOUBLE_EQ(Out[0], 2 * 1 + 5 * 2);
  EXPECT_DOUBLE_EQ(Out[1], 2 * 2 + 5 * 3);
  EXPECT_DOUBLE_EQ(Out[2], 2 * 3 + 5 * 4);
}

TEST(CompiledExec, TailIterationsWhenInputShort) {
  // 20 inputs with batch size 16: one batch plus tail steady iterations.
  auto F = makeGain(3);
  CompiledExecutor::Options O;
  O.BatchIterations = 16;
  CompiledExecutor E(*F, O);
  std::vector<double> In;
  for (int I = 0; I != 20; ++I)
    In.push_back(I);
  E.provideInput(In);
  E.tryRun(20).orDie();
  auto Out = E.outputSnapshot();
  ASSERT_EQ(Out.size(), 20u);
  for (int I = 0; I != 20; ++I)
    EXPECT_DOUBLE_EQ(Out[static_cast<size_t>(I)], 3.0 * I);
}

TEST(CompiledExec, InsufficientInputIsADeadlock) {
  auto F = makeFIR({1, 1, 1, 1});
  CompiledExecutor E(*F);
  E.provideInput({1, 2});
  Status St = E.tryRun(1);
  EXPECT_EQ(St.code(), ErrorCode::Deadlock);
  EXPECT_NE(St.message().find("deadlocked"), std::string::npos);
}

TEST(CompiledExec, InitWorkPeekingBeyondPopsOnExternalInput) {
  using namespace slin::wir;
  using namespace slin::wir::build;
  // Regression: the init firing peeks 5 deep but pops only 3; the
  // schedule's external-input requirement must cover the full window,
  // and both engines must agree on the outputs.
  auto Make = [] {
    auto F = std::make_unique<Filter>(
        "initf", std::vector<FieldDef>{},
        WorkFunction(2, 1, 1, stmts(push(add(peek(0), peek(1))), popStmt())));
    F->setInitWork(WorkFunction(
        5, 3, 2, stmts(push(add(pop(), peek(3))), push(add(pop(), pop())))));
    return F;
  };
  auto F1 = Make();
  flat::FlatGraph G(*F1);
  StaticSchedule S = computeSchedule(G, 4);
  EXPECT_GE(S.InitExternalNeed, 5); // the init window, not just pops+extra

  std::vector<double> In = {1, 2, 3, 4, 5, 6, 7};
  auto F2 = Make();
  Executor D(*F2);
  D.provideInput(In);
  D.tryRun(4).orDie();
  auto F3 = Make();
  CompiledExecutor C(*F3);
  C.provideInput(In);
  C.tryRun(4).orDie();
  auto Dyn = D.outputSnapshot();
  auto Comp = C.outputSnapshot();
  ASSERT_GE(Dyn.size(), 4u);
  ASSERT_GE(Comp.size(), 4u);
  for (size_t I = 0; I != 4; ++I)
    EXPECT_EQ(Dyn[I], Comp[I]) << "output " << I;

  // With one item short of the init window, both engines must refuse.
  auto F4 = Make();
  CompiledExecutor Short(*F4);
  Short.provideInput({1, 2, 3, 4});
  Status St = Short.tryRun(1);
  EXPECT_EQ(St.code(), ErrorCode::Deadlock);
  EXPECT_NE(St.message().find("deadlocked"), std::string::npos);
}

TEST(CompiledExec, InitWorkDifferentRates) {
  using namespace slin::wir;
  using namespace slin::wir::build;
  auto F = std::make_unique<Filter>(
      "init", std::vector<FieldDef>{},
      WorkFunction(1, 1, 1, stmts(push(pop()))));
  F->setInitWork(WorkFunction(
      3, 3, 1, stmts(push(add(add(pop(), pop()), pop())))));
  CompiledExecutor E(*F);
  E.provideInput({1, 2, 3, 4, 5});
  E.tryRun(3).orDie();
  auto Out = E.outputSnapshot();
  ASSERT_GE(Out.size(), 3u);
  EXPECT_DOUBLE_EQ(Out[0], 6);
  EXPECT_DOUBLE_EQ(Out[1], 4);
  EXPECT_DOUBLE_EQ(Out[2], 5);
}

TEST(CompiledExec, FeedbackLoopSumDiff) {
  auto FB = std::make_unique<FeedbackLoop>(
      "fb", Joiner::roundRobin({1, 1}), makeSumDiffFilter(), makeIdentity(),
      Splitter::roundRobin({1, 1}), std::vector<double>{0});
  CompiledExecutor E(*FB);
  E.provideInput({1, 2, 3, 4, 5, 6, 7, 8});
  E.tryRun(3).orDie();
  auto Out = E.outputSnapshot();
  ASSERT_GE(Out.size(), 3u);
  EXPECT_DOUBLE_EQ(Out[0], 1);
  EXPECT_DOUBLE_EQ(Out[1], 2 + 1);
  EXPECT_DOUBLE_EQ(Out[2], 3 + (2 - 1));
}

TEST(CompiledExec, BatchSizeDoesNotChangeOutputs) {
  Pipeline P("p");
  P.add(makeCountingSource());
  P.add(makeFIR({1, -2, 3, -4, 5, -6, 7, -8}));
  P.add(makePrinterSink());
  std::vector<double> Ref;
  for (int B : {1, 2, 16, 64}) {
    CompiledExecutor::Options O;
    O.BatchIterations = B;
    CompiledExecutor E(P, O);
    E.tryRun(100).orDie();
    std::vector<double> Out(E.printed().begin(),
                            E.printed().begin() + 100);
    if (Ref.empty())
      Ref = Out;
    else
      EXPECT_EQ(Ref, Out) << "batch " << B;
  }
}

TEST(CompiledExec, FiringsAccounted) {
  Pipeline P("p");
  P.add(makeCountingSource());
  P.add(makeGain(2));
  P.add(makePrinterSink());
  CompiledExecutor::Options O;
  O.BatchIterations = 8;
  CompiledExecutor E(P, O);
  E.tryRun(8).orDie();
  // One batch: 8 firings each of source, gain, sink.
  EXPECT_EQ(E.firings(), 24u);
}

TEST(CompiledExec, MeasureCountsMatchDynamic) {
  Pipeline P("p");
  P.add(makeCountingSource());
  P.add(makeFIR({1, 2, 3, 4, 5, 6, 7, 8}));
  P.add(makePrinterSink());
  MeasureOptions MO;
  MO.WarmupOutputs = 64;
  MO.MeasureOutputs = 512;
  MO.MeasureTime = false;
  Measurement MD = measureSteadyState(P, MO);
  MO.Exec.Eng = Engine::Compiled;
  Measurement MC = measureSteadyState(P, MO);
  EXPECT_NEAR(MD.flopsPerOutput(), MC.flopsPerOutput(), 0.2);
  EXPECT_NEAR(MD.multsPerOutput(), MC.multsPerOutput(), 0.1);
}

} // namespace
