//===- tests/exec_test.cpp - Executor and scheduler tests -----------------==//

#include "exec/Measure.h"
#include "sched/Rates.h"
#include "TestGraphs.h"

#include "support/OpCounters.h"

#include <gtest/gtest.h>

using namespace slin;
using namespace slin::testing_helpers;

namespace {

TEST(Sched, FilterRates) {
  auto F = makeFIR({1, 2, 3});
  RateSignature R = tryComputeRates(*F).orDie();
  EXPECT_EQ(R.Peek, 3);
  EXPECT_EQ(R.Pop, 1);
  EXPECT_EQ(R.Push, 1);
}

TEST(Sched, PipelineRepetitions) {
  // Expander(2) then Compressor(3): reps must balance 2*r1 = 3*r2.
  Pipeline P("p");
  P.add(makeExpander(2));
  P.add(makeCompressor(3));
  auto Reps = tryChildRepetitions(P).orDie();
  EXPECT_EQ(Reps, (std::vector<int64_t>{3, 2}));
  RateSignature R = tryComputeRates(P).orDie();
  EXPECT_EQ(R.Pop, 3);
  EXPECT_EQ(R.Push, 2);
}

TEST(Sched, PipelinePeekCarriesExtra) {
  Pipeline P("p");
  P.add(makeFIR({1, 2, 3, 4})); // peek 4 pop 1
  P.add(makeCompressor(2));
  auto Reps = tryChildRepetitions(P).orDie();
  EXPECT_EQ(Reps, (std::vector<int64_t>{2, 1}));
  RateSignature R = tryComputeRates(P).orDie();
  EXPECT_EQ(R.Pop, 2);
  EXPECT_EQ(R.Peek, 2 + 3); // extra lookahead of the FIR
  EXPECT_EQ(R.Push, 1);
}

TEST(Sched, SplitJoinDuplicate) {
  // Figure 3-6's topology: children pushing 4 and 1, joiner (2, 1).
  SplitJoin SJ("sj", Splitter::duplicate(), Joiner::roundRobin({2, 1}));
  // Child 0: pop 2 push 4; child 1: pop 1 push 1.
  {
    using namespace slin::wir;
    using namespace slin::wir::build;
    WorkFunction W0(2, 2, 4, stmts(push(peek(0)), push(peek(0)), push(peek(1)),
                                   push(peek(1)), popStmt(), popStmt()));
    SJ.add(std::make_unique<Filter>("c0", std::vector<FieldDef>{},
                                    std::move(W0)));
    WorkFunction W1(1, 1, 1, stmts(push(pop())));
    SJ.add(std::make_unique<Filter>("c1", std::vector<FieldDef>{},
                                    std::move(W1)));
  }
  auto Reps = tryChildRepetitions(SJ).orDie();
  // joinRep = lcm(lcm(4,2)/2, lcm(1,1)/1) = lcm(2,1) = 2;
  // rep0 = 2*2/4 = 1, rep1 = 1*2/1 = 2.
  EXPECT_EQ(Reps, (std::vector<int64_t>{1, 2}));
  RateSignature R = tryComputeRates(SJ).orDie();
  EXPECT_EQ(R.Pop, 2);
  EXPECT_EQ(R.Push, 6);
}

TEST(Sched, FeedbackLoopRates) {
  auto FB = std::make_unique<FeedbackLoop>(
      "fb", Joiner::roundRobin({1, 1}), makeSumDiffFilter(), makeIdentity(),
      Splitter::roundRobin({1, 1}), std::vector<double>{0});
  auto Reps = tryChildRepetitions(*FB).orDie();
  EXPECT_EQ(Reps, (std::vector<int64_t>{1, 1}));
  RateSignature R = tryComputeRates(*FB).orDie();
  EXPECT_EQ(R.Pop, 1);
  EXPECT_EQ(R.Push, 1);
}

TEST(Sched, SplitJoinWholeCycleAlignment) {
  // Weights that are unreduced multiples of the per-repetition flows
  // (as built by the selection DP's vertical cuts): the child balance
  // reduces to {1, 1}, but one splitter/joiner cycle needs two firings
  // of each child. Repetitions must scale so cycles stay integral.
  using namespace slin::wir;
  using namespace slin::wir::build;
  auto MakeChild = [](const std::string &Name) {
    // pop 8 push 2: sums four pairs.
    StmtList Body;
    for (int J = 0; J != 2; ++J)
      Body.push_back(push(add(add(peek(4 * J), peek(4 * J + 1)),
                              add(peek(4 * J + 2), peek(4 * J + 3)))));
    for (int P = 0; P != 8; ++P)
      Body.push_back(popStmt());
    return std::make_unique<Filter>(Name, std::vector<FieldDef>{},
                                    WorkFunction(8, 8, 2, std::move(Body)));
  };
  SplitJoin SJ("vcutlike", Splitter::roundRobin({16, 16}),
               Joiner::roundRobin({4, 4}));
  SJ.add(MakeChild("a"));
  SJ.add(MakeChild("b"));
  auto Reps = tryChildRepetitions(SJ).orDie();
  EXPECT_EQ(Reps, (std::vector<int64_t>{2, 2}));
  RateSignature R = tryComputeRates(SJ).orDie();
  EXPECT_EQ(R.Pop, 32);
  EXPECT_EQ(R.Push, 8);
}

TEST(Sched, DeepNestRatesAreLinear) {
  // nest(0) = Gain; nest(d) = roundrobin(1, d) splitjoin of {Gain,
  // pipeline{nest(d - 1)}} joined (1, d): pop = push = d + 1. Rating each
  // stream once per call keeps this linear in the depth; re-rating a
  // child at every level would be exponential in it.
  constexpr int Depth = 32;
  StreamPtr Nest = makeGain(2.0);
  for (int D = 1; D <= Depth; ++D) {
    auto Inner = std::make_unique<Pipeline>("inner" + std::to_string(D));
    Inner->add(std::move(Nest));
    auto SJ = std::make_unique<SplitJoin>(
        "nest" + std::to_string(D), Splitter::roundRobin({1, D}),
        Joiner::roundRobin({1, D}));
    SJ->add(makeGain(0.5));
    SJ->add(std::move(Inner));
    Nest = std::move(SJ);
  }
  RateSignature R = tryComputeRates(*Nest).orDie();
  EXPECT_EQ(R.Pop, Depth + 1);
  EXPECT_EQ(R.Peek, Depth + 1);
  EXPECT_EQ(R.Push, Depth + 1);
  const Stream *Level = Nest.get();
  for (int D = Depth; D >= 1; --D) {
    EXPECT_EQ(tryChildRepetitions(*Level).orDie(),
              (std::vector<int64_t>{1, 1}))
        << "depth " << D;
    const Stream &Inner = *cast<SplitJoin>(Level)->children()[1];
    EXPECT_EQ(tryChildRepetitions(Inner).orDie(), (std::vector<int64_t>{1}));
    Level = cast<Pipeline>(&Inner)->children()[0].get();
  }
  EXPECT_EQ(Level->kind(), StreamKind::Filter);
}

TEST(Sched, UnbalancedFeedbackLoopIsARateError) {
  // Adder(2) pushes one item per firing but the splitter must send one
  // item per cycle to the loop AND one downstream: inconsistent.
  auto FB = std::make_unique<FeedbackLoop>(
      "fb", Joiner::roundRobin({1, 1}), makeAdder(2), makeIdentity(),
      Splitter::roundRobin({1, 1}), std::vector<double>{0});
  Expected<std::vector<int64_t>> Reps = tryChildRepetitions(*FB);
  ASSERT_FALSE(Reps);
  EXPECT_EQ(Reps.status().code(), ErrorCode::RateError);
  EXPECT_NE(Reps.status().message().find("inconsistent loop rates"),
            std::string::npos);
}

TEST(Exec, SourceFIRSink) {
  Pipeline P("FIRProgram");
  P.add(makeCountingSource());
  P.add(makeFIR({1, 2, 3}));
  P.add(makePrinterSink());

  Executor E(P);
  E.tryRun(4).orDie();
  ASSERT_GE(E.printed().size(), 4u);
  // Input 0,1,2,3,...; out[k] = 1*k + 2*(k+1) + 3*(k+2) = 6k + 8.
  for (int K = 0; K != 4; ++K)
    EXPECT_DOUBLE_EQ(E.printed()[K], 6.0 * K + 8.0);
}

TEST(Exec, ExternalInputAndOutput) {
  auto F = makeFIR({2, 5});
  Executor E(*F);
  E.provideInput({1, 2, 3, 4});
  E.tryRun(3).orDie();
  auto Out = E.outputSnapshot();
  ASSERT_GE(Out.size(), 3u);
  EXPECT_DOUBLE_EQ(Out[0], 2 * 1 + 5 * 2);
  EXPECT_DOUBLE_EQ(Out[1], 2 * 2 + 5 * 3);
  EXPECT_DOUBLE_EQ(Out[2], 2 * 3 + 5 * 4);
}

TEST(Exec, DuplicateSplitJoinInterleaving) {
  SplitJoin SJ("sj", Splitter::duplicate(), Joiner::roundRobin({1, 1}));
  SJ.add(makeGain(10, "g10"));
  SJ.add(makeGain(100, "g100"));
  Executor E(SJ);
  E.provideInput({1, 2, 3});
  E.tryRun(6).orDie();
  EXPECT_EQ(E.outputSnapshot(),
            (std::vector<double>{10, 100, 20, 200, 30, 300}));
}

TEST(Exec, RoundRobinSplitJoin) {
  // roundrobin(2,1) split, gains, roundrobin(2,1) join: reorders nothing.
  SplitJoin SJ("sj", Splitter::roundRobin({2, 1}),
               Joiner::roundRobin({2, 1}));
  SJ.add(makeGain(1, "id"));
  SJ.add(makeGain(-1, "neg"));
  Executor E(SJ);
  E.provideInput({1, 2, 3, 4, 5, 6});
  E.tryRun(6).orDie();
  EXPECT_EQ(E.outputSnapshot(), (std::vector<double>{1, 2, -3, 4, 5, -6}));
}

TEST(Exec, FeedbackLoopSumDiff) {
  // Joiner interleaves [x_i, fb_i]; body pushes sum then difference; the
  // splitter routes sums downstream and differences around the loop.
  auto FB = std::make_unique<FeedbackLoop>(
      "fb", Joiner::roundRobin({1, 1}), makeSumDiffFilter(), makeIdentity(),
      Splitter::roundRobin({1, 1}), std::vector<double>{0});
  Executor E(*FB);
  E.provideInput({1, 2, 3});
  E.tryRun(3).orDie();
  auto Out = E.outputSnapshot();
  ASSERT_GE(Out.size(), 3u);
  EXPECT_DOUBLE_EQ(Out[0], 1);         // 1 + enqueued 0
  EXPECT_DOUBLE_EQ(Out[1], 2 + 1);     // fb = 1 - 0
  EXPECT_DOUBLE_EQ(Out[2], 3 + (2 - 1));
}

TEST(Exec, InitWorkDifferentRates) {
  using namespace slin::wir;
  using namespace slin::wir::build;
  // initWork consumes 3 and pushes their sum; work then echoes items.
  auto F = std::make_unique<Filter>(
      "init", std::vector<FieldDef>{},
      WorkFunction(1, 1, 1, stmts(push(pop()))));
  F->setInitWork(WorkFunction(
      3, 3, 1, stmts(push(add(add(pop(), pop()), pop())))));
  Executor E(*F);
  E.provideInput({1, 2, 3, 4, 5});
  E.tryRun(3).orDie();
  EXPECT_EQ(E.outputSnapshot(), (std::vector<double>{6, 4, 5}));
}

TEST(Exec, DeadlockIsReported) {
  // A filter that needs more input than ever arrives.
  auto F = makeFIR({1, 1, 1, 1});
  Executor E(*F);
  E.provideInput({1, 2});
  Status St = E.tryRun(1);
  EXPECT_EQ(St.code(), ErrorCode::Deadlock);
  EXPECT_NE(St.message().find("deadlock"), std::string::npos);
}

TEST(Exec, ChannelCapDerivation) {
  // A channel's cap is derived from its consumer's peek requirement:
  // twice the requirement, at least 64.
  {
    auto F = makeFIR({1, 2, 3, 4, 5, 6, 7, 8}); // peek 8
    Executor E(*F);
    EXPECT_EQ(E.channelCap(0), 64u); // 2 * 8 = 16, raised to the floor
  }
  {
    auto F = makeFIR(std::vector<double>(40, 1.0)); // peek 40
    Executor E(*F);
    EXPECT_EQ(E.channelCap(0), 80u); // external input channel: 2 * 40
  }
}

TEST(Exec, SweepThatFiresNothingDiagnosesDeadlock) {
  // A feedback loop with no enqueued items passes rate analysis but can
  // never start: the very first sweep fires nothing and must be
  // diagnosed as a deadlock rather than spinning.
  auto FB = std::make_unique<FeedbackLoop>(
      "fb", Joiner::roundRobin({1, 1}), makeSumDiffFilter(), makeIdentity(),
      Splitter::roundRobin({1, 1}), std::vector<double>{});
  Executor E(*FB);
  E.provideInput({1, 2, 3, 4});
  Status St = E.tryRun(1);
  EXPECT_EQ(St.code(), ErrorCode::Deadlock);
  EXPECT_NE(St.message().find("deadlocked: no node can fire"),
            std::string::npos);
}

TEST(Measure, FIRFlopsPerOutput) {
  Pipeline P("FIRProgram");
  P.add(makeCountingSource());
  P.add(makeFIR({1, 2, 3, 4, 5, 6, 7, 8}));
  P.add(makePrinterSink());
  MeasureOptions Opts;
  Opts.WarmupOutputs = 64;
  Opts.MeasureOutputs = 2048;
  Opts.MeasureTime = false;
  Measurement M = measureSteadyState(P, Opts);
  // Per output: 8 muls + 8 adds in the FIR, 1 add in the source.
  EXPECT_NEAR(M.multsPerOutput(), 8.0, 0.4);
  EXPECT_NEAR(M.flopsPerOutput(), 17.0, 0.9);
}

TEST(Measure, CollectOutputsMatchesManual) {
  Pipeline P("p");
  P.add(makeCountingSource());
  P.add(makeGain(3));
  P.add(makePrinterSink());
  auto Out = collectOutputs(P, 5);
  EXPECT_EQ(Out, (std::vector<double>{0, 3, 6, 9, 12}));
}

} // namespace
