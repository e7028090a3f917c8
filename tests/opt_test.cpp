//===- tests/opt_test.cpp - Optimization pass tests -----------------------==//
//
// Output-equivalence is the master property: every optimization
// configuration must produce exactly the same stream of values as the
// original program (frequency replacement up to floating-point noise).
//
//===----------------------------------------------------------------------===//

#include "compiler/Pipeline.h"
#include "exec/CompiledExecutor.h"
#include "exec/Measure.h"
#include "opt/Optimizer.h"
#include "TestGraphs.h"

#include "support/OpCounters.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace slin;
using namespace slin::testing_helpers;

namespace {

/// Source -> FIR(H1) -> FIR(H2) -> sink.
std::unique_ptr<Pipeline> twoFIRProgram(std::vector<double> H1,
                                        std::vector<double> H2) {
  auto P = std::make_unique<Pipeline>("TwoFilters");
  P->add(makeCountingSource());
  P->add(makeFIR(std::move(H1), "FIR1"));
  P->add(makeFIR(std::move(H2), "FIR2"));
  P->add(makePrinterSink());
  return P;
}

void expectSameOutputs(const Stream &A, const Stream &B, size_t N,
                       double Tol, const std::string &What) {
  auto OutA = collectOutputs(A, N);
  auto OutB = collectOutputs(B, N);
  ASSERT_EQ(OutA.size(), OutB.size()) << What;
  for (size_t I = 0; I != N; ++I)
    ASSERT_NEAR(OutA[I], OutB[I], Tol) << What << " at " << I;
}

//===----------------------------------------------------------------------===//
// Linear replacement
//===----------------------------------------------------------------------===//

class LinearStyles
    : public ::testing::TestWithParam<LinearCodeGenStyle> {};

TEST_P(LinearStyles, ReplacementPreservesOutputs) {
  auto P = twoFIRProgram({1, 2, 3, 4, 5}, {0.5, -1, 2});
  OptimizerOptions O;
  O.Mode = OptMode::Linear;
  O.CodeGen = GetParam();
  auto Opt = optimize(*P, O);
  expectSameOutputs(*P, *Opt, 64, 1e-9, "linear replacement");
}

INSTANTIATE_TEST_SUITE_P(AllStyles, LinearStyles,
                         ::testing::Values(LinearCodeGenStyle::Unrolled,
                                           LinearCodeGenStyle::Banded,
                                           LinearCodeGenStyle::TunedNative,
                                           LinearCodeGenStyle::Auto));

TEST(LinearReplacement, CombinationCollapsesPipeline) {
  auto P = twoFIRProgram({1, 2, 3}, {4, 5});
  auto Combined = optimizeLinear(*P, /*Combine=*/true);
  auto Separate = optimizeLinear(*P, /*Combine=*/false);
  // Combined: source + 1 collapsed filter + sink; separate keeps both.
  EXPECT_EQ(countStreams(*Combined).Filters, 3);
  EXPECT_EQ(countStreams(*Separate).Filters, 4);
  expectSameOutputs(*P, *Combined, 48, 1e-9, "combined");
  expectSameOutputs(*P, *Separate, 48, 1e-9, "separate");
}

TEST(LinearReplacement, CombinationHalvesMultiplications) {
#if !SLIN_COUNT_OPS
  GTEST_SKIP() << "op accounting compiled out (SLIN_COUNT_OPS=OFF)";
#endif

  // The motivating example: two 8-tap FIRs collapse into one 15-tap FIR,
  // nearly halving the multiplications per output.
  // 0.4 so no combined coefficient is exactly 1.0 (unit coefficients are
  // strength-reduced by the unrolled code generator, as gcc -O2 would).
  std::vector<double> H(8, 0.4);
  auto P = twoFIRProgram(H, H);
  auto Combined = optimizeLinear(*P, true);
  MeasureOptions MO;
  MO.MeasureTime = false;
  MO.WarmupOutputs = 64;
  MO.MeasureOutputs = 512;
  double Base = measureSteadyState(*P, MO).multsPerOutput();
  double Opt = measureSteadyState(*Combined, MO).multsPerOutput();
  EXPECT_NEAR(Base, 16.0, 0.5);
  EXPECT_NEAR(Opt, 15.0, 0.5);
}

TEST(LinearReplacement, SplitJoinCollapses) {
  auto SJ = std::make_unique<SplitJoin>("sj", Splitter::duplicate(),
                                        Joiner::roundRobin({1, 1}));
  SJ->add(makeFIR({1, 2, 3}, "a"));
  SJ->add(makeFIR({4, 5, 6}, "b"));
  auto P = std::make_unique<Pipeline>("prog");
  P->add(makeCountingSource());
  P->add(std::move(SJ));
  P->add(makePrinterSink());

  auto Opt = optimizeLinear(*P, true);
  GraphCounts C = countStreams(*Opt);
  EXPECT_EQ(C.SplitJoins, 0);
  EXPECT_EQ(C.Filters, 3);
  expectSameOutputs(*P, *Opt, 64, 1e-9, "splitjoin collapse");
}

//===----------------------------------------------------------------------===//
// Frequency replacement
//===----------------------------------------------------------------------===//

class FreqVariants
    : public ::testing::TestWithParam<std::tuple<bool, FFTTier>> {};

TEST_P(FreqVariants, PreservesOutputs) {
  auto [Optimized, Tier] = GetParam();
  auto P = twoFIRProgram({1, 2, 3, 4, 5, 6, 7}, {1, -1});
  OptimizerOptions O;
  O.Mode = OptMode::Freq;
  O.Freq.Optimized = Optimized;
  O.Freq.Tier = Tier;
  auto Opt = optimize(*P, O);
  expectSameOutputs(*P, *Opt, 128, 1e-6, "frequency replacement");
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, FreqVariants,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(FFTTier::PlannedReal,
                                         FFTTier::SimpleComplex)));

TEST(FreqReplacement, DecimatorHandlesPopRateAboveOne) {
  // Expander/FIR/Compressor combine to a node with o = 3, u = 2.
  auto P = std::make_unique<Pipeline>("rateconvert");
  P->add(makeCountingSource());
  P->add(makeExpander(2));
  P->add(makeFIR({1, 2, 3, 4, 5, 6}, "LPF"));
  P->add(makeCompressor(3));
  P->add(makePrinterSink());
  auto Opt = optimizeFreq(*P, true);
  expectSameOutputs(*P, *Opt, 96, 1e-6, "freq with decimation");
}

TEST(FreqReplacement, FFTSizeOverride) {
  auto P = twoFIRProgram({1, 2, 3, 4}, {1, 1});
  OptimizerOptions O;
  O.Mode = OptMode::Freq;
  O.Freq.FFTSizeOverride = 64;
  auto Opt = optimize(*P, O);
  expectSameOutputs(*P, *Opt, 96, 1e-6, "fft size override");
}

TEST(FreqReplacement, PopLimitSkipsHighPopNodes) {
  auto P = std::make_unique<Pipeline>("radarish");
  P->add(makeCountingSource());
  P->add(makeCompressor(8)); // linear node with o = 8
  P->add(makePrinterSink());
  OptimizerOptions O;
  O.Mode = OptMode::Freq;
  O.Freq.PopLimit = 1;
  auto Opt = optimize(*P, O);
  // Nothing convertible: the graph keeps its original shape.
  EXPECT_EQ(countStreams(*Opt).Filters, 3);
  expectSameOutputs(*P, *Opt, 32, 1e-9, "pop limit");
}

TEST(FreqReplacement, ReducesMultiplicationsForLongFIR) {
#if !SLIN_COUNT_OPS
  GTEST_SKIP() << "op accounting compiled out (SLIN_COUNT_OPS=OFF)";
#endif

  auto P = std::make_unique<Pipeline>("fir64");
  P->add(makeCountingSource());
  std::vector<double> H(64);
  for (size_t I = 0; I != H.size(); ++I)
    H[I] = std::sin(0.1 * static_cast<double>(I + 1));
  P->add(makeFIR(H, "FIR64"));
  P->add(makePrinterSink());
  auto Opt = optimizeFreq(*P, true);
  expectSameOutputs(*P, *Opt, 256, 1e-6, "fir64 freq");

  MeasureOptions MO;
  MO.MeasureTime = false;
  MO.WarmupOutputs = 256;
  MO.MeasureOutputs = 2048;
  double Base = measureSteadyState(*P, MO).multsPerOutput();
  double Freq = measureSteadyState(*Opt, MO).multsPerOutput();
  EXPECT_NEAR(Base, 64.0, 1.0);
  // At 64 taps the default FFT size (128) amortizes over r = 64 outputs;
  // the reduction deepens with tap count (Figure 5-8).
  EXPECT_LT(Freq, Base * 0.75) << "expected multiplication reduction";
}

TEST(FreqReplacement, OptimizedBeatsNaive) {
#if !SLIN_COUNT_OPS
  GTEST_SKIP() << "op accounting compiled out (SLIN_COUNT_OPS=OFF)";
#endif

  auto P = std::make_unique<Pipeline>("fir32");
  P->add(makeCountingSource());
  P->add(makeFIR(std::vector<double>(32, 0.5), "FIR32"));
  P->add(makePrinterSink());

  OptimizerOptions O;
  O.Mode = OptMode::Freq;
  O.Freq.Optimized = false;
  auto Naive = optimize(*P, O);
  O.Freq.Optimized = true;
  auto Optd = optimize(*P, O);
  expectSameOutputs(*P, *Naive, 128, 1e-6, "naive freq");
  expectSameOutputs(*P, *Optd, 128, 1e-6, "optimized freq");

  MeasureOptions MO;
  MO.MeasureTime = false;
  MO.WarmupOutputs = 256;
  MO.MeasureOutputs = 2048;
  double NaiveMults = measureSteadyState(*Naive, MO).multsPerOutput();
  double OptMults = measureSteadyState(*Optd, MO).multsPerOutput();
  EXPECT_LT(OptMults, NaiveMults)
      << "partial-sum reuse must reduce multiplications per output";
}

//===----------------------------------------------------------------------===//
// Redundancy elimination
//===----------------------------------------------------------------------===//

TEST(Redundancy, Figure41Example) {
  // SimpleFIR: push(2*peek(2) + peek(1) + 2*peek(0)); pop();
  Matrix A = Matrix::fromRows({{2}, {1}, {2}});
  LinearNode N(A, Vector(1), 3, 1, 1);
  RedundancyInfo Info = analyzeRedundancy(N);
  // The newest product 2*peek(2) is reused two firings later as 2*peek(0).
  LCT Newest{2.0, 2};
  LCT Oldest{2.0, 0};
  ASSERT_EQ(Info.Reused.size(), 1u);
  EXPECT_TRUE(Info.Reused.count(Newest));
  ASSERT_TRUE(Info.CompMap.count(Oldest));
  EXPECT_TRUE(Info.CompMap.at(Oldest).first == Newest);
  EXPECT_EQ(Info.CompMap.at(Oldest).second, 2);
  EXPECT_EQ(Info.maxUse(Newest), 2);
  EXPECT_EQ(Info.minUse(Newest), 0);
}

TEST(Redundancy, FilterPreservesOutputs) {
  for (int Taps : {3, 4, 7, 8}) {
    // Symmetric coefficients like a real FIR design.
    std::vector<double> H(static_cast<size_t>(Taps));
    for (int I = 0; I != Taps; ++I)
      H[static_cast<size_t>(I)] =
          1.0 + std::min(I, Taps - 1 - I);
    auto P = std::make_unique<Pipeline>("fir");
    P->add(makeCountingSource());
    P->add(makeFIR(H, "FIR"));
    P->add(makePrinterSink());
    OptimizerOptions O;
    O.Mode = OptMode::Redundancy;
    auto Opt = optimize(*P, O);
    expectSameOutputs(*P, *Opt, 64, 1e-9,
                      "redundancy taps=" + std::to_string(Taps));
  }
}

TEST(Redundancy, SymmetricFIRSavesMultiplications) {
  // Even-length symmetric FIR: every product is reused; odd length: the
  // middle tap cannot be (the Figure 5-10 zig-zag).
  auto SymmetricFIR = [](int Taps) {
    std::vector<double> H(static_cast<size_t>(Taps));
    for (int I = 0; I != Taps; ++I)
      H[static_cast<size_t>(I)] = 1.0 + std::min(I, Taps - 1 - I);
    Matrix A(static_cast<size_t>(Taps), 1);
    for (int I = 0; I != Taps; ++I)
      A.at(static_cast<size_t>(Taps - 1 - I), 0) = H[static_cast<size_t>(I)];
    return LinearNode(A, Vector(1), Taps, 1, 1);
  };
  LinearNode Even = SymmetricFIR(8);
  LinearNode Odd = SymmetricFIR(9);
  double FracEven = analyzeRedundancy(Even).redundantFraction(Even);
  double FracOdd = analyzeRedundancy(Odd).redundantFraction(Odd);
  EXPECT_GT(FracEven, 0.4);
  EXPECT_GT(FracEven, FracOdd);
}

TEST(Redundancy, ReducesCountedMultiplications) {
#if !SLIN_COUNT_OPS
  GTEST_SKIP() << "op accounting compiled out (SLIN_COUNT_OPS=OFF)";
#endif

  std::vector<double> H = {1, 2, 3, 3, 2, 1}; // fully symmetric, 6 taps
  auto P = std::make_unique<Pipeline>("fir");
  P->add(makeCountingSource());
  P->add(makeFIR(H, "FIR"));
  P->add(makePrinterSink());
  OptimizerOptions O;
  O.Mode = OptMode::Redundancy;
  auto Opt = optimize(*P, O);
  MeasureOptions MO;
  MO.MeasureTime = false;
  MO.WarmupOutputs = 64;
  MO.MeasureOutputs = 1024;
  double Base = measureSteadyState(*P, MO).multsPerOutput();
  double Red = measureSteadyState(*Opt, MO).multsPerOutput();
  EXPECT_NEAR(Base, 6.0, 0.2);
  EXPECT_NEAR(Red, 3.0, 0.3) << "half the products should be cached";
}

//===----------------------------------------------------------------------===//
// Optimization selection
//===----------------------------------------------------------------------===//

TEST(Selection, PicksFrequencyForLongFIR) {
#if !SLIN_COUNT_OPS
  GTEST_SKIP() << "op accounting compiled out (SLIN_COUNT_OPS=OFF)";
#endif

  auto P = std::make_unique<Pipeline>("fir");
  P->add(makeCountingSource());
  P->add(makeFIR(std::vector<double>(128, 0.25), "FIR128"));
  P->add(makePrinterSink());
  auto Opt = optimizeAutoSel(*P);
  expectSameOutputs(*P, *Opt, 128, 1e-6, "autosel fir");

  MeasureOptions MO;
  MO.MeasureTime = false;
  MO.WarmupOutputs = 256;
  MO.MeasureOutputs = 1024;
  double Base = measureSteadyState(*P, MO).multsPerOutput();
  double Sel = measureSteadyState(*Opt, MO).multsPerOutput();
  EXPECT_LT(Sel, Base / 2) << "selection should have chosen frequency";
}

TEST(Selection, AvoidsExpandingBeamformLikeNodes) {
  // A Beamform-like node (pop 24, push 2) followed by an FIR: collapsing
  // duplicates most of the Beamform work; the DP must keep them apart.
  using namespace slin::wir;
  using namespace slin::wir::build;
  std::vector<double> W(24);
  for (size_t I = 0; I != 24; ++I)
    W[I] = 0.1 * static_cast<double>(I + 1);
  StmtList Body;
  for (int J = 0; J != 2; ++J) {
    ExprPtr Sum;
    for (int P2 = 0; P2 != 12; ++P2) {
      ExprPtr T = mul(cst(W[static_cast<size_t>(12 * J + P2)]),
                      peek(12 * J + P2));
      Sum = Sum ? add(std::move(Sum), std::move(T)) : std::move(T);
    }
    Body.push_back(push(std::move(Sum)));
  }
  for (int I = 0; I != 24; ++I)
    Body.push_back(popStmt());
  auto Beamform = std::make_unique<Filter>(
      "Beamform", std::vector<FieldDef>{},
      WorkFunction(24, 24, 2, std::move(Body)));

  auto P = std::make_unique<Pipeline>("radarish");
  P->add(makeCountingSource());
  P->add(std::move(Beamform));
  P->add(makeFIR({1, 2, 3, 4}, "FIR"));
  P->add(makePrinterSink());

  auto Opt = optimizeAutoSel(*P);
  expectSameOutputs(*P, *Opt, 64, 1e-6, "autosel beamform");
  // The collapsed Beamform∘FIR node would peek 24*4-ish items; selection
  // must not have collapsed them into a single huge filter. We verify by
  // cost: selection's multiplication count must not exceed maximal
  // linear replacement's.
  auto MaxLinear = optimizeLinear(*P, true);
  MeasureOptions MO;
  MO.MeasureTime = false;
  MO.WarmupOutputs = 64;
  MO.MeasureOutputs = 512;
  double Sel = measureSteadyState(*Opt, MO).multsPerOutput();
  double Lin = measureSteadyState(*MaxLinear, MO).multsPerOutput();
  EXPECT_LE(Sel, Lin * 1.05);
}

TEST(Selection, HandlesSplitJoins) {
  auto SJ = std::make_unique<SplitJoin>("eq", Splitter::duplicate(),
                                        Joiner::roundRobin({1, 1, 1}));
  for (int K = 0; K != 3; ++K) {
    std::vector<double> H(8);
    for (int I = 0; I != 8; ++I)
      H[static_cast<size_t>(I)] = std::cos(0.2 * (K + 1) * (I + 1));
    SJ->add(makeFIR(H, "band" + std::to_string(K)));
  }
  auto P = std::make_unique<Pipeline>("bank");
  P->add(makeCountingSource());
  P->add(std::move(SJ));
  P->add(makeAdder(3));
  P->add(makePrinterSink());

  auto Opt = optimizeAutoSel(*P);
  expectSameOutputs(*P, *Opt, 96, 1e-6, "autosel splitjoin");
}

TEST(Selection, FeedbackLoopChildrenOptimized) {
  auto FB = std::make_unique<FeedbackLoop>(
      "fb", Joiner::roundRobin({1, 1}), makeSumDiffFilter(),
      makeIdentity("loop"), Splitter::roundRobin({1, 1}),
      std::vector<double>{0});
  auto P = std::make_unique<Pipeline>("prog");
  P->add(makeCountingSource());
  P->add(std::move(FB));
  P->add(makePrinterSink());
  auto Opt = optimizeAutoSel(*P);
  expectSameOutputs(*P, *Opt, 48, 1e-9, "autosel feedback");
}

/// Containers on the longest root-to-filter path.
int nestDepth(const Stream &S) {
  int D = 0;
  if (const auto *FB = dynCast<FeedbackLoop>(&S))
    return 1 + std::max(nestDepth(FB->body()), nestDepth(FB->loop()));
  if (const auto *P = dynCast<Pipeline>(&S))
    for (const StreamPtr &C : P->children())
      D = std::max(D, nestDepth(*C));
  else if (const auto *SJ = dynCast<SplitJoin>(&S))
    for (const StreamPtr &C : SJ->children())
      D = std::max(D, nestDepth(*C));
  else
    return 0;
  return D + 1;
}

TEST(Selection, WideSplitJoinLowersThroughNestedVerticalCuts) {
  // Twenty branches of {FIR, square}: the squares cannot collapse, so the
  // DP splits the splitjoin by vertical cuts into a nest about as deep as
  // it is wide, and lowering must rate that nest in time linear in its
  // size.
  constexpr int Branches = 20;
  auto SJ = std::make_unique<SplitJoin>(
      "wide", Splitter::roundRobin(std::vector<int>(Branches, 1)),
      Joiner::roundRobin(std::vector<int>(Branches, 1)));
  for (int K = 0; K != Branches; ++K) {
    std::vector<double> H;
    for (int I = 0; I != 4; ++I)
      H.push_back(0.25 * (K + 1) + 0.125 * I);
    auto Branch = std::make_unique<Pipeline>("branch" + std::to_string(K));
    Branch->add(makeFIR(H, "fir" + std::to_string(K)));
    Branch->add(std::make_unique<Filter>(
        "square" + std::to_string(K), std::vector<FieldDef>{},
        WorkFunction(1, 1, 1, stmts(push(mul(peek(0), peek(0))), popStmt()))));
    SJ->add(std::move(Branch));
  }
  auto P = std::make_unique<Pipeline>("prog");
  P->add(makeCountingSource());
  P->add(std::move(SJ));
  P->add(makePrinterSink());

  PipelineOptions PO;
  PO.Mode = OptMode::AutoSel;
  PO.Exec.Eng = Engine::Compiled;
  CompileResult R = compileStream(*P, PO);
  ASSERT_NE(R.Program, nullptr);
  EXPECT_GE(nestDepth(*R.Optimized), 16);

  const size_t N = 1024;
  CompiledExecutor E(R.Program);
  E.tryRun(N).orDie();
  std::vector<double> Compiled = E.printed();
  ASSERT_GE(Compiled.size(), N);
  Compiled.resize(N);
  EXPECT_EQ(Compiled, collectOutputs(*R.Optimized, N, Engine::Dynamic));
}

} // namespace
