//===- tests/linear_extract_test.cpp - Extraction analysis tests ----------==//

#include "fft/FFT.h"
#include "linear/Analysis.h"
#include "linear/Extract.h"
#include "TestGraphs.h"

#include <gtest/gtest.h>

using namespace slin;
using namespace slin::testing_helpers;
using namespace slin::wir;
using namespace slin::wir::build;

namespace {

std::unique_ptr<Filter> makeFilter(WorkFunction W,
                                   std::vector<FieldDef> Fields = {}) {
  return std::make_unique<Filter>("f", std::move(Fields), std::move(W));
}

TEST(Extract, Figure31Example) {
  // work peek 3 pop 1 push 2 { push(3*peek(2)+5*peek(1));
  //                            push(2*peek(2)+peek(0)+6); pop(); }
  WorkFunction W(3, 1, 2,
                 stmts(push(add(mul(cst(3), peek(2)), mul(cst(5), peek(1)))),
                       push(add(add(mul(cst(2), peek(2)), peek(0)), cst(6))),
                       popStmt()));
  auto F = makeFilter(std::move(W));
  ExtractionResult R = extractLinearNode(*F);
  ASSERT_TRUE(R.isLinear()) << R.FailureReason;
  EXPECT_EQ(R.Node->matrix(), Matrix::fromRows({{2, 3}, {0, 5}, {1, 0}}));
  EXPECT_EQ(R.Node->vector(), Vector({6, 0}));
  EXPECT_EQ(R.Node->peekRate(), 3);
  EXPECT_EQ(R.Node->popRate(), 1);
  EXPECT_EQ(R.Node->pushRate(), 2);
}

TEST(Extract, FIRWithConstFields) {
  auto F = makeFIR({1.5, -2.0, 0.0, 4.0});
  ExtractionResult R = extractLinearNode(*F);
  ASSERT_TRUE(R.isLinear()) << R.FailureReason;
  const LinearNode &N = *R.Node;
  EXPECT_EQ(N.peekRate(), 4);
  for (int P = 0; P != 4; ++P)
    EXPECT_DOUBLE_EQ(N.coeff(P, 0), std::vector<double>({1.5, -2, 0, 4})[P]);
  EXPECT_DOUBLE_EQ(N.offset(0), 0.0);
}

TEST(Extract, PopSequenceBuildsCoefficients) {
  // push(2*pop() + 3*pop()): first pop is peek(0), second peek(1).
  WorkFunction W(2, 2, 1,
                 stmts(push(add(mul(cst(2), pop()), mul(cst(3), pop())))));
  auto F = makeFilter(std::move(W));
  ExtractionResult R = extractLinearNode(*F);
  ASSERT_TRUE(R.isLinear()) << R.FailureReason;
  EXPECT_DOUBLE_EQ(R.Node->coeff(0, 0), 2);
  EXPECT_DOUBLE_EQ(R.Node->coeff(1, 0), 3);
}

TEST(Extract, PeekAfterPopIsShifted) {
  // pop(); push(peek(0)) reads original index 1.
  WorkFunction W(2, 2, 1, stmts(popStmt(), push(peek(0)), popStmt()));
  auto F = makeFilter(std::move(W));
  ExtractionResult R = extractLinearNode(*F);
  ASSERT_TRUE(R.isLinear()) << R.FailureReason;
  EXPECT_DOUBLE_EQ(R.Node->coeff(0, 0), 0);
  EXPECT_DOUBLE_EQ(R.Node->coeff(1, 0), 1);
}

TEST(Extract, ExpanderCompressorAdder) {
  auto Exp = makeExpander(3);
  ExtractionResult RE = extractLinearNode(*Exp);
  ASSERT_TRUE(RE.isLinear()) << RE.FailureReason;
  EXPECT_EQ(RE.Node->pushRate(), 3);
  EXPECT_DOUBLE_EQ(RE.Node->coeff(0, 0), 1);
  EXPECT_DOUBLE_EQ(RE.Node->coeff(0, 1), 0);
  EXPECT_DOUBLE_EQ(RE.Node->coeff(0, 2), 0);

  auto Comp = makeCompressor(3);
  ExtractionResult RC = extractLinearNode(*Comp);
  ASSERT_TRUE(RC.isLinear()) << RC.FailureReason;
  EXPECT_EQ(RC.Node->peekRate(), 3);
  EXPECT_DOUBLE_EQ(RC.Node->coeff(0, 0), 1);
  EXPECT_DOUBLE_EQ(RC.Node->coeff(1, 0), 0);
  EXPECT_DOUBLE_EQ(RC.Node->coeff(2, 0), 0);

  auto Add = makeAdder(3);
  ExtractionResult RA = extractLinearNode(*Add);
  ASSERT_TRUE(RA.isLinear()) << RA.FailureReason;
  for (int P = 0; P != 3; ++P)
    EXPECT_DOUBLE_EQ(RA.Node->coeff(P, 0), 1);
}

TEST(Extract, LocalArrayReverseIsLinear) {
  WorkFunction W(3, 3, 3,
                 stmts(localArray("buf", 3),
                       loop("i", cst(0), cst(3),
                            stmts(arrAssign("buf", vr("i"), pop()))),
                       loop("i", cst(0), cst(3),
                            stmts(push(arrAt("buf", sub(cst(2), vr("i"))))))));
  auto F = makeFilter(std::move(W));
  ExtractionResult R = extractLinearNode(*F);
  ASSERT_TRUE(R.isLinear()) << R.FailureReason;
  // push j reads peek(2-j).
  EXPECT_DOUBLE_EQ(R.Node->coeff(2, 0), 1);
  EXPECT_DOUBLE_EQ(R.Node->coeff(1, 1), 1);
  EXPECT_DOUBLE_EQ(R.Node->coeff(0, 2), 1);
  EXPECT_DOUBLE_EQ(R.Node->coeff(0, 0), 0);
}

TEST(Extract, MutableStateIsNonlinear) {
  auto F = makeCountingSource();
  ExtractionResult R = extractLinearNode(*F);
  EXPECT_FALSE(R.isLinear());
}

TEST(Extract, PrintIsNonlinear) {
  auto F = makePrinterSink();
  ExtractionResult R = extractLinearNode(*F);
  EXPECT_FALSE(R.isLinear());
}

TEST(Extract, InputProductIsNonlinear) {
  // FMDemodulator-style peek(0)*peek(1); and peek(0) % 4, a modular value
  // in the shared affine domain, which extraction must treat as ⊤.
  std::vector<WorkFunction> Works;
  Works.emplace_back(2, 1, 1, stmts(push(mul(peek(0), peek(1))), popStmt()));
  Works.emplace_back(1, 1, 1, stmts(push(mod(peek(0), cst(4))), popStmt()));
  for (WorkFunction &W : Works) {
    ExtractionResult R = extractLinearNode(*makeFilter(std::move(W)));
    EXPECT_FALSE(R.isLinear());
    EXPECT_EQ(R.FailureReason,
              "pushed value is not an affine function of the input");
  }
}

TEST(Extract, DivisionByInputIsNonlinear) {
  WorkFunction W(1, 1, 1, stmts(push(div(cst(1), peek(0))), popStmt()));
  ExtractionResult R = extractLinearNode(*makeFilter(std::move(W)));
  EXPECT_FALSE(R.isLinear());
}

TEST(Extract, DivisionByConstantIsLinear) {
  WorkFunction W(1, 1, 1, stmts(push(div(peek(0), cst(4))), popStmt()));
  ExtractionResult R = extractLinearNode(*makeFilter(std::move(W)));
  ASSERT_TRUE(R.isLinear()) << R.FailureReason;
  EXPECT_DOUBLE_EQ(R.Node->coeff(0, 0), 0.25);
}

TEST(Extract, IntrinsicOnInputIsNonlinear) {
  WorkFunction W(1, 1, 1, stmts(push(atanE(peek(0))), popStmt()));
  ExtractionResult R = extractLinearNode(*makeFilter(std::move(W)));
  EXPECT_FALSE(R.isLinear());
}

TEST(Extract, IntrinsicOnConstantFolds) {
  WorkFunction W(1, 1, 1,
                 stmts(push(mul(sqrtE(cst(16)), peek(0))), popStmt()));
  ExtractionResult R = extractLinearNode(*makeFilter(std::move(W)));
  ASSERT_TRUE(R.isLinear()) << R.FailureReason;
  EXPECT_DOUBLE_EQ(R.Node->coeff(0, 0), 4.0);
}

TEST(Extract, DataDependentBranchConflictIsNonlinear) {
  // ThresholdDetector: pushes different linear forms per arm.
  WorkFunction W(1, 1, 1,
                 stmts(assign("t", pop()),
                       ifStmt(gt(vr("t"), cst(0.5)), stmts(push(cst(1))),
                              stmts(push(cst(0))))));
  ExtractionResult R = extractLinearNode(*makeFilter(std::move(W)));
  EXPECT_FALSE(R.isLinear());
}

TEST(Extract, DataDependentBranchAgreementIsLinear) {
  // Both arms push the same affine form: the join keeps it linear.
  WorkFunction W(1, 1, 1,
                 stmts(assign("t", peek(0)),
                       ifStmt(gt(vr("t"), cst(0)),
                              stmts(push(mul(cst(2), peek(0)))),
                              stmts(push(add(peek(0), peek(0))))),
                       popStmt()));
  ExtractionResult R = extractLinearNode(*makeFilter(std::move(W)));
  ASSERT_TRUE(R.isLinear()) << R.FailureReason;
  EXPECT_DOUBLE_EQ(R.Node->coeff(0, 0), 2.0);
}

TEST(Extract, ConstantBranchTakesOneArm) {
  // if (1 < 2) push(peek(0)) else push(peek(0)*peek(0)) — the dead arm
  // would be nonlinear but is never analyzed.
  WorkFunction W(1, 1, 1,
                 stmts(ifStmt(lt(cst(1), cst(2)), stmts(push(peek(0))),
                              stmts(push(mul(peek(0), peek(0))))),
                       popStmt()));
  ExtractionResult R = extractLinearNode(*makeFilter(std::move(W)));
  ASSERT_TRUE(R.isLinear()) << R.FailureReason;
}

TEST(Extract, RateMismatchIsRejected) {
  // Declares pop 2 but pops once.
  WorkFunction W(2, 2, 1, stmts(push(peek(0)), popStmt()));
  ExtractionResult R = extractLinearNode(*makeFilter(std::move(W)));
  EXPECT_FALSE(R.isLinear());
  EXPECT_NE(R.FailureReason.find("pop count"), std::string::npos);
}

TEST(Extract, SinkIsNotLinear) {
  // push-free filters are excluded from the framework.
  WorkFunction W(1, 1, 0, stmts(popStmt()));
  ExtractionResult R = extractLinearNode(*makeFilter(std::move(W)));
  EXPECT_FALSE(R.isLinear());
}

//===----------------------------------------------------------------------===//
// Whole-graph analysis
//===----------------------------------------------------------------------===//

TEST(Analysis, TwoFIRPipelineCombinesToConvolution) {
  // The motivating example (Figures 1-3/1-4): the combined weights of two
  // back-to-back FIRs are the convolution of the individual weights.
  std::vector<double> H1 = {1, 2, 3};
  std::vector<double> H2 = {4, 5};
  Pipeline P("TwoFilters");
  P.add(makeFIR(H1, "FIR1"));
  P.add(makeFIR(H2, "FIR2"));
  LinearAnalysis LA(P);
  const LinearNode *N = LA.nodeFor(P);
  ASSERT_NE(N, nullptr);
  EXPECT_EQ(N->peekRate(), 4); // N1 + N2 - 1
  EXPECT_EQ(N->popRate(), 1);
  EXPECT_EQ(N->pushRate(), 1);
  auto Conv = fft::directConvolve(H1, H2);
  for (int P2 = 0; P2 != 4; ++P2)
    EXPECT_NEAR(N->coeff(P2, 0), Conv[static_cast<size_t>(P2)], 1e-12);
}

TEST(Analysis, MixedPipelineMarksContainerNonlinear) {
  Pipeline P("prog");
  P.add(makeCountingSource());
  P.add(makeFIR({1, 2}));
  P.add(makePrinterSink());
  LinearAnalysis LA(P);
  EXPECT_EQ(LA.nodeFor(P), nullptr);
  EXPECT_NE(LA.nodeFor(*P.children()[1]), nullptr);
  EXPECT_EQ(LA.nodeFor(*P.children()[0]), nullptr);
  LinearAnalysis::Stats S = LA.stats();
  EXPECT_EQ(S.Filters, 3);
  EXPECT_EQ(S.LinearFilters, 1);
  EXPECT_EQ(S.Pipelines, 1);
  EXPECT_EQ(S.LinearPipelines, 0);
  EXPECT_DOUBLE_EQ(S.AvgVectorSize, 2.0);
}

TEST(Analysis, LinearSplitJoinGetsANode) {
  auto SJ = std::make_unique<SplitJoin>("sj", Splitter::duplicate(),
                                        Joiner::roundRobin({1, 1}));
  SJ->add(makeFIR({1, 2}, "a"));
  SJ->add(makeFIR({3, 4}, "b"));
  LinearAnalysis LA(*SJ);
  const LinearNode *N = LA.nodeFor(*SJ);
  ASSERT_NE(N, nullptr);
  EXPECT_EQ(N->pushRate(), 2);
  EXPECT_EQ(N->popRate(), 1);
  // Output 0 comes from child a, output 1 from child b.
  auto Out = N->apply({10.0, 20.0});
  EXPECT_DOUBLE_EQ(Out[0], 1 * 10 + 2 * 20);
  EXPECT_DOUBLE_EQ(Out[1], 3 * 10 + 4 * 20);
}

TEST(Analysis, FeedbackLoopIsNonlinearButChildrenAnalyzed) {
  auto FB = std::make_unique<FeedbackLoop>(
      "fb", Joiner::roundRobin({1, 1}), makeFIR({1, 2}, "body"),
      makeIdentity("loop"), Splitter::roundRobin({1, 1}),
      std::vector<double>{0});
  LinearAnalysis LA(*FB);
  EXPECT_EQ(LA.nodeFor(*FB), nullptr);
  EXPECT_NE(LA.nodeFor(FB->body()), nullptr);
  EXPECT_NE(LA.nodeFor(FB->loop()), nullptr);
}

} // namespace
