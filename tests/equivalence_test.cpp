//===- tests/equivalence_test.cpp - Cross-configuration equivalence -------==//
//
// The master integration property of the whole system: every optimization
// configuration of every benchmark must produce the same output stream as
// the unoptimized program (frequency replacement up to FP round-off).
//
// A second property is stricter: the two execution engines (dynamic
// interpreter and compiled batched engine) must produce *bit-identical*
// outputs on the very same program — the op tapes replay the
// interpreter's evaluation order and the batched kernels replay the
// sequential kernels' accumulation order, so not even round-off may
// differ. Verified across the small TestGraphs (peeking, init work,
// splitjoins, feedback) and every benchmark x configuration.
//
//===----------------------------------------------------------------------===//

#include "apps/Benchmarks.h"
#include "codegen/CxxBackend.h"
#include "codegen/NativeModule.h"
#include "exec/Measure.h"
#include "opt/Optimizer.h"
#include "TestGraphs.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <sys/wait.h>

using namespace slin;
using namespace slin::apps;

namespace {

struct Case {
  std::string Benchmark;
  OptMode Mode;
  bool Combine;
};

std::string caseName(const ::testing::TestParamInfo<Case> &Info) {
  const Case &C = Info.param;
  std::string Mode;
  switch (C.Mode) {
  case OptMode::Linear: Mode = "linear"; break;
  case OptMode::Freq: Mode = "freq"; break;
  case OptMode::Redundancy: Mode = "redund"; break;
  case OptMode::AutoSel: Mode = "autosel"; break;
  case OptMode::Base: Mode = "base"; break;
  }
  return C.Benchmark + "_" + Mode + (C.Combine ? "" : "_nc");
}

class BenchmarkEquivalence : public ::testing::TestWithParam<Case> {};

TEST_P(BenchmarkEquivalence, OutputsMatchBaseline) {
  const Case &C = GetParam();
  StreamPtr Base;
  for (const BenchmarkEntry &B : allBenchmarks())
    if (B.Name == C.Benchmark)
      Base = B.Build();
  ASSERT_NE(Base, nullptr);

  OptimizerOptions O;
  O.Mode = C.Mode;
  O.Combine = C.Combine;
  StreamPtr Opt = optimize(*Base, O);

  size_t N = 48;
  auto Expect = collectOutputs(*Base, N);
  auto Got = collectOutputs(*Opt, N);
  ASSERT_EQ(Expect.size(), Got.size());
  double Tol = C.Mode == OptMode::Freq || C.Mode == OptMode::AutoSel
                   ? 1e-5
                   : 1e-8;
  for (size_t I = 0; I != N; ++I)
    ASSERT_NEAR(Got[I], Expect[I], Tol) << "output " << I;
}

std::vector<Case> makeCases() {
  std::vector<Case> Cases;
  for (const BenchmarkEntry &B : allBenchmarks()) {
    Cases.push_back({B.Name, OptMode::Linear, true});
    Cases.push_back({B.Name, OptMode::Linear, false});
    Cases.push_back({B.Name, OptMode::Freq, true});
    Cases.push_back({B.Name, OptMode::Freq, false});
    Cases.push_back({B.Name, OptMode::Redundancy, true});
    Cases.push_back({B.Name, OptMode::AutoSel, true});
  }
  return Cases;
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, BenchmarkEquivalence,
                         ::testing::ValuesIn(makeCases()), caseName);

//===----------------------------------------------------------------------===//
// Engine equivalence (bit-identical)
//===----------------------------------------------------------------------===//

using testing_helpers::makeAdder;
using testing_helpers::makeCompressor;
using testing_helpers::makeCountingSource;
using testing_helpers::makeExpander;
using testing_helpers::makeFIR;
using testing_helpers::makeGain;
using testing_helpers::makeIdentity;
using testing_helpers::makePrinterSink;
using testing_helpers::makeSumDiffFilter;

StreamPtr sourcePipeline(std::vector<StreamPtr> Mids) {
  auto P = std::make_unique<Pipeline>("p");
  P->add(makeCountingSource());
  for (StreamPtr &M : Mids)
    P->add(std::move(M));
  P->add(makePrinterSink());
  return P;
}

StreamPtr makeInitWorkFilter() {
  using namespace slin::wir;
  using namespace slin::wir::build;
  // Init work peeks beyond what it pops (peek 5, pop 3), exercising the
  // init scheduler's lookahead-demand computation.
  auto F = std::make_unique<Filter>(
      "initf", std::vector<FieldDef>{},
      WorkFunction(2, 1, 1, stmts(push(add(peek(0), peek(1))), popStmt())));
  F->setInitWork(WorkFunction(
      5, 3, 2, stmts(push(add(pop(), peek(3))), push(add(pop(), pop())))));
  return F;
}

struct GraphCase {
  std::string Name;
  std::function<StreamPtr()> Build;
};

std::vector<GraphCase> engineGraphs() {
  std::vector<GraphCase> G;
  G.push_back({"PeekingFIR", [] {
    std::vector<StreamPtr> M;
    M.push_back(makeFIR({1.5, -2.25, 3.0, 0.5, -0.125, 7.0, 11.0, -13.0}));
    return sourcePipeline(std::move(M));
  }});
  G.push_back({"RateMismatch", [] {
    std::vector<StreamPtr> M;
    M.push_back(makeExpander(3));
    M.push_back(makeGain(0.5));
    M.push_back(makeCompressor(2));
    return sourcePipeline(std::move(M));
  }});
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
  }});
  G.push_back({"RoundRobinSplitJoin", [] {
    auto SJ = std::make_unique<SplitJoin>("sj", Splitter::roundRobin({2, 1}),
                                          Joiner::roundRobin({2, 1}));
    SJ->add(makeGain(1));
    SJ->add(makeGain(-1));
    std::vector<StreamPtr> M;
    M.push_back(std::move(SJ));
    return sourcePipeline(std::move(M));
  }});
  G.push_back({"FeedbackLoop", [] {
    std::vector<StreamPtr> M;
    M.push_back(std::make_unique<FeedbackLoop>(
        "fb", Joiner::roundRobin({1, 1}), makeSumDiffFilter(),
        makeIdentity(), Splitter::roundRobin({1, 1}),
        std::vector<double>{0.5}));
    return sourcePipeline(std::move(M));
  }});
  G.push_back({"InitWork", [] {
    std::vector<StreamPtr> M;
    M.push_back(makeInitWorkFilter());
    return sourcePipeline(std::move(M));
  }});
  G.push_back({"AdderChain", [] {
    std::vector<StreamPtr> M;
    M.push_back(makeAdder(4));
    M.push_back(makeGain(1.0 / 3.0));
    return sourcePipeline(std::move(M));
  }});
  return G;
}

class EngineEquivalence
    : public ::testing::TestWithParam<GraphCase> {};

TEST_P(EngineEquivalence, BitIdenticalOutputs) {
  StreamPtr Root = GetParam().Build();
  size_t N = 96;
  auto Dyn = collectOutputs(*Root, N, Engine::Dynamic);
  auto Comp = collectOutputs(*Root, N, Engine::Compiled);
  // Bit-identical: EXPECT_EQ on the doubles, no tolerance.
  EXPECT_EQ(Dyn, Comp);
}

INSTANTIATE_TEST_SUITE_P(
    TestGraphs, EngineEquivalence, ::testing::ValuesIn(engineGraphs()),
    [](const ::testing::TestParamInfo<GraphCase> &I) { return I.param.Name; });

/// Every benchmark x configuration must also be engine-bit-identical:
/// the configurations cover WIR filters, native FFT filters with init
/// work, and the native linear kernels.
class BenchmarkEngineEquivalence : public ::testing::TestWithParam<Case> {};

TEST_P(BenchmarkEngineEquivalence, BitIdenticalOutputs) {
  const Case &C = GetParam();
  StreamPtr Base;
  for (const BenchmarkEntry &B : allBenchmarks())
    if (B.Name == C.Benchmark)
      Base = B.Build();
  ASSERT_NE(Base, nullptr);
  OptimizerOptions O;
  O.Mode = C.Mode;
  O.Combine = C.Combine;
  StreamPtr Opt = optimize(*Base, O);

  // The frequency filter's batched firings (fireBatch) produce outputs
  // that reach the sink only after the init firing's: by output 847 on
  // every app whose outputs a perturbed fireBatch visibly changes, so
  // the Freq programs compare 1024.
  size_t N = C.Mode == OptMode::Freq ? 1024 : 48;
  auto Dyn = collectOutputs(*Opt, N, Engine::Dynamic);
  auto Comp = collectOutputs(*Opt, N, Engine::Compiled);
  EXPECT_EQ(Dyn, Comp);
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, BenchmarkEngineEquivalence,
                         ::testing::ValuesIn(makeCases()), caseName);

//===----------------------------------------------------------------------===//
// Native-engine column (emitted C++, compiled and dlopen'd)
//===----------------------------------------------------------------------===//

/// The Engine::Native column of the matrix: across the Figure 5-1 suite
/// x {Linear, Freq, AutoSel}, the emitted-C++ engine must be
/// *bit-identical* to the compiled op-tape engine on the very same
/// program — the generated code replays the interpreter's evaluation
/// order and is built with -ffp-contract=off / -fno-builtin, so not even
/// round-off may differ. Without a toolchain the engine degrades to the op tapes,
/// which makes the property trivially true; skip so degradation doesn't
/// masquerade as codegen coverage (the CI no-toolchain arm asserts the
/// degraded path separately).
class BenchmarkNativeEquivalence : public ::testing::TestWithParam<Case> {};

/// True when the discovered compiler both exists and runs: the CI
/// no-toolchain arm names a *nonexistent* SLIN_CXX, which
/// discoverCompiler() returns verbatim, so the empty() check alone would
/// let the suite run degraded and trivially-pass.
bool toolchainWorks() {
  std::string Cxx = codegen::discoverCompiler();
  if (Cxx.empty())
    return false;
  std::string Cmd = "'" + Cxx + "' --version >/dev/null 2>&1";
  int Rc = std::system(Cmd.c_str());
  return Rc != -1 && WIFEXITED(Rc) && WEXITSTATUS(Rc) == 0;
}

TEST_P(BenchmarkNativeEquivalence, BitIdenticalToCompiledEngine) {
  if (!toolchainWorks())
    GTEST_SKIP() << "no working C++ toolchain; Engine::Native degrades "
                    "to op tapes";
  const Case &C = GetParam();
  StreamPtr Base;
  for (const BenchmarkEntry &B : allBenchmarks())
    if (B.Name == C.Benchmark)
      Base = B.Build();
  ASSERT_NE(Base, nullptr);
  OptimizerOptions O;
  O.Mode = C.Mode;
  O.Combine = C.Combine;
  StreamPtr Opt = optimize(*Base, O);

  size_t N = 48;
  auto Comp = collectOutputs(*Opt, N, Engine::Compiled);
  auto Native = collectOutputs(*Opt, N, Engine::Native);
  EXPECT_EQ(Comp, Native);
}

// NOTE (FLOP counts under Engine::Native): the engine-equivalence FLOP
// assertions elsewhere in the suite are *not* replicated for the Native
// column. Emitted machine code performs no op accounting; counting runs
// are dispatched to the op tapes instead (CompiledExecutor's
// counting-gated dispatch), so a FLOP assertion under Engine::Native
// would measure the tape fallback — the identical numbers the Compiled
// column already asserts — while the native code path contributes
// nothing. codegen_test's CountingRunsFallBackToTapesSoFlopsMatchCompiled
// pins that fallback equality; here the assertion is skipped, visibly.
TEST(BenchmarkNativeEquivalence, FlopCountAssertionsNotApplicable) {
  GTEST_SKIP() << "FLOP-count assertions are skipped under Engine::Native: "
                  "emitted code does no op accounting, counting runs fall "
                  "back to the op tapes (see the NOTE above this test)";
}

std::vector<Case> nativeCases() {
  std::vector<Case> Cases;
  for (const BenchmarkEntry &B : allBenchmarks()) {
    Cases.push_back({B.Name, OptMode::Linear, true});
    Cases.push_back({B.Name, OptMode::Freq, true});
    Cases.push_back({B.Name, OptMode::AutoSel, true});
  }
  return Cases;
}

INSTANTIATE_TEST_SUITE_P(Fig51Suite, BenchmarkNativeEquivalence,
                         ::testing::ValuesIn(nativeCases()), caseName);

} // namespace
