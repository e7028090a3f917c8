//===- tests/verify_test.cpp - Abstract-interpretation linter tests -------==//
//
// The WIR linter (src/verify/): the affine abstract executor, the three
// analyses (verify-linear / verify-bounds / verify-state), the mutation
// corpus — programmatically corrupted tapes and shard recipes that the
// linter must flag with precise findings — the clean benchmark
// suite (zero findings), the pipeline degradation path behind the
// lint-verifier-trip fault point, and the artifact-store inventory hook
// the lint-what-you-serve CI mode uses.
//
//===----------------------------------------------------------------------===//

#include "apps/Benchmarks.h"
#include "compiler/ArtifactStore.h"
#include "compiler/Pipeline.h"
#include "compiler/Program.h"
#include "compiler/StructuralHash.h"
#include "linear/AbstractExec.h"
#include "linear/Extract.h"
#include "support/FaultInjection.h"
#include "support/Serialize.h"
#include "verify/Lint.h"
#include "wir/Build.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <unistd.h>

using namespace slin;
using namespace slin::verify;

namespace {

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

StreamPtr buildByName(const std::string &Name) {
  for (const apps::BenchmarkEntry &B : apps::allBenchmarks())
    if (B.Name == Name)
      return B.Build();
  return nullptr;
}

/// First filter node whose name contains \p Sub; -1 when absent.
int findFilter(const CompiledProgram &P, const std::string &Sub) {
  const flat::FlatGraph &G = P.graph();
  for (size_t I = 0; I != G.Nodes.size(); ++I)
    if (G.Nodes[I].Kind == flat::NodeKind::Filter && G.Nodes[I].F &&
        !G.Nodes[I].F->isNative() &&
        G.Nodes[I].Name.find(Sub) != std::string::npos)
      return static_cast<int>(I);
  return -1;
}

/// Serialized wire image of one tape (support/Serialize.h layout:
/// u32 count, then 26 bytes per instruction — K at +0, flags at +1,
/// A/B/C/D at +2/+6/+10/+14, Imm at +18 — then the frame trailer ending
/// with PeekRate, PopRate, PushRate as the last three i32s).
std::vector<uint8_t> tapeBytes(const wir::OpProgram &T) {
  serial::Writer W;
  T.serialize(W);
  return W.bytes();
}

/// Byte offset of instruction \p I's field at intra-instruction offset
/// \p At (0 = opcode, 2 = A, 6 = B, 10 = C, 14 = D, 18 = Imm).
size_t instOffset(size_t I, size_t At) { return 4 + I * 26 + At; }

void patchI32(std::vector<uint8_t> &Bytes, size_t Off, int32_t V) {
  for (int I = 0; I != 4; ++I)
    Bytes[Off + static_cast<size_t>(I)] =
        static_cast<uint8_t>(static_cast<uint32_t>(V) >> (8 * I));
}

/// Deserializes a (possibly patched) wire image; Ok reports acceptance.
wir::OpProgram reload(const std::vector<uint8_t> &Bytes, bool &Ok) {
  serial::Reader R(Bytes);
  wir::OpProgram Out;
  Ok = wir::OpProgram::deserialize(R, Out) && R.ok();
  return Out;
}

/// Index of the first instruction with opcode \p K; -1 when absent.
int findOp(const wir::OpProgram &T, wir::Op K) {
  for (size_t I = 0; I != T.code().size(); ++I)
    if (T.code()[I].K == K)
      return static_cast<int>(I);
  return -1;
}

bool hasErrorContaining(const LintReport &R, const std::string &Sub) {
  for (const Finding &F : R.findings())
    if (F.Sev == Finding::Severity::Error &&
        F.Message.find(Sub) != std::string::npos)
      return true;
  return false;
}

/// Disarms a fault point on scope exit (mirrors fault_test's guard).
class FaultGuard {
public:
  ~FaultGuard() {
    for (int I = 0; I != static_cast<int>(faults::Point::NumPoints); ++I)
      faults::arm(static_cast<faults::Point>(I), 0);
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Clean suite: every benchmark lints with zero findings, and the program
// AutoSel selects for it with zero errors
//===----------------------------------------------------------------------===//

TEST(LintCleanSuite, AllBenchmarksHaveZeroFindings) {
  size_t LinearFiltersChecked = 0;
  for (const apps::BenchmarkEntry &B : apps::allBenchmarks()) {
    StreamPtr Root = B.Build();
    ASSERT_NE(Root, nullptr) << B.Name;
    CompiledProgram P(*Root, CompiledOptions{});
    LintReport R = lintProgram(P);
    EXPECT_TRUE(R.findings().empty())
        << B.Name << " is not lint-clean:\n"
        << R.text();
    // The program AutoSel selects is what runs; it must lint clean too.
    PipelineOptions PO;
    PO.Mode = OptMode::AutoSel;
    PO.Exec.Eng = Engine::Compiled;
    PO.UseProgramCache = false;
    CompileResult Sel = CompilerPipeline(PO).tryCompile(*Root).orDie();
    LintReport RS = lintProgram(*Sel.Program);
    EXPECT_EQ(RS.errorCount(), 0u) << B.Name << " under AutoSel:\n"
                                   << RS.text();
    // The linearity oracle must actually have had work to do.
    const flat::FlatGraph &G = P.graph();
    for (const flat::Node &N : G.Nodes)
      if (N.Kind == flat::NodeKind::Filter && N.F && !N.F->isNative() &&
          extractLinearNode(*N.F).isLinear())
        ++LinearFiltersChecked;
  }
  // Fig 5-1 programs are full of linear filters; a tiny count would mean
  // the oracle is comparing against nothing.
  EXPECT_GE(LinearFiltersChecked, 20u);
}

//===----------------------------------------------------------------------===//
// verify-linear: exact re-derivation of [A, b] from the tape
//===----------------------------------------------------------------------===//

namespace {

/// The shared affine arithmetic on a synthetic filter: negation,
/// constant*affine on both sides, division by a constant, a folded
/// comparison and +/- chains, over inexact coefficients.
std::unique_ptr<Filter> arithmeticFilter() {
  using namespace wir::build;
  wir::WorkFunction W(
      4, 1, 2,
      stmts(push(sub(add(sub(add(neg(peek(0)), mul(cst(0.1), peek(1))),
                             mul(peek(2), cst(0.7))),
                         div(peek(3), cst(3))),
                     lt(cst(2), cst(3)))),
            push(add(sub(mul(cst(-1.5), add(sub(peek(1), peek(0)), peek(2))),
                         div(neg(peek(3)), cst(0.3))),
                     cst(7))),
            popStmt()));
  return std::make_unique<Filter>("Arith", std::vector<wir::FieldDef>{},
                                  std::move(W));
}

} // namespace

TEST(VerifyLinear, TapeRederivesExtractionExactly) {
  StreamPtr Root = buildByName("FIR");
  ASSERT_NE(Root, nullptr);
  CompiledProgram P(*Root, CompiledOptions{});
  int I = findFilter(P, "LowPass");
  ASSERT_GE(I, 0);
  const flat::Node &N = P.graph().Nodes[static_cast<size_t>(I)];
  std::unique_ptr<Filter> Arith = arithmeticFilter();

  struct Input {
    const Filter &F;
    wir::OpProgram Tape;
  };
  const Input Inputs[] = {
      {*N.F, P.filterArtifact(static_cast<size_t>(I)).Work},
      {*Arith, wir::OpProgram::compile(Arith->work(), Arith->fields())},
  };
  for (const Input &In : Inputs) {
    SCOPED_TRACE(In.F.name());
    ExtractionResult Ext = extractLinearNode(In.F);
    ASSERT_TRUE(Ext.isLinear()) << Ext.FailureReason;
    const LinearNode &LN = *Ext.Node;

    TapeSummary Sum = abstractExecute(In.Tape, In.F.fields());
    ASSERT_TRUE(Sum.Completed);
    ASSERT_FALSE(Sum.faulted()) << Sum.Faults.front().Msg;
    ASSERT_EQ(static_cast<int>(Sum.Pushes.size()), LN.pushRate());
    for (int J = 0; J != LN.pushRate(); ++J) {
      const AffineValue &V = Sum.Pushes[static_cast<size_t>(J)];
      ASSERT_TRUE(V.isInputAffine());
      for (int Pk = 0; Pk != LN.peekRate(); ++Pk)
        EXPECT_EQ(V.In[static_cast<size_t>(Pk)], LN.coeff(Pk, J))
            << "peek " << Pk << ", push " << J;
      EXPECT_EQ(V.Const, LN.offset(J)) << "push " << J;
    }

    // And the packaged cross-check agrees with itself: zero disagreements.
    LintReport R;
    lintTapeLinear(In.Tape, In.F, In.F.name(), R);
    EXPECT_EQ(R.errorCount(), 0u) << R.text();
  }
}

TEST(VerifyLinear, ShortCircuitSkipsTheRightOperand) {
  using namespace wir::build;
  // t = peek(1) && pop(): the pop runs on only some inputs, so the pop
  // count is unknown and extraction must decline.
  Filter DataDependent(
      "DataDependent", {},
      wir::WorkFunction(2, 1, 1,
                        stmts(assign("t", bin(wir::BinOp::LAnd, peek(1),
                                              pop())),
                              push(peek(0)))));
  // t = 0 && pop(): the pop never runs; y = peek(0).
  Filter NeverRuns(
      "NeverRuns", {},
      wir::WorkFunction(1, 1, 1,
                        stmts(assign("t", bin(wir::BinOp::LAnd, cst(0),
                                              pop())),
                              push(peek(0)), popStmt())));

  EXPECT_FALSE(extractLinearNode(DataDependent).isLinear());
  ExtractionResult Ext = extractLinearNode(NeverRuns);
  ASSERT_TRUE(Ext.isLinear()) << Ext.FailureReason;
  EXPECT_EQ(Ext.Node->peekRate(), 1);
  EXPECT_EQ(Ext.Node->coeff(0, 0), 1.0);
  EXPECT_EQ(Ext.Node->offset(0), 0.0);

  for (const Filter *F : {&DataDependent, &NeverRuns}) {
    LintReport R;
    lintTapeLinear(wir::OpProgram::compile(F->work(), F->fields()), *F,
                   F->name(), R);
    EXPECT_TRUE(R.findings().empty()) << F->name() << ":\n" << R.text();
  }
}

//===----------------------------------------------------------------------===//
// Mutation corpus: corrupted tapes must be flagged precisely
//===----------------------------------------------------------------------===//

namespace {

/// FMRadio's FloatDiff (push(peek(1) - peek(0)); pop; pop): small,
/// linear, and rich in mutation targets (PeekImm, Sub, rate trailer).
struct DiffFixture {
  StreamPtr Root;
  std::unique_ptr<CompiledProgram> P;
  int Node = -1;

  DiffFixture() {
    Root = buildByName("FMRadio");
    P = std::make_unique<CompiledProgram>(*Root, CompiledOptions{});
    Node = findFilter(*P, "FloatDiff");
  }
  const flat::Node &node() const {
    return P->graph().Nodes[static_cast<size_t>(Node)];
  }
  const wir::OpProgram &tape() const {
    return P->filterArtifact(static_cast<size_t>(Node)).Work;
  }
};

} // namespace

TEST(MutationCorpus, OffByOnePeekIsFlaggedAtItsOffset) {
  DiffFixture F;
  ASSERT_GE(F.Node, 0);
  const wir::OpProgram &Clean = F.tape();
  int Pc = findOp(Clean, wir::Op::PeekImm);
  ASSERT_GE(Pc, 0);
  int Window = std::max(Clean.peekRate(), Clean.popRate());

  std::vector<uint8_t> Bytes = tapeBytes(Clean);
  // PeekImm's window offset is operand B: one past the window is the
  // classic off-by-one.
  patchI32(Bytes, instOffset(static_cast<size_t>(Pc), 6), Window);
  bool Ok = false;
  wir::OpProgram Bad = reload(Bytes, Ok);
  ASSERT_TRUE(Ok) << "patch must survive deserialization to reach the linter";

  LintReport R;
  lintTapeBounds(Bad, F.node().F->fields(), "FloatDiff", R);
  ASSERT_GE(R.errorCount(), 1u);
  EXPECT_TRUE(hasErrorContaining(R, "outside the window")) << R.text();
  bool Anchored = false;
  for (const Finding &Fd : R.findings())
    Anchored |= Fd.Pc == Pc;
  EXPECT_TRUE(Anchored) << "finding must carry the tape offset:\n"
                        << R.text();

  // The linearity oracle independently refuses the mutated tape.
  LintReport RL;
  lintTapeLinear(Bad, *F.node().F, "FloatDiff", RL);
  EXPECT_GE(RL.errorCount(), 1u) << RL.text();
}

TEST(MutationCorpus, WrongPopRateIsFlagged) {
  DiffFixture F;
  ASSERT_GE(F.Node, 0);
  const wir::OpProgram &Clean = F.tape();
  std::vector<uint8_t> Bytes = tapeBytes(Clean);
  // The frame trailer ends ... PeekRate, PopRate, PushRate.
  patchI32(Bytes, Bytes.size() - 8, Clean.popRate() + 1);
  bool Ok = false;
  wir::OpProgram Bad = reload(Bytes, Ok);
  ASSERT_TRUE(Ok);
  ASSERT_EQ(Bad.popRate(), Clean.popRate() + 1);

  LintReport R;
  lintTapeBounds(Bad, F.node().F->fields(), "FloatDiff", R);
  ASSERT_GE(R.errorCount(), 1u);
  EXPECT_TRUE(hasErrorContaining(R, "declared pop rate")) << R.text();
}

TEST(MutationCorpus, NonlinearOpInjectionIsFlagged) {
  DiffFixture F;
  ASSERT_GE(F.Node, 0);
  const wir::OpProgram &Clean = F.tape();
  int Pc = findOp(Clean, wir::Op::Sub);
  ASSERT_GE(Pc, 0);

  std::vector<uint8_t> Bytes = tapeBytes(Clean);
  // peek - peek becomes peek * peek: same operands, nonlinear result.
  Bytes[instOffset(static_cast<size_t>(Pc), 0)] =
      static_cast<uint8_t>(wir::Op::Mul);
  bool Ok = false;
  wir::OpProgram Bad = reload(Bytes, Ok);
  ASSERT_TRUE(Ok);

  // Extraction still claims linear (it analyzes the IR, not the tape);
  // the tape-side oracle must report the disagreement.
  LintReport R;
  lintTapeLinear(Bad, *F.node().F, "FloatDiff", R);
  ASSERT_GE(R.errorCount(), 1u);
  EXPECT_TRUE(hasErrorContaining(R, "not affine")) << R.text();
}

TEST(MutationCorpus, DroppedAccumulationIsACoefficientMismatch) {
  // FMRadio's Adder sums its window in a loop; turning the counted Add
  // into a Copy of one operand leaves an affine tape whose matrix is
  // wrong — the oracle must name expected vs. derived coefficients.
  StreamPtr Root = buildByName("FMRadio");
  ASSERT_NE(Root, nullptr);
  CompiledProgram P(*Root, CompiledOptions{});
  int I = findFilter(P, "Adder");
  ASSERT_GE(I, 0);
  const flat::Node &N = P.graph().Nodes[static_cast<size_t>(I)];
  const wir::OpProgram &Clean = P.filterArtifact(static_cast<size_t>(I)).Work;
  int Pc = findOp(Clean, wir::Op::Add);
  ASSERT_GE(Pc, 0);

  std::vector<uint8_t> Bytes = tapeBytes(Clean);
  Bytes[instOffset(static_cast<size_t>(Pc), 0)] =
      static_cast<uint8_t>(wir::Op::Copy);
  bool Ok = false;
  wir::OpProgram Bad = reload(Bytes, Ok);
  ASSERT_TRUE(Ok);

  LintReport R;
  lintTapeLinear(Bad, *N.F, N.Name, R);
  ASSERT_GE(R.errorCount(), 1u);
  EXPECT_TRUE(hasErrorContaining(R, "extraction says") ||
              hasErrorContaining(R, "not affine"))
      << R.text();
}

TEST(MutationCorpus, CorruptRegisterOperandIsStructurallyRejected) {
  DiffFixture F;
  ASSERT_GE(F.Node, 0);
  std::vector<uint8_t> Bytes = tapeBytes(F.tape());
  // First instruction's A operand -> far outside the register frame.
  // deserialize() accepts it (it only validates opcodes and jump
  // targets); checkWellFormed must refuse to execute it.
  patchI32(Bytes, instOffset(0, 2), 100000);
  bool Ok = false;
  wir::OpProgram Bad = reload(Bytes, Ok);
  ASSERT_TRUE(Ok);

  std::vector<TapeFault> Faults;
  EXPECT_FALSE(checkWellFormed(Bad, F.node().F->fields(), Faults));
  ASSERT_FALSE(Faults.empty());

  LintReport R;
  lintTapeBounds(Bad, F.node().F->fields(), "FloatDiff", R);
  EXPECT_GE(R.errorCount(), 1u);
}

TEST(MutationCorpus, ReadBeforeWriteIsStructurallyRejected) {
  // FIR's source stores its cursor; point the store at a fresh register
  // no instruction writes. At runtime that register would carry the
  // previous firing's frame value, so the tape is malformed — and its
  // state cannot be classified.
  StreamPtr Root = buildByName("FIR");
  ASSERT_NE(Root, nullptr);
  CompiledProgram P(*Root, CompiledOptions{});
  int I = findFilter(P, "Source");
  ASSERT_GE(I, 0);
  const flat::Node &N = P.graph().Nodes[static_cast<size_t>(I)];
  const wir::OpProgram &Clean = P.filterArtifact(static_cast<size_t>(I)).Work;
  ASSERT_TRUE(classifySteadyState(Clean, N.F->fields()).Reconstructable);
  int Pc = findOp(Clean, wir::Op::StoreFld);
  ASSERT_GE(Pc, 0);

  std::vector<uint8_t> Bytes = tapeBytes(Clean);
  // The frame trailer ends NumRegs, ArrStoreSize, PeekRate, PopRate,
  // PushRate: grow the frame by one register and store from it.
  patchI32(Bytes, Bytes.size() - 20, Clean.numRegs() + 1);
  patchI32(Bytes, instOffset(static_cast<size_t>(Pc), 2), Clean.numRegs());
  bool Ok = false;
  wir::OpProgram Bad = reload(Bytes, Ok);
  ASSERT_TRUE(Ok);

  std::vector<TapeFault> Faults;
  EXPECT_FALSE(checkWellFormed(Bad, N.F->fields(), Faults));
  ASSERT_FALSE(Faults.empty());
  EXPECT_EQ(Faults.front().Pc, Pc);
  EXPECT_NE(Faults.front().Msg.find("read before any write"),
            std::string::npos)
      << Faults.front().Msg;

  SteadyStateInfo Class = classifySteadyState(Bad, N.F->fields());
  EXPECT_FALSE(Class.Reconstructable);
  EXPECT_NE(Class.Reason.find("read before any write"), std::string::npos)
      << Class.Reason;
}

TEST(MutationCorpus, MislabeledStateClassIsFlagged) {
  // FIR's source advances a cursor modulo its 16-entry table; the
  // program's ShardInfo seeds it. The seed is the last 40 bytes of the
  // serialized program (node, field, base, first step, steady step,
  // modulus), after its u32 count. Each corrupted recipe, loaded back,
  // must fail verify-state; the faithful one must audit clean.
  StreamPtr Root = buildByName("FIR");
  ASSERT_NE(Root, nullptr);
  CompiledProgram P(*Root, CompiledOptions{});
  ASSERT_TRUE(P.shardInfo().Shardable) << P.shardInfo().Reason;
  ASSERT_EQ(P.shardInfo().Seeds.size(), 1u);
  const CompiledProgram::ShardInfo::FieldSeed Seed = P.shardInfo().Seeds[0];
  ASSERT_EQ(Seed.Modulus, 16.0);
  serial::Writer W;
  ASSERT_TRUE(serializeProgram(W, P));
  const std::vector<uint8_t> Clean = W.bytes();

  auto PatchF64 = [](std::vector<uint8_t> &B, size_t FromEnd, double V) {
    uint64_t Bits;
    std::memcpy(&Bits, &V, sizeof(Bits));
    for (size_t I = 0; I != 8; ++I)
      B[B.size() - FromEnd + I] = static_cast<uint8_t>(Bits >> (8 * I));
  };
  auto Audit = [](const std::vector<uint8_t> &Bytes) {
    serial::Reader Rd(Bytes);
    std::shared_ptr<const CompiledProgram> Loaded = deserializeProgram(Rd);
    LintReport R;
    if (!Loaded) {
      R.error("load", "FIR", -1, "mutated program failed to load");
      return R;
    }
    verifyState(*Loaded, R);
    return R;
  };

  {
    LintReport R = Audit(Clean);
    EXPECT_EQ(R.errorCount(), 0u) << R.text();
  }
  {
    std::vector<uint8_t> B = Clean; // wrong stride
    PatchF64(B, 16, Seed.DeltaRest + 1.0);
    LintReport R = Audit(B);
    EXPECT_TRUE(hasErrorContaining(R, "disagrees with the tape's state"))
        << R.text();
  }
  {
    std::vector<uint8_t> B = Clean; // modulus dropped
    PatchF64(B, 8, 0.0);
    LintReport R = Audit(B);
    EXPECT_TRUE(hasErrorContaining(R, "disagrees with the tape's state"))
        << R.text();
  }
  {
    std::vector<uint8_t> B = Clean; // modulus doubled
    PatchF64(B, 8, Seed.Modulus * 2.0);
    LintReport R = Audit(B);
    EXPECT_TRUE(hasErrorContaining(R, "disagrees with the tape's state"))
        << R.text();
  }
  {
    std::vector<uint8_t> B = Clean; // the cursor's seed removed
    B.resize(B.size() - 40);
    patchI32(B, B.size() - 4, 0);
    LintReport R = Audit(B);
    EXPECT_TRUE(hasErrorContaining(R, "diverges from the sequential run"))
        << R.text();
  }
}

TEST(VerifyState, ExternallyFedShardRecipeAuditsClean) {
  // No source: the audit feeds zeros to the external input on both
  // sides, enough for the peek window, the washout and the batch.
  using namespace wir::build;
  auto Root = std::make_unique<Pipeline>("ext");
  std::vector<wir::FieldDef> Fields = {
      wir::FieldDef::mutableScalar("last", 0.5),
      wir::FieldDef::mutableScalar("n", 0)};
  Root->add(std::make_unique<Filter>(
      "DelayCount", std::move(Fields),
      wir::WorkFunction(3, 1, 1,
                        stmts(push(add(fld("last"), add(peek(2), fld("n")))),
                              fldAssign("last", pop()),
                              fldAssign("n", add(fld("n"), cst(1)))))));
  CompiledProgram P(*Root, CompiledOptions{});
  ASSERT_TRUE(P.shardInfo().Shardable) << P.shardInfo().Reason;
  ASSERT_GE(P.shardInfo().WashoutIterations, 1);
  LintReport R;
  EXPECT_EQ(verifyState(P, R), "") << R.text();
}

//===----------------------------------------------------------------------===//
// Pipeline integration: the lint passes run under SLIN_VERIFY and their
// failures take the recoverable degradation path
//===----------------------------------------------------------------------===//

TEST(LintPipeline, LintVerifierTripDegradesRecoverably) {
  FaultGuard G;
  StreamPtr Root = buildByName("FIR");
  ASSERT_NE(Root, nullptr);
  PipelineOptions PO;
  PO.Mode = OptMode::Linear;
  PO.Exec.Eng = Engine::Compiled;
  PO.VerifyAfterEachPass = true;
  PO.UseProgramCache = false;
  faults::arm(faults::Point::LintVerifierTrip, 1);
  Expected<CompileResult> R = CompilerPipeline(PO).tryCompile(*Root);
  ASSERT_TRUE(R) << R.status().str();
  EXPECT_TRUE(R->Degraded);
  EXPECT_NE(R->DegradeReason.find("lint-verifier trip"), std::string::npos)
      << R->DegradeReason;
  ASSERT_NE(R->Program, nullptr);
}

TEST(LintPipeline, PersistentLintFailureSurfacesAStatus) {
  FaultGuard G;
  StreamPtr Root = buildByName("FIR");
  ASSERT_NE(Root, nullptr);
  PipelineOptions PO;
  PO.Mode = OptMode::Linear;
  PO.Exec.Eng = Engine::Compiled;
  PO.VerifyAfterEachPass = true;
  PO.UseProgramCache = false;
  faults::arm(faults::Point::LintVerifierTrip, 1, /*Persistent=*/true);
  Expected<CompileResult> R = CompilerPipeline(PO).tryCompile(*Root);
  ASSERT_FALSE(R); // even the Base-mode rung tripped: nothing left
  EXPECT_EQ(R.status().code(), ErrorCode::VerifyFailed);
}

TEST(LintPipeline, CleanCompileRunsLintPassesWithoutFindings) {
  StreamPtr Root = buildByName("FIR");
  ASSERT_NE(Root, nullptr);
  PipelineOptions PO;
  PO.Exec.Eng = Engine::Compiled;
  PO.VerifyAfterEachPass = true;
  PO.UseProgramCache = false;
  CompileResult R = compileStream(*Root, PO);
  ASSERT_NE(R.Program, nullptr);
  bool SawLinear = false, SawBounds = false, SawState = false;
  for (const PassInfo &Pass : R.Passes) {
    SawLinear |= Pass.Name == "verify-linear";
    SawBounds |= Pass.Name == "verify-bounds";
    SawState |= Pass.Name == "verify-state";
  }
  EXPECT_TRUE(SawLinear && SawBounds && SawState)
      << "lint passes missing from the pass list";
}

//===----------------------------------------------------------------------===//
// Store inventory: the lint-what-you-serve hook
//===----------------------------------------------------------------------===//

TEST(StoreInventory, ListArtifactsRoundTripsKeys) {
  std::string Dir =
      (std::filesystem::temp_directory_path() /
       ("slin-verify-test-" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(Dir);
  ArtifactStore Store(Dir);

  StreamPtr Root = buildByName("FIR");
  ASSERT_NE(Root, nullptr);
  CompiledOptions Opts;
  CompiledProgram P(*Root, Opts);
  ArtifactStore::Key K{structuralHash(P.root()), hashOptions(Opts)};
  ASSERT_TRUE(Store.tryStore(K, P).isOk());

  std::vector<ArtifactStore::Key> Keys = Store.listArtifacts();
  ASSERT_EQ(Keys.size(), 1u);
  EXPECT_TRUE(Keys[0].Structure == K.Structure);
  EXPECT_TRUE(Keys[0].Options == K.Options);

  // The listed key loads, and what the store serves lints clean.
  std::shared_ptr<const CompiledProgram> Loaded =
      Store.tryLoad(Keys[0]).orDie();
  ASSERT_NE(Loaded, nullptr);
  EXPECT_TRUE(Loaded->loadedFromArtifact());
  LintReport R = lintProgram(*Loaded);
  EXPECT_TRUE(R.findings().empty()) << R.text();

  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);
}
