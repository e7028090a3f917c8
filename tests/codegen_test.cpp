//===- tests/codegen_test.cpp - Native codegen engine tests ---------------==//
//
// The emitted-C++ native engine (src/codegen/ + wir/CxxEmit.h): hexfloat
// literal round trips, bit-identity of emitted tape code and emitted
// linear batch kernels against the op-tape interpreter, the warm-restart
// path (a stored .so dlopens with zero compiler passes and zero codegen),
// the SLIN_NO_CACHE disk-tier bypass, clean degradation without a
// toolchain (SLIN_CXX=/nonexistent) and under SLIN_NO_NATIVE, compile
// failure reasons that quote the error, one emitted body per tape shape
// (exact counts, Radar included), constant tables that keep awkward
// doubles bit-exact, warning-free emitted parts, the split build (shapes
// partitioned across concurrently compiled parts linked into one .so,
// and a failing part that leaves no child process or file behind), the
// pipeline's native-codegen pass bookkeeping, and FLOP-count preservation
// (counting runs fall back to the tapes, so Engine::Native reports the
// interpreter's numbers).
//
// Every native compile here shells out to the real toolchain; tests that
// need one GTEST_SKIP when discoverCompiler() finds none.
//
//===----------------------------------------------------------------------===//

#include "apps/Benchmarks.h"
#include "codegen/CxxBackend.h"
#include "codegen/NativeModule.h"
#include "compiler/ArtifactStore.h"
#include "compiler/Pipeline.h"
#include "compiler/Program.h"
#include "exec/CompiledExecutor.h"
#include "exec/Measure.h"
#include "support/OpCounters.h"
#include "support/RuntimeConfig.h"
#include "wir/CxxEmit.h"
#include "TestGraphs.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sys/wait.h>
#include <unistd.h>

using namespace slin;
using namespace slin::testing_helpers;

namespace {

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

/// Scoped environment override; restores the previous value (or absence).
/// Refreshes the RuntimeConfig snapshot both ways so the override is
/// visible to every config-reading call site in between.
class EnvGuard {
public:
  EnvGuard(const char *Name, const char *Value) : Name(Name) {
    if (const char *Old = std::getenv(Name)) {
      Saved = Old;
      Had = true;
    }
    if (Value)
      ::setenv(Name, Value, 1);
    else
      ::unsetenv(Name);
    RuntimeConfig::refreshFromEnv();
  }
  ~EnvGuard() {
    if (Had)
      ::setenv(Name.c_str(), Saved.c_str(), 1);
    else
      ::unsetenv(Name.c_str());
    RuntimeConfig::refreshFromEnv();
  }

private:
  std::string Name;
  std::string Saved;
  bool Had = false;
};

/// Clears the process-global native-module cache (modules AND negative
/// entries AND stats) on entry and exit, so no test sees a neighbour's
/// memoization.
struct NativeGuard {
  NativeGuard() {
    codegen::NativeModuleCache::global().clear();
    codegen::NativeModuleCache::global().resetStats();
  }
  ~NativeGuard() {
    codegen::NativeModuleCache::global().clear();
    codegen::NativeModuleCache::global().resetStats();
  }
};

/// A scoped artifact directory for the process-global store.
class StoreGuard {
public:
  StoreGuard() {
    Dir = (std::filesystem::temp_directory_path() /
           ("slin-codegen-test-" + std::to_string(::getpid()) + "-" +
            std::to_string(Counter++)))
              .string();
    ArtifactStore::setGlobalDir(Dir);
    ProgramCache::global().clear();
    ProgramCache::global().resetStats();
  }
  ~StoreGuard() {
    ArtifactStore::setGlobalDir("");
    ProgramCache::global().clear();
    ProgramCache::global().resetStats();
    std::error_code EC;
    std::filesystem::remove_all(Dir, EC);
  }

  const std::string &dir() const { return Dir; }

  /// Published native objects ("o-*.so", final names only).
  size_t objectCount() const {
    size_t N = 0;
    for (auto It = std::filesystem::directory_iterator(Dir);
         It != std::filesystem::directory_iterator(); ++It) {
      std::string F = It->path().filename().string();
      if (F.rfind("o-", 0) == 0 && F.find(".tmp.") == std::string::npos)
        ++N;
    }
    return N;
  }

private:
  static int Counter;
  std::string Dir;
};

int StoreGuard::Counter = 0;

StreamPtr firSourcePipeline(std::vector<double> Taps,
                            const std::string &Name = "fir") {
  auto P = std::make_unique<Pipeline>(Name);
  P->add(makeCountingSource());
  P->add(makeFIR(std::move(Taps)));
  P->add(makePrinterSink());
  return P;
}

/// A pipeline that exercises the tape emitter's full surface: field
/// state (the counting source), peeks (FIR), an intrinsic call, and
/// init work that peeks beyond what it pops.
StreamPtr tapeZooPipeline() {
  using namespace slin::wir;
  using namespace slin::wir::build;
  auto P = std::make_unique<Pipeline>("zoo");
  P->add(makeCountingSource());
  P->add(makeFIR({1.5, -2.25, 1.0 / 3.0, 0.5, -0.125, 7.0, 11.0, -13.0}));
  P->add(std::make_unique<Filter>(
      "sinmod", std::vector<FieldDef>{},
      WorkFunction(1, 1, 1, stmts(push(mul(sinE(pop()), cst(0.25)))))));
  {
    auto F = std::make_unique<Filter>(
        "initf", std::vector<FieldDef>{},
        WorkFunction(2, 1, 1, stmts(push(add(peek(0), peek(1))), popStmt())));
    F->setInitWork(WorkFunction(
        5, 3, 2, stmts(push(add(pop(), peek(3))), push(add(pop(), pop())))));
    P->add(std::move(F));
  }
  P->add(makePrinterSink());
  return P;
}

/// N filters that differ only in their constants (Const and AddImm
/// immediates), reading external input: one tape shape, N entry points.
StreamPtr coefficientVariantsPipeline(int N) {
  using namespace slin::wir;
  using namespace slin::wir::build;
  auto P = std::make_unique<Pipeline>("variants");
  for (int I = 0; I != N; ++I) {
    double C0 = 1.5 + I, C1 = -0.25 - I, Off = 1.0 / (I + 3);
    P->add(std::make_unique<Filter>(
        "taps" + std::to_string(I), std::vector<FieldDef>{},
        WorkFunction(2, 1, 1,
                     stmts(push(add(add(mul(cst(C0), peek(0)),
                                        mul(cst(C1), peek(1))),
                                    cst(Off))),
                           popStmt()))));
  }
  return P;
}

/// Doubles that a constant table must carry bit for bit.
const uint64_t AwkwardBits[] = {
    0x8000000000000000ULL, // -0.0
    0x7ff0000000000000ULL, // +Inf
    0xfff800000000beefULL, // negative quiet NaN with a payload
    0x0000000000000003ULL, // subnormal
};

double fromBits(uint64_t Bits) {
  double D;
  std::memcpy(&D, &Bits, sizeof(D));
  return D;
}

/// Source -> a filter that uses every awkward double both as a Const
/// (pushed as is) and as an AddImm (added to its input) -> printer.
StreamPtr awkwardConstantsPipeline() {
  using namespace slin::wir;
  using namespace slin::wir::build;
  StmtList Body;
  Body.push_back(assign("x", pop()));
  for (uint64_t Bits : AwkwardBits) {
    Body.push_back(push(cst(fromBits(Bits))));
    Body.push_back(push(add(vr("x"), cst(fromBits(Bits)))));
  }
  auto P = std::make_unique<Pipeline>("awkward");
  P->add(makeCountingSource());
  P->add(std::make_unique<Filter>(
      "awkward", std::vector<FieldDef>{},
      WorkFunction(1, 1, 2 * static_cast<int>(std::size(AwkwardBits)),
                   std::move(Body))));
  P->add(makePrinterSink());
  return P;
}

size_t occurrences(const std::string &Text, const std::string &Needle) {
  size_t N = 0;
  for (size_t At = Text.find(Needle); At != std::string::npos;
       At = Text.find(Needle, At + Needle.size()))
    ++N;
  return N;
}

/// All of a program's parts as one text, for counts across parts.
std::string joined(const std::vector<std::string> &Parts) {
  std::string All;
  for (const std::string &Part : Parts)
    All += Part;
  return All;
}

/// Emitted shape bodies and extern "C" entry points in \p Src.
size_t shapeCount(const std::string &Src) {
  return occurrences(Src, "SLIN_SHAPE_ void slin_s");
}
size_t entryPointCount(const std::string &Src) {
  return occurrences(Src, "extern \"C\" void slin_f");
}

/// The nine fig 5-1 apps under AutoSel, lowered once per test binary.
const std::vector<std::pair<std::string, CompiledProgramRef>> &
autoSelApps() {
  static const auto Apps = [] {
    std::vector<std::pair<std::string, CompiledProgramRef>> V;
    for (const apps::BenchmarkEntry &B : apps::allBenchmarks()) {
      StreamPtr Root = B.Build();
      PipelineOptions PO;
      PO.Mode = OptMode::AutoSel;
      PO.Exec.Eng = Engine::Compiled;
      PO.UseProgramCache = false;
      CompileResult R = CompilerPipeline(PO).tryCompile(*Root).orDie();
      V.emplace_back(B.Name, R.Program);
    }
    return V;
  }();
  return Apps;
}

CompiledProgramRef makeProgram(const Stream &Root,
                               CompiledOptions Opts = CompiledOptions()) {
  return std::make_shared<const CompiledProgram>(Root, Opts);
}

/// First N outputs of a fresh executor, with \p M attached (null: tapes).
std::vector<double> runWith(const CompiledProgramRef &P,
                            codegen::NativeModuleRef M, size_t N) {
  CompiledExecutor E(P, std::move(M));
  E.tryRun(N).orDie();
  std::vector<double> Out =
      E.printed().empty() ? E.outputSnapshot() : E.printed();
  if (Out.size() > N)
    Out.resize(N);
  return Out;
}

/// True when the discovered compiler both exists and runs: the CI
/// no-toolchain arm points SLIN_CXX at a nonexistent path, which
/// discoverCompiler() returns verbatim — tests that need a *working*
/// toolchain must probe it, not just name it. Deliberately unmemoized
/// (tests flip SLIN_CXX around it).
bool haveToolchain() {
  std::string Cxx = codegen::discoverCompiler();
  if (Cxx.empty())
    return false;
  std::string Cmd = "'" + Cxx + "' --version >/dev/null 2>&1";
  int Rc = std::system(Cmd.c_str());
  return Rc != -1 && WIFEXITED(Rc) && WEXITSTATUS(Rc) == 0;
}

//===----------------------------------------------------------------------===//
// Literal emission
//===----------------------------------------------------------------------===//

TEST(CxxEmit, DoubleLiteralRoundTripsBitExactly) {
  // Hexfloat literals parse back to the same bits — the property the
  // whole bit-identity contract rests on for embedded constants.
  const double Values[] = {0.0,
                           1.0,
                           -1.0,
                           1.0 / 3.0,
                           0.1,
                           -2.5e-7,
                           3.141592653589793,
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::min(),
                           std::numeric_limits<double>::denorm_min(),
                           -4.9406564584124654e-324};
  for (double V : Values) {
    std::string L = wir::cxxDoubleLiteral(V);
    double Back = std::strtod(L.c_str(), nullptr);
    EXPECT_EQ(0, std::memcmp(&V, &Back, sizeof(double)))
        << "literal " << L << " for " << V;
  }
  // Negative zero keeps its sign bit.
  double NZ = -0.0;
  double Back = std::strtod(wir::cxxDoubleLiteral(NZ).c_str(), nullptr);
  EXPECT_TRUE(std::signbit(Back));
  // Non-finite values route through the bit-pattern helper (strtod
  // cannot express them portably).
  EXPECT_EQ(wir::cxxDoubleLiteral(std::nan("")).rfind("slin_bits_(", 0), 0u);
  EXPECT_EQ(wir::cxxDoubleLiteral(std::numeric_limits<double>::infinity())
                .rfind("slin_bits_(", 0),
            0u);
}

//===----------------------------------------------------------------------===//
// Toolchain discovery
//===----------------------------------------------------------------------===//

TEST(NativeCodegen, SlinCxxOverridesDiscoveryVerbatim) {
  EnvGuard CXX("SLIN_CXX", "/nonexistent/slin-test-cxx");
  // Verbatim, no probing: the CI no-toolchain arm depends on a missing
  // path surfacing at compile time, not being silently skipped.
  EXPECT_EQ(codegen::discoverCompiler(), "/nonexistent/slin-test-cxx");
}

//===----------------------------------------------------------------------===//
// Bit-identity
//===----------------------------------------------------------------------===//

TEST(NativeCodegen, EmittedTapesBitIdenticalToInterpreter) {
  if (!haveToolchain())
    GTEST_SKIP() << "no C++ toolchain available";
  NativeGuard NG;
  StreamPtr Root = tapeZooPipeline();
  CompiledProgramRef P = makeProgram(*Root);

  std::string Reason;
  codegen::NativeModuleRef M =
      codegen::NativeModuleCache::global().get(*P, &Reason);
  ASSERT_NE(M, nullptr) << Reason;
  EXPECT_TRUE(M->hasAnyFn());

  // 257 outputs: covers init firings, whole batches and a remainder.
  auto Tapes = runWith(P, nullptr, 257);
  auto Native = runWith(P, M, 257);
  EXPECT_EQ(Tapes, Native); // EXPECT_EQ on doubles: bit-identical
}

TEST(NativeCodegen, EmittedLinearKernelBitIdenticalToHostKernel) {
  if (!haveToolchain())
    GTEST_SKIP() << "no C++ toolchain available";
  NativeGuard NG;
  // Linear replacement collapses the FIR into a PackedLinearFilter whose
  // batch kernel the backend re-emits as C++ (Kernels.cpp
  // emitBatchedCxx); outputs must match the host kernel bit-for-bit.
  StreamPtr Root = firSourcePipeline(
      {0.25, -1.5, 1.0 / 7.0, 3.25, -0.875, 2.0 / 3.0, 5.5, -1.0 / 9.0});
  PipelineOptions PO;
  PO.Mode = OptMode::Linear;
  PO.Exec.Eng = Engine::Native;
  PO.UseProgramCache = false;
  CompileResult R = compileStream(*Root, PO);
  ASSERT_NE(R.Program, nullptr);
  EXPECT_FALSE(R.Degraded) << R.DegradeReason;

  codegen::NativeModuleRef M =
      codegen::NativeModuleCache::global().get(*R.Program);
  ASSERT_NE(M, nullptr);
  auto Host = runWith(R.Program, nullptr, 200);
  auto Native = runWith(R.Program, M, 200);
  EXPECT_EQ(Host, Native);
}

//===----------------------------------------------------------------------===//
// One body per tape shape
//===----------------------------------------------------------------------===//

TEST(CxxBackend, FiltersDifferingOnlyInConstantsShareOneShape) {
  // Exact counts: a constant re-inlined into the body would make every
  // filter its own shape.
  const int N = 6;
  StreamPtr Root = coefficientVariantsPipeline(N);
  CompiledProgramRef P = makeProgram(*Root);
  std::vector<std::string> Parts;
  EXPECT_EQ(codegen::emitProgramSource(*P, Parts, 4), N);
  ASSERT_EQ(Parts.size(), 1u); // one shape: nothing to split
  const std::string &Src = Parts[0];
  EXPECT_EQ(shapeCount(Src), 1u) << Src;
  EXPECT_EQ(entryPointCount(Src), static_cast<size_t>(N));
  for (int I = 0; I != N; ++I)
    EXPECT_NE(Src.find("slin_s0(slin_f" + std::to_string(I) + "_c, "),
              std::string::npos)
        << "node " << I << " does not trampoline into the shared shape";
}

TEST(CxxBackend, RadarEmitsEightShapesForFiftyEntryPoints) {
  // Radar's twelve channels run the same filters with their own
  // coefficients.
  for (const auto &[Name, P] : autoSelApps()) {
    if (Name != "Radar")
      continue;
    std::vector<std::string> Parts;
    EXPECT_EQ(codegen::emitProgramSource(*P, Parts, 4), 50);
    std::string Src = joined(Parts);
    EXPECT_EQ(shapeCount(Src), 8u);
    EXPECT_EQ(entryPointCount(Src), 50u);
    return;
  }
  FAIL() << "no Radar benchmark";
}

//===----------------------------------------------------------------------===//
// The split build: shapes across concurrently compiled parts, one .so
//===----------------------------------------------------------------------===//

/// The AutoSel program of the app named \p Name (null when none).
CompiledProgramRef autoSelApp(const std::string &Name) {
  for (const auto &[N, P] : autoSelApps())
    if (N == Name)
      return P;
  return nullptr;
}

/// Radar under AutoSel, compiled fresh (the optimized stream included).
CompileResult radarAutoSel() {
  for (const apps::BenchmarkEntry &B : apps::allBenchmarks())
    if (B.Name == "Radar") {
      StreamPtr Root = B.Build();
      PipelineOptions PO;
      PO.Mode = OptMode::AutoSel;
      PO.Exec.Eng = Engine::Compiled;
      PO.UseProgramCache = false;
      return CompilerPipeline(PO).tryCompile(*Root).orDie();
    }
  ADD_FAILURE() << "no Radar benchmark";
  return CompileResult();
}

TEST(CxxBackend, RadarSplitsIntoFourSelfContainedParts) {
  CompiledProgramRef P = autoSelApp("Radar");
  ASSERT_NE(P, nullptr);
  std::vector<std::string> Parts, Again;
  EXPECT_EQ(codegen::emitProgramSource(*P, Parts, 4), 50);
  EXPECT_EQ(codegen::emitProgramSource(*P, Again, 4), 50);
  EXPECT_EQ(Parts, Again); // the split is a function of the program
  ASSERT_EQ(Parts.size(), 4u);

  // One ABI symbol, in part 0; every part carries the preamble.
  EXPECT_EQ(occurrences(joined(Parts), "slin_abi_version_"), 1u);
  EXPECT_NE(Parts[0].find("slin_abi_version_"), std::string::npos);
  for (const std::string &Part : Parts) {
    EXPECT_NE(Part.find("struct SlinNativeCtx"), std::string::npos);
    EXPECT_GT(shapeCount(Part), 0u);
  }

  // Each shape is defined in exactly one part, and every trampoline
  // into it sits in that part too: no symbol crosses a part.
  size_t Trampolines = 0;
  for (size_t J = 0; J != 8; ++J) {
    std::string Shape = "slin_s" + std::to_string(J);
    size_t Home = Parts.size();
    for (size_t K = 0; K != Parts.size(); ++K) {
      if (Parts[K].find("SLIN_SHAPE_ void " + Shape + "(") ==
          std::string::npos) {
        EXPECT_EQ(occurrences(Parts[K], Shape + "("), 0u)
            << Shape << " is called from part " << K;
        continue;
      }
      EXPECT_EQ(Home, Parts.size()) << Shape << " is defined twice";
      Home = K;
      Trampolines += occurrences(Parts[K], Shape + "(") - 1;
    }
    EXPECT_NE(Home, Parts.size()) << Shape << " is not defined";
  }
  EXPECT_EQ(Trampolines, 50u);
}

TEST(NativeCodegen, RadarSplitBuildIsOneModuleBitIdenticalToDynamic) {
  if (!haveToolchain())
    GTEST_SKIP() << "no C++ toolchain available";
  NativeGuard NG;
  CompileResult R = radarAutoSel();
  ASSERT_NE(R.Program, nullptr);
  std::string Tmp = (std::filesystem::temp_directory_path() /
                     ("slin-codegen-split-" + std::to_string(::getpid())))
                        .string();
  std::filesystem::create_directories(Tmp);

  std::string Reason;
  codegen::NativeModuleRef M;
  {
    EnvGuard TD("TMPDIR", Tmp.c_str());
    M = codegen::NativeModuleCache::global().get(*R.Program, &Reason);
  }
  // No job is left running and no scratch file is left behind.
  errno = 0;
  EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
  EXPECT_TRUE(std::filesystem::is_empty(Tmp));
  std::filesystem::remove_all(Tmp);
  ASSERT_NE(M, nullptr) << Reason;
  size_t Resolved = 0;
  for (size_t I = 0; I != R.Program->graph().Nodes.size(); ++I) {
    const codegen::NodeFns &F = M->node(I);
    Resolved += (F.Work != nullptr) + (F.Init != nullptr) +
                (F.Batch != nullptr);
  }
  EXPECT_EQ(Resolved, 50u);
  // One build, however many $CXX jobs it ran.
  EXPECT_EQ(codegen::NativeModuleCache::global().stats().Compiles, 1u);

  auto Native = runWith(R.Program, M, 1024);
  ASSERT_EQ(Native.size(), 1024u);
  EXPECT_EQ(Native, collectOutputs(*R.Optimized, 1024, Engine::Dynamic));
}

TEST(NativeCodegen, FailingPartDegradesAndLeavesNothingBehind) {
  // A stand-in compiler that refuses the parts defining slin_s1 or
  // slin_s2 and takes its time over the others: the build must quote the
  // first refused part in part order, wait for every job, and leave no
  // child, scratch file or store temp. Split four ways, slin_s2 (the
  // largest shape) opens part 0 and slin_s1 sits in the last part, so
  // jobs are still running when the first failure is reaped.
  NativeGuard NG;
  CompiledProgramRef P = autoSelApp("Radar");
  ASSERT_NE(P, nullptr);
  std::vector<std::string> Parts;
  codegen::emitProgramSource(*P, Parts, codegen::nativeJobLimit());
  std::vector<size_t> Refused;
  for (size_t K = 0; K != Parts.size(); ++K)
    if (Parts[K].find("slin_s1(") != std::string::npos ||
        Parts[K].find("slin_s2(") != std::string::npos)
      Refused.push_back(K);
  ASSERT_FALSE(Refused.empty());

  std::filesystem::path Base = std::filesystem::temp_directory_path();
  std::string Tag = std::to_string(::getpid());
  std::string Script = (Base / ("slin-fake-cxx-part-" + Tag + ".sh")).string();
  std::string Tmp = (Base / ("slin-codegen-tmpdir-" + Tag)).string();
  std::filesystem::create_directories(Tmp);
  {
    std::ofstream Out(Script);
    Out << "#!/bin/sh\n"
           "out=; src=; prev=\n"
           "for a in \"$@\"; do\n"
           "  case \"$prev\" in -o) out=$a;; esac\n"
           "  case \"$a\" in *.cpp) src=$a;; esac\n"
           "  prev=$a\n"
           "done\n"
           "if grep -q 'slin_s[12](' \"$src\"; then\n"
           "  echo \"$src: error: refusing this part\" >&2\n"
           "  exit 1\n"
           "fi\n"
           "sleep 0.3\n"
           ": > \"$out\"\n";
  }
  std::filesystem::permissions(Script, std::filesystem::perms::owner_all);

  StoreGuard SG;
  {
    EnvGuard CXX("SLIN_CXX", Script.c_str());
    EnvGuard TD("TMPDIR", Tmp.c_str());
    std::string Reason;
    EXPECT_EQ(codegen::NativeModuleCache::global().get(*P, &Reason), nullptr);
    EXPECT_NE(Reason.find("/part" + std::to_string(Refused[0]) +
                          ".cpp: error: refusing this part"),
              std::string::npos)
        << Reason;
    for (size_t I = 1; I != Refused.size(); ++I)
      EXPECT_EQ(Reason.find("/part" + std::to_string(Refused[I]) + ".cpp"),
                std::string::npos)
          << Reason;
  }
  auto S = codegen::NativeModuleCache::global().stats();
  EXPECT_EQ(S.Compiles, 1u);
  EXPECT_EQ(S.CompileFailures, 1u);

  // Every job was reaped: this process has no child left.
  errno = 0;
  EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
  // The mkdtemp scratch directory is gone, and the store holds no
  // temporary object.
  EXPECT_TRUE(std::filesystem::is_empty(Tmp));
  std::error_code EC;
  for (auto It = std::filesystem::directory_iterator(SG.dir(), EC);
       !EC && It != std::filesystem::directory_iterator(); ++It)
    EXPECT_EQ(It->path().filename().string().find(".tmp."),
              std::string::npos)
        << It->path();
  std::filesystem::remove_all(Tmp, EC);
  std::filesystem::remove(Script, EC);
}

TEST(NativeCodegen, AwkwardConstantsStayBitExactThroughTheTables) {
  if (!haveToolchain())
    GTEST_SKIP() << "no C++ toolchain available";
  NativeGuard NG;
  StreamPtr Root = awkwardConstantsPipeline();
  CompiledProgramRef P = makeProgram(*Root);

  // The tables are constexpr, so a NaN or Inf entry that is not a
  // constant expression fails the compile rather than adding a dynamic
  // initialiser; the non-finite ones go through the preamble's helper.
  std::vector<std::string> Parts;
  ASSERT_GT(codegen::emitProgramSource(*P, Parts, 4), 0);
  std::string Src = joined(Parts);
  EXPECT_NE(Src.find("static constexpr double slin_f1_c[]"),
            std::string::npos);
  EXPECT_EQ(occurrences(Src, "slin_bits_(0x"), 2u * 2u) << Src;

  std::string Reason;
  codegen::NativeModuleRef M =
      codegen::NativeModuleCache::global().get(*P, &Reason);
  ASSERT_NE(M, nullptr) << Reason;
  auto Tapes = runWith(P, nullptr, 160);
  auto Native = runWith(P, M, 160);
  ASSERT_EQ(Tapes.size(), Native.size());
  // memcmp, not EXPECT_EQ: NaN != NaN, and the payload and the sign of
  // zero must survive too.
  EXPECT_EQ(0, std::memcmp(Tapes.data(), Native.data(),
                           Tapes.size() * sizeof(double)));
  // The pushed constants themselves come out with their exact bits.
  for (size_t I = 0; I != std::size(AwkwardBits); ++I) {
    uint64_t Got;
    std::memcpy(&Got, &Native[2 * I], sizeof(Got));
    EXPECT_EQ(Got, AwkwardBits[I]) << "constant " << I;
  }
}

TEST(NativeCodegen, EmittedUnitsCompileWithoutWarnings) {
  if (!haveToolchain())
    GTEST_SKIP() << "no C++ toolchain available";
  StreamPtr Zoo = tapeZooPipeline();
  std::vector<std::pair<std::string, CompiledProgramRef>> Programs = {
      {"zoo", makeProgram(*Zoo)}};
  for (const auto &App : autoSelApps())
    Programs.push_back(App);

  std::string Dir =
      (std::filesystem::temp_directory_path() /
       ("slin-codegen-syntax-" + std::to_string(::getpid())))
          .string();
  std::filesystem::create_directories(Dir);
  std::string Flags;
  for (const std::string &F : codegen::nativeCompileFlags())
    Flags += " " + F;
  // Split four ways, so every part boundary is compiled as well.
  for (const auto &[Name, P] : Programs) {
    std::vector<std::string> Parts;
    ASSERT_GT(codegen::emitProgramSource(*P, Parts, 4), 0) << Name;
    for (size_t K = 0; K != Parts.size(); ++K) {
      std::string Path = Dir + "/" + Name + std::to_string(K) + ".cpp",
                  Err = Dir + "/cc.err";
      std::ofstream(Path) << Parts[K];
      std::string Cmd = "'" + codegen::discoverCompiler() +
                        "' -fsyntax-only -Werror" + Flags + " '" + Path +
                        "' 2>'" + Err + "'";
      int Rc = std::system(Cmd.c_str());
      std::ifstream ErrIn(Err);
      std::string Diag((std::istreambuf_iterator<char>(ErrIn)),
                       std::istreambuf_iterator<char>());
      EXPECT_TRUE(Rc != -1 && WIFEXITED(Rc) && WEXITSTATUS(Rc) == 0)
          << Name << " part " << K << ": " << Diag;
    }
  }
  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);
}

//===----------------------------------------------------------------------===//
// FLOP accounting under Engine::Native
//===----------------------------------------------------------------------===//

TEST(NativeCodegen, CountingRunsFallBackToTapesSoFlopsMatchCompiled) {
  NativeGuard NG;
  // Emitted code does no op accounting; the executor's dispatch is
  // counting-gated, so a counting run under Engine::Native executes the
  // tapes and reports exactly the compiled engine's FLOP numbers.
  StreamPtr Root = firSourcePipeline({1, 2, 3, 4, 5, 6, 7, 8});
  MeasureOptions MO;
  MO.WarmupOutputs = 32;
  MO.MeasureOutputs = 128;
  MO.MeasureTime = false;
  MO.Exec.Eng = Engine::Compiled;
  Measurement Comp = measureSteadyState(*Root, MO);
  MO.Exec.Eng = Engine::Native;
  Measurement Nat = measureSteadyState(*Root, MO);
  EXPECT_EQ(Comp.Outputs, Nat.Outputs);
  EXPECT_EQ(Comp.flopsPerOutput(), Nat.flopsPerOutput());
  EXPECT_EQ(Comp.multsPerOutput(), Nat.multsPerOutput());
}

//===----------------------------------------------------------------------===//
// Warm restart: the stored .so is the whole load path
//===----------------------------------------------------------------------===//

TEST(NativeCodegen, WarmRestartServesObjectWithZeroPassesAndZeroCodegen) {
  if (!haveToolchain())
    GTEST_SKIP() << "no C++ toolchain available";
  StoreGuard SG;
  NativeGuard NG;
  StreamPtr Root = firSourcePipeline({2.0, -0.5, 1.25, 0.75, -3.5});
  PipelineOptions PO;
  PO.Mode = OptMode::Linear;
  PO.Exec.Eng = Engine::Native;

  // Cold: full pipeline + emit + compile + publish.
  CompileResult R1 = compileStream(*Root, PO);
  ASSERT_NE(R1.Program, nullptr);
  EXPECT_FALSE(R1.Degraded) << R1.DegradeReason;
  {
    auto S = codegen::NativeModuleCache::global().stats();
    EXPECT_EQ(S.Compiles, 1u);
    EXPECT_EQ(S.DiskHits, 0u);
  }
  EXPECT_EQ(SG.objectCount(), 1u);
  auto Cold =
      runWith(R1.Program, codegen::NativeModuleCache::global().get(*R1.Program),
              150);

  // Simulated process restart: drop every in-memory cache; only the
  // store directory survives.
  ProgramCache::global().clear();
  ProgramCache::global().resetStats();
  codegen::NativeModuleCache::global().clear();
  codegen::NativeModuleCache::global().resetStats();

  CompileResult R2 = compileStream(*Root, PO);
  ASSERT_NE(R2.Program, nullptr);
  EXPECT_TRUE(R2.ProgramCacheHit);
  EXPECT_TRUE(R2.Program->loadedFromArtifact());
  // Zero compiler passes: the alias fast path replaces them all with one
  // artifact load, plus the native-codegen resolution step.
  for (const PassInfo &P : R2.Passes)
    EXPECT_TRUE(P.Name == "artifact-load" || P.Name == "native-codegen")
        << "unexpected pass on the warm path: " << P.Name;
  // Zero codegen: the module came from the disk tier, no compile ran.
  {
    auto S = codegen::NativeModuleCache::global().stats();
    EXPECT_EQ(S.DiskHits, 1u);
    EXPECT_EQ(S.Compiles, 0u);
    EXPECT_EQ(S.CompileFailures, 0u);
  }
  auto Warm =
      runWith(R2.Program, codegen::NativeModuleCache::global().get(*R2.Program),
              150);
  EXPECT_EQ(Cold, Warm);
}

//===----------------------------------------------------------------------===//
// SLIN_NO_CACHE bypasses the native disk tier too
//===----------------------------------------------------------------------===//

TEST(NativeCodegen, NoCacheEnvBypassesNativeObjectDiskTier) {
  if (!haveToolchain())
    GTEST_SKIP() << "no C++ toolchain available";
  StoreGuard SG;
  NativeGuard NG;
  codegen::NativeModuleCache &C = codegen::NativeModuleCache::global();
  StreamPtr Root = firSourcePipeline({4.0, -2.0, 1.0});
  CompiledProgramRef P = makeProgram(*Root);

  {
    EnvGuard NC("SLIN_NO_CACHE", "1");
    codegen::NativeModuleRef M = C.get(*P);
    ASSERT_NE(M, nullptr);
    // Built, but never published: the disk tier is bypassed on write...
    EXPECT_EQ(C.stats().Compiles, 1u);
    EXPECT_EQ(SG.objectCount(), 0u);
    // ...while in-process memoization stays on.
    EXPECT_EQ(C.get(*P).get(), M.get());
    EXPECT_EQ(C.stats().MemHits, 1u);
    EXPECT_EQ(C.stats().Compiles, 1u);
  }

  // Cache re-enabled: a fresh build publishes the object...
  C.clear();
  C.resetStats();
  ASSERT_NE(C.get(*P), nullptr);
  EXPECT_EQ(C.stats().Compiles, 1u);
  EXPECT_EQ(SG.objectCount(), 1u);

  // ...and SLIN_NO_CACHE also bypasses it on *read*: a cold cache under
  // the env compiles again instead of dlopening the stored object.
  {
    EnvGuard NC("SLIN_NO_CACHE", "1");
    C.clear();
    C.resetStats();
    ASSERT_NE(C.get(*P), nullptr);
    EXPECT_EQ(C.stats().DiskHits, 0u);
    EXPECT_EQ(C.stats().Compiles, 1u);
  }

  // Control: without the env the same cold cache disk-hits.
  C.clear();
  C.resetStats();
  ASSERT_NE(C.get(*P), nullptr);
  EXPECT_EQ(C.stats().DiskHits, 1u);
  EXPECT_EQ(C.stats().Compiles, 0u);
}

//===----------------------------------------------------------------------===//
// Degradation
//===----------------------------------------------------------------------===//

TEST(NativeCodegen, MissingToolchainDegradesCleanlyAndNegativelyCaches) {
  NativeGuard NG;
  EnvGuard CXX("SLIN_CXX", "/nonexistent/slin-test-cxx");
  codegen::NativeModuleCache &C = codegen::NativeModuleCache::global();
  StreamPtr Root = firSourcePipeline({1.0, -1.0, 2.0});
  CompiledProgramRef P = makeProgram(*Root);

  std::string Reason;
  EXPECT_EQ(C.get(*P, &Reason), nullptr);
  EXPECT_FALSE(Reason.empty());
  EXPECT_EQ(C.stats().CompileFailures, 1u);
  EXPECT_GE(C.stats().Degrades, 1u);

  // Negatively cached: the dead toolchain is probed once per program,
  // not once per run.
  Reason.clear();
  EXPECT_EQ(C.get(*P, &Reason), nullptr);
  EXPECT_FALSE(Reason.empty());
  EXPECT_EQ(C.stats().Compiles, 1u);
  EXPECT_EQ(C.stats().MemHits, 1u);

  // The engine still answers — on the op tapes, bit-identically.
  auto Degraded = collectOutputs(*Root, 96, Engine::Native);
  auto Reference = collectOutputs(*Root, 96, Engine::Compiled);
  EXPECT_EQ(Degraded, Reference);
}

TEST(NativeCodegen, CompileFailureReasonQuotesTheError) {
  // A stand-in compiler that prints a harmless warning, then the error,
  // and fails: the degrade reason must carry the error line, which a
  // plain head-of-stderr excerpt would crowd out.
  NativeGuard NG;
  std::string Script =
      (std::filesystem::temp_directory_path() /
       ("slin-fake-cxx-" + std::to_string(::getpid()) + ".sh"))
          .string();
  {
    std::ofstream Out(Script);
    Out << "#!/bin/sh\n"
           "echo 'program.cpp:3:1: warning: something harmless' >&2\n"
           "echo 'program.cpp:9:4: error: the actual problem' >&2\n"
           "exit 1\n";
  }
  std::filesystem::permissions(Script, std::filesystem::perms::owner_all);
  EnvGuard CXX("SLIN_CXX", Script.c_str());
  StreamPtr Root = firSourcePipeline({1.0, -1.0, 2.0});
  CompiledProgramRef P = makeProgram(*Root);

  std::string Reason;
  EXPECT_EQ(codegen::NativeModuleCache::global().get(*P, &Reason), nullptr);
  EXPECT_NE(Reason.find("program.cpp:9:4: error: the actual problem"),
            std::string::npos)
      << Reason;
  EXPECT_EQ(Reason.find("warning"), std::string::npos) << Reason;
  EXPECT_EQ(codegen::NativeModuleCache::global().stats().CompileFailures, 1u);
  std::filesystem::remove(Script);
}

TEST(NativeCodegen, SlinNoNativeDisablesCodegenOutright) {
  NativeGuard NG;
  EnvGuard Off("SLIN_NO_NATIVE", "1");
  codegen::NativeModuleCache &C = codegen::NativeModuleCache::global();
  StreamPtr Root = firSourcePipeline({1.0, 2.0});
  CompiledProgramRef P = makeProgram(*Root);

  std::string Reason;
  EXPECT_EQ(C.get(*P, &Reason), nullptr);
  EXPECT_NE(Reason.find("SLIN_NO_NATIVE"), std::string::npos);
  // Disabled before any work: no compile, no disk probe, no negative
  // cache entry (flipping the env back re-enables immediately).
  EXPECT_EQ(C.stats().Compiles, 0u);
  EXPECT_EQ(C.stats().Misses, 0u);
}

TEST(NativeCodegen, PipelineRecordsNativeCodegenPass) {
  NativeGuard NG;
  StreamPtr Root = firSourcePipeline({3.0, 1.0, -2.0});
  PipelineOptions PO;
  PO.Mode = OptMode::Linear;
  PO.Exec.Eng = Engine::Native;
  PO.UseProgramCache = false;
  CompileResult R = compileStream(*Root, PO);
  ASSERT_NE(R.Program, nullptr);
  const PassInfo *NP = nullptr;
  for (const PassInfo &P : R.Passes)
    if (P.Name == "native-codegen")
      NP = &P;
  ASSERT_NE(NP, nullptr) << "pipeline did not record the native-codegen pass";
  if (haveToolchain()) {
    EXPECT_FALSE(R.Degraded) << R.DegradeReason;
    EXPECT_TRUE(NP->Note == "emitted+compiled" ||
                NP->Note == "native cache hit (memory)")
        << NP->Note;
  } else {
    // No toolchain in this environment: the pass degrades, visibly.
    EXPECT_TRUE(R.Degraded);
    EXPECT_FALSE(R.DegradeReason.empty());
  }
}

} // namespace
