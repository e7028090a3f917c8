//===- tests/fault_test.cpp - Recoverable errors under injected faults ----==//
//
// The recoverable-error layer (support/Error.h) driven through the
// deterministic fault-injection points (support/FaultInjection.h): every
// SLIN_FAULT arm must recover without process death, and every recovery
// must land on outputs — and FLOP counts — bit-identical to a clean run.
// Covers the store's publish failures (short write, rename, ENOSPC with
// retries/eviction), stale-tmp sweeping and size/TTL eviction, the
// pipeline's Base-mode degradation ladder, the parallel backend's
// sequential fallback on shard-seed anomalies, and the run-deadline /
// cancellation token.
//
// NOTE: the FaultEnv tests must run first (registration order): SLIN_FAULT
// is consumed once per process, and the first faults::reset() marks it
// consumed forever after.
//
//===----------------------------------------------------------------------===//

#include "codegen/CxxBackend.h"
#include "codegen/NativeModule.h"
#include "compiler/ArtifactStore.h"
#include "compiler/Pipeline.h"
#include "compiler/Program.h"
#include "compiler/StructuralHash.h"
#include "exec/CompiledExecutor.h"
#include "exec/Parallel.h"
#include "sched/Rates.h"
#include "support/Error.h"
#include "support/FaultInjection.h"
#include "support/OpCounters.h"
#include "support/RuntimeConfig.h"
#include "TestGraphs.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sys/time.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace slin;
using namespace slin::testing_helpers;

namespace {

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

/// Disarms every fault point on entry and exit, so no test leaks an
/// armed point into its neighbours (and the SLIN_FAULT environment is
/// marked consumed — tests own the configuration).
struct FaultGuard {
  FaultGuard() { faults::reset(); }
  ~FaultGuard() { faults::reset(); }
};

StreamPtr firSourcePipeline(std::vector<double> Taps,
                            const std::string &Name = "fir") {
  auto P = std::make_unique<Pipeline>(Name);
  P->add(makeCountingSource());
  P->add(makeFIR(std::move(Taps)));
  P->add(makePrinterSink());
  return P;
}

/// A graph that pops external input (no source filter).
StreamPtr externallyDrivenGraph() {
  auto P = std::make_unique<Pipeline>("ext");
  P->add(makeFIR({2, -1, 0.5, 4}, "extfir"));
  P->add(makeGain(0.25));
  return P;
}

CompiledProgramRef makeProgram(const Stream &Root,
                               CompiledOptions Opts = CompiledOptions()) {
  return std::make_shared<const CompiledProgram>(Root, Opts);
}

/// Runs a fresh executor over \p P and returns the first \p N outputs.
std::vector<double> runProgram(const CompiledProgramRef &P, size_t N) {
  CompiledExecutor E(P);
  E.tryRun(N).orDie();
  std::vector<double> Out =
      E.printed().empty() ? E.outputSnapshot() : E.printed();
  if (Out.size() > N)
    Out.resize(N);
  return Out;
}

/// A scoped artifact directory for the process-global store.
class StoreGuard {
public:
  StoreGuard() {
    Dir = (std::filesystem::temp_directory_path() /
           ("slin-fault-test-" + std::to_string(::getpid()) + "-" +
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

  ArtifactStore &store() { return *ArtifactStore::global(); }
  const std::string &dir() const { return Dir; }

  size_t fileCount() const {
    size_t N = 0;
    for (auto It = std::filesystem::directory_iterator(Dir);
         It != std::filesystem::directory_iterator(); ++It)
      ++N;
    return N;
  }

  size_t tmpFileCount() const {
    size_t N = 0;
    for (auto It = std::filesystem::directory_iterator(Dir);
         It != std::filesystem::directory_iterator(); ++It)
      if (It->path().filename().string().find(".tmp.") != std::string::npos)
        ++N;
    return N;
  }

private:
  static int Counter;
  std::string Dir;
};

int StoreGuard::Counter = 0;

ArtifactStore::Key keyFor(const CompiledProgramRef &P) {
  return {structuralHash(P->root()), hashOptions(P->options())};
}

/// Sets a file's mtime \p AgeSeconds into the past.
void setFileAge(const std::string &Path, int64_t AgeSeconds) {
  struct timeval TV[2];
  TV[0].tv_sec = TV[1].tv_sec =
      static_cast<time_t>(::time(nullptr) - AgeSeconds);
  TV[0].tv_usec = TV[1].tv_usec = 0;
  ASSERT_EQ(::utimes(Path.c_str(), TV), 0) << Path;
}

/// A pid guaranteed dead and reaped: fork a child that exits immediately.
pid_t deadPid() {
  pid_t P = ::fork();
  if (P == 0)
    ::_exit(0);
  int Stat = 0;
  ::waitpid(P, &Stat, 0);
  return P;
}

//===----------------------------------------------------------------------===//
// SLIN_FAULT parsing (must run before any reset; see file header)
//===----------------------------------------------------------------------===//

TEST(FaultEnv, SpecParsingArmsPoints) {
  ::setenv("SLIN_FAULT",
           "artifact-rename-fail:2+,bogus-point:1,store-enospc:0,"
           "pass-verifier-trip",
           1);
  faults::armFromEnv();
  ::unsetenv("SLIN_FAULT");

  // No ordinal: the first hit fails, one-shot.
  EXPECT_TRUE(faults::shouldFail(faults::Point::PassVerifierTrip));
  EXPECT_FALSE(faults::shouldFail(faults::Point::PassVerifierTrip));

  // ":2+": persistent from the second hit on (retries must exhaust).
  EXPECT_FALSE(faults::shouldFail(faults::Point::ArtifactRenameFail));
  EXPECT_TRUE(faults::shouldFail(faults::Point::ArtifactRenameFail));
  EXPECT_TRUE(faults::shouldFail(faults::Point::ArtifactRenameFail));
  EXPECT_EQ(faults::hitCount(faults::Point::ArtifactRenameFail), 3u);

  // ":0" is a malformed ordinal: skipped item-wise, as is bogus-point.
  EXPECT_FALSE(faults::shouldFail(faults::Point::StoreEnospc));

  faults::reset();
  EXPECT_FALSE(faults::shouldFail(faults::Point::ArtifactRenameFail));
  EXPECT_EQ(faults::hitCount(faults::Point::ArtifactRenameFail), 0u);
}

TEST(FaultEnv, ResetConsumesTheEnvironmentForGood) {
  // After the reset above, a still-set SLIN_FAULT must not re-arm:
  // tests own the configuration for the rest of the process.
  ::setenv("SLIN_FAULT", "store-enospc:1+", 1);
  faults::armFromEnv();
  EXPECT_FALSE(faults::shouldFail(faults::Point::StoreEnospc));
  ::unsetenv("SLIN_FAULT");
}

TEST(FaultEnv, ProgrammaticArmOneShotAndPersistent) {
  FaultGuard G;
  faults::arm(faults::Point::StoreEnospc, 2);
  EXPECT_FALSE(faults::shouldFail(faults::Point::StoreEnospc));
  EXPECT_TRUE(faults::shouldFail(faults::Point::StoreEnospc));
  EXPECT_FALSE(faults::shouldFail(faults::Point::StoreEnospc));

  faults::arm(faults::Point::StoreEnospc, 2, /*Persistent=*/true);
  EXPECT_FALSE(faults::shouldFail(faults::Point::StoreEnospc));
  EXPECT_TRUE(faults::shouldFail(faults::Point::StoreEnospc));
  EXPECT_TRUE(faults::shouldFail(faults::Point::StoreEnospc));
}

//===----------------------------------------------------------------------===//
// Status / Expected
//===----------------------------------------------------------------------===//

TEST(StatusExpected, CodesContextsAndValues) {
  Status Ok;
  EXPECT_TRUE(Ok.isOk());
  EXPECT_TRUE(static_cast<bool>(Ok));
  EXPECT_EQ(Ok.str(), "");

  Status St(ErrorCode::IoError, "short read");
  EXPECT_FALSE(St.isOk());
  Status Chained = St.withContext("read header").withContext("load artifact");
  EXPECT_EQ(Chained.code(), ErrorCode::IoError);
  EXPECT_EQ(Chained.message(), "load artifact: read header: short read");
  EXPECT_EQ(Chained.str(), "io-error: load artifact: read header: short read");

  EXPECT_STREQ(errorCodeName(ErrorCode::Ok), "ok");
  EXPECT_STREQ(errorCodeName(ErrorCode::NoSpace), "no-space");
  EXPECT_STREQ(errorCodeName(ErrorCode::VerifyFailed), "verify-failed");
  EXPECT_STREQ(errorCodeName(ErrorCode::ShardAnomaly), "shard-anomaly");
  EXPECT_STREQ(errorCodeName(ErrorCode::Timeout), "timeout");

  Expected<int> V = 42;
  ASSERT_TRUE(V);
  EXPECT_EQ(*V, 42);
  EXPECT_TRUE(V.status().isOk());

  Expected<int> E = Status(ErrorCode::Corrupt, "bad bytes");
  ASSERT_FALSE(E);
  EXPECT_EQ(E.status().code(), ErrorCode::Corrupt);
}

TEST(StatusExpectedDeath, OrDieAbortsWithTheStatusText) {
  Status Ok;
  Ok.orDie(); // Ok: a no-op
  Expected<int> V = 7;
  EXPECT_EQ(V.orDie(), 7);

  Status St(ErrorCode::Deadlock, "stream graph deadlocked");
  EXPECT_DEATH(St.orDie(), "deadlock: stream graph deadlocked");
  Expected<int> E = Status(ErrorCode::RateError, "inconsistent loop rates");
  EXPECT_DEATH(E.orDie(), "rate-error: inconsistent loop rates");
}

TEST(StatusExpected, RatesTryFormsReportRateError) {
  // exec_test's unbalanced feedback loop: the rate solver names its
  // inconsistency in a Status.
  auto FB = std::make_unique<FeedbackLoop>(
      "fb", Joiner::roundRobin({1, 1}), makeAdder(2), makeIdentity(),
      Splitter::roundRobin({1, 1}), std::vector<double>{0});
  Expected<std::vector<int64_t>> Reps = tryChildRepetitions(*FB);
  ASSERT_FALSE(Reps);
  EXPECT_EQ(Reps.status().code(), ErrorCode::RateError);
  EXPECT_NE(Reps.status().message().find("inconsistent loop rates"),
            std::string::npos);
  Expected<RateSignature> Rates = tryComputeRates(*FB);
  ASSERT_FALSE(Rates);
  EXPECT_EQ(Rates.status().code(), ErrorCode::RateError);

  StreamPtr Good = firSourcePipeline({1, 2, 3});
  Expected<RateSignature> R = tryComputeRates(*Good);
  ASSERT_TRUE(R);
  EXPECT_EQ(R->Push, 0); // printer sink: no pushed output
}

//===----------------------------------------------------------------------===//
// Store publish faults: short write, rename failure, ENOSPC
//===----------------------------------------------------------------------===//

TEST(StoreFaults, ShortWriteRetriesAndPublishes) {
  FaultGuard G;
  StoreGuard Guard;
  StreamPtr Root = firSourcePipeline({1, 2, 3, 4});
  CompiledProgramRef P = makeProgram(*Root);
  std::vector<double> Expect = runProgram(P, 128);

  faults::arm(faults::Point::ArtifactWriteShort, 1);
  Status St = Guard.store().tryStore(keyFor(P), *P);
  EXPECT_TRUE(St.isOk()) << St.str();
  EXPECT_GE(faults::hitCount(faults::Point::ArtifactWriteShort), 1u);

  ArtifactStore::Stats S = Guard.store().stats();
  EXPECT_EQ(S.Stores, 1u);
  EXPECT_EQ(S.PublishFailures, 1u);
  EXPECT_EQ(S.IoRetries, 1u);
  EXPECT_EQ(Guard.tmpFileCount(), 0u); // the failed attempt left no litter

  auto Loaded = Guard.store().tryLoad(keyFor(P));
  ASSERT_TRUE(Loaded) << Loaded.status().str();
  EXPECT_EQ(runProgram(*Loaded, 128), Expect);
}

TEST(StoreFaults, RenameFailureUnlinksTmpAndRetries) {
  FaultGuard G;
  StoreGuard Guard;
  StreamPtr Root = firSourcePipeline({5, 6, 7});
  CompiledProgramRef P = makeProgram(*Root);

  faults::arm(faults::Point::ArtifactRenameFail, 1);
  Status St = Guard.store().tryStore(keyFor(P), *P);
  EXPECT_TRUE(St.isOk()) << St.str();
  EXPECT_EQ(Guard.tmpFileCount(), 0u);
  EXPECT_TRUE(std::filesystem::exists(Guard.store().pathFor(keyFor(P))));

  ArtifactStore::Stats S = Guard.store().stats();
  EXPECT_EQ(S.PublishFailures, 1u);
  EXPECT_EQ(S.IoRetries, 1u);
  EXPECT_EQ(S.Stores, 1u);
}

TEST(StoreFaults, PersistentRenameFailureExhaustsRetriesCleanly) {
  FaultGuard G;
  StoreGuard Guard;
  StreamPtr Root = firSourcePipeline({8, 9});
  CompiledProgramRef P = makeProgram(*Root);

  faults::arm(faults::Point::ArtifactRenameFail, 1, /*Persistent=*/true);
  Status St = Guard.store().tryStore(keyFor(P), *P);
  ASSERT_FALSE(St.isOk());
  EXPECT_EQ(St.code(), ErrorCode::IoError);
  EXPECT_NE(St.message().find("publish artifact"), std::string::npos);
  EXPECT_NE(St.message().find("rename (injected)"), std::string::npos);

  // Three attempts, every tmp file unlinked, nothing published.
  ArtifactStore::Stats S = Guard.store().stats();
  EXPECT_EQ(S.PublishFailures, 3u);
  EXPECT_EQ(S.IoRetries, 2u);
  EXPECT_EQ(S.Stores, 0u);
  EXPECT_EQ(Guard.fileCount(), 0u);
}

TEST(StoreFaults, EnospcDuringCachePublishDegradesToMemoryOnly) {
  FaultGuard G;
  StoreGuard Guard;
  StreamPtr Root = firSourcePipeline({1, 2, 3, 4, 5});
  CompiledOptions Opts;

  faults::arm(faults::Point::StoreEnospc, 1, /*Persistent=*/true);
  CompiledProgramRef P = ProgramCache::global().get(*Root, Opts);
  ASSERT_NE(P, nullptr); // the serving path survives a full disk
  std::vector<double> Expect = runProgram(P, 128);

  ProgramCache::Stats CS = ProgramCache::global().stats();
  EXPECT_EQ(CS.DiskStores, 0u);
  EXPECT_EQ(CS.DiskStoreFailures, 1u);
  ArtifactStore::Stats S = Guard.store().stats();
  EXPECT_EQ(S.PublishFailures, 3u); // bounded retry, then memory-only
  EXPECT_EQ(S.IoRetries, 2u);
  EXPECT_EQ(Guard.fileCount(), 0u); // no artifact, no tmp litter

  // The memory tier still serves it...
  bool Hit = false;
  ProgramCache::global().get(*Root, Opts, &Hit);
  EXPECT_TRUE(Hit);

  // ...and once space is back, a cold process recompiles cleanly and
  // publishes, with bit-identical outputs.
  faults::reset();
  ProgramCache::global().clear();
  CompiledProgramRef Clean = ProgramCache::global().get(*Root, Opts, &Hit);
  EXPECT_FALSE(Hit);
  EXPECT_EQ(runProgram(Clean, 128), Expect);
  EXPECT_GE(Guard.fileCount(), 1u);
}

//===----------------------------------------------------------------------===//
// Store maintenance: stale-tmp sweep, TTL, size quota
//===----------------------------------------------------------------------===//

TEST(StoreMaintenance, StartupSweepCollectsStaleTmpOnly) {
  std::string Dir = (std::filesystem::temp_directory_path() /
                     ("slin-sweep-test-" + std::to_string(::getpid())))
                        .string();
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  auto Touch = [&](const std::string &Name) {
    std::ofstream(Dir + "/" + Name) << "x";
  };
  // A dead writer's tmp, a live (our own) tmp, an hour-stale tmp with an
  // unparseable pid, and a published artifact.
  std::string DeadTmp =
      "a.slin.tmp." + std::to_string(static_cast<long>(deadPid())) + ".0";
  std::string OwnTmp =
      "b.slin.tmp." + std::to_string(static_cast<long>(::getpid())) + ".0";
  Touch(DeadTmp);
  Touch(OwnTmp);
  Touch("c.slin.tmp.garbage");
  setFileAge(Dir + "/c.slin.tmp.garbage", 2 * 3600);
  Touch("published.slin");

  ArtifactStore Store(Dir); // constructor sweeps
  EXPECT_FALSE(std::filesystem::exists(Dir + "/" + DeadTmp));
  EXPECT_FALSE(std::filesystem::exists(Dir + "/c.slin.tmp.garbage"));
  EXPECT_TRUE(std::filesystem::exists(Dir + "/" + OwnTmp));
  EXPECT_TRUE(std::filesystem::exists(Dir + "/published.slin"));
  EXPECT_EQ(Store.stats().TmpSwept, 2u);
  std::filesystem::remove_all(Dir);
}

TEST(StoreMaintenance, TtlExpiresOldArtifacts) {
  FaultGuard G;
  StoreGuard Guard;
  StreamPtr RootA = firSourcePipeline({1, 2}, "ttl-a");
  StreamPtr RootB = firSourcePipeline({3, 4, 5}, "ttl-b");
  CompiledProgramRef A = makeProgram(*RootA), B = makeProgram(*RootB);
  ASSERT_TRUE(Guard.store().tryStore(keyFor(A), *A).isOk());
  ASSERT_TRUE(Guard.store().tryStore(keyFor(B), *B).isOk());

  std::string PathA = Guard.store().pathFor(keyFor(A));
  setFileAge(PathA, 2 * 3600);
  Guard.store().setTtlSeconds(3600);
  Guard.store().sweepNow();

  EXPECT_FALSE(std::filesystem::exists(PathA));
  EXPECT_TRUE(std::filesystem::exists(Guard.store().pathFor(keyFor(B))));
  ArtifactStore::Stats S = Guard.store().stats();
  EXPECT_EQ(S.Evictions, 1u);
  EXPECT_GT(S.EvictedBytes, 0u);

  // The evicted key is a plain miss -> clean recompile territory.
  EXPECT_FALSE(Guard.store().tryLoad(keyFor(A)));
  EXPECT_TRUE(Guard.store().tryLoad(keyFor(B)));
}

TEST(StoreMaintenance, QuotaEvictsOldestFirstAndSparesTheFreshPublish) {
  FaultGuard G;
  StoreGuard Guard;
  StreamPtr RootA = firSourcePipeline({1, 2}, "quota-a");
  StreamPtr RootB = firSourcePipeline({3, 4, 5}, "quota-b");
  CompiledProgramRef A = makeProgram(*RootA), B = makeProgram(*RootB);

  ASSERT_TRUE(Guard.store().tryStore(keyFor(A), *A).isOk());
  std::string PathA = Guard.store().pathFor(keyFor(A));
  uint64_t SizeA = std::filesystem::file_size(PathA);
  setFileAge(PathA, 3600); // unambiguously the oldest

  // Room for one artifact but not two: publishing B must evict A (the
  // oldest) and never the just-published B.
  Guard.store().setMaxBytes(SizeA + SizeA);
  ASSERT_TRUE(Guard.store().tryStore(keyFor(B), *B).isOk());

  EXPECT_FALSE(std::filesystem::exists(PathA));
  EXPECT_TRUE(std::filesystem::exists(Guard.store().pathFor(keyFor(B))));
  ArtifactStore::Stats S = Guard.store().stats();
  EXPECT_EQ(S.Evictions, 1u);
  EXPECT_EQ(S.EvictedBytes, SizeA);

  // Evicted key recompiles cleanly (a plain miss, not an error).
  Expected<std::shared_ptr<const CompiledProgram>> Miss =
      Guard.store().tryLoad(keyFor(A));
  ASSERT_FALSE(Miss);
  EXPECT_EQ(Miss.status().code(), ErrorCode::IoError);
}

TEST(StoreMaintenance, EnvKnobsBoundAFreshStore) {
  FaultGuard G;
  StoreGuard Guard;
  StreamPtr RootOld = firSourcePipeline({6, 7}, "env-old");
  StreamPtr RootA = firSourcePipeline({1, 2}, "env-a");
  StreamPtr RootB = firSourcePipeline({3, 4, 5}, "env-b");
  CompiledProgramRef Old = makeProgram(*RootOld), A = makeProgram(*RootA),
                     B = makeProgram(*RootB);
  ASSERT_TRUE(Guard.store().tryStore(keyFor(Old), *Old).isOk());
  ASSERT_TRUE(Guard.store().tryStore(keyFor(A), *A).isOk());
  std::string PathOld = Guard.store().pathFor(keyFor(Old));
  std::string PathA = Guard.store().pathFor(keyFor(A));
  uint64_t SizeA = std::filesystem::file_size(PathA);
  setFileAge(PathOld, 2 * 3600); // past the TTL below
  setFileAge(PathA, 1800);       // within it, but older than B

  // The budget and TTL come from the environment alone: no setter.
  struct EnvScope {
    ~EnvScope() {
      ::unsetenv("SLIN_STORE_MAX_BYTES");
      ::unsetenv("SLIN_STORE_TTL_S");
      RuntimeConfig::refreshFromEnv();
    }
  } Env;
  ::setenv("SLIN_STORE_MAX_BYTES", std::to_string(SizeA + SizeA).c_str(), 1);
  ::setenv("SLIN_STORE_TTL_S", "3600", 1);
  RuntimeConfig::refreshFromEnv();
  ArtifactStore Fresh(Guard.dir());

  // Construction sweeps the expired artifact and keeps the live one.
  EXPECT_FALSE(std::filesystem::exists(PathOld));
  EXPECT_TRUE(std::filesystem::exists(PathA));
  EXPECT_EQ(Fresh.stats().Evictions, 1u);

  // Room for one artifact but not two: publishing B evicts A, the
  // oldest, and spares B.
  ASSERT_TRUE(Fresh.tryStore(keyFor(B), *B).isOk());
  EXPECT_FALSE(std::filesystem::exists(PathA));
  EXPECT_TRUE(std::filesystem::exists(Fresh.pathFor(keyFor(B))));
  EXPECT_EQ(Fresh.stats().Evictions, 2u);
}

//===----------------------------------------------------------------------===//
// Pipeline degradation ladder: verifier trip -> Base-mode recompile
//===----------------------------------------------------------------------===//

TEST(PipelineDegrade, VerifierTripRecompilesInBaseMode) {
  FaultGuard G;
  StreamPtr Root = firSourcePipeline({1, 2, 3, 4, 5, 6, 7, 8});

  PipelineOptions BasePO;
  BasePO.Mode = OptMode::Base;
  BasePO.Exec.Eng = Engine::Compiled;
  BasePO.UseProgramCache = false;
  CompileResult BaseRef = compileStream(*Root, BasePO);
  ASSERT_NE(BaseRef.Program, nullptr);
  std::vector<double> BaseOut = runProgram(BaseRef.Program, 128);

  PipelineOptions PO = BasePO;
  PO.Mode = OptMode::Linear;
  PO.VerifyAfterEachPass = true;
  faults::arm(faults::Point::PassVerifierTrip, 1);
  Expected<CompileResult> R = CompilerPipeline(PO).tryCompile(*Root);
  ASSERT_TRUE(R) << R.status().str();
  EXPECT_TRUE(R->Degraded);
  EXPECT_NE(R->DegradeReason.find("verify-failed"), std::string::npos);
  EXPECT_NE(R->DegradeReason.find("injected verifier trip"),
            std::string::npos);
  ASSERT_NE(R->Program, nullptr);
  // The degraded result is the program as written: bit-identical to a
  // clean Base-mode compile.
  EXPECT_EQ(runProgram(R->Program, 128), BaseOut);
}

TEST(PipelineDegrade, CleanTryCompileDoesNotDegrade) {
  FaultGuard G;
  StreamPtr Root = firSourcePipeline({1, 2, 3, 4});
  PipelineOptions PO;
  PO.Mode = OptMode::Linear;
  PO.VerifyAfterEachPass = true;
  PO.Exec.Eng = Engine::Compiled;
  PO.UseProgramCache = false;
  Expected<CompileResult> R = CompilerPipeline(PO).tryCompile(*Root);
  ASSERT_TRUE(R) << R.status().str();
  EXPECT_FALSE(R->Degraded);
  EXPECT_TRUE(R->DegradeReason.empty());
  ASSERT_NE(R->Program, nullptr);
}

TEST(PipelineDegrade, PersistentVerifierFailureSurfacesAStatus) {
  FaultGuard G;
  StreamPtr Root = firSourcePipeline({1, 2, 3});
  PipelineOptions PO;
  PO.Mode = OptMode::Linear;
  PO.VerifyAfterEachPass = true;
  PO.UseProgramCache = false;
  faults::arm(faults::Point::PassVerifierTrip, 1, /*Persistent=*/true);
  Expected<CompileResult> R = CompilerPipeline(PO).tryCompile(*Root);
  ASSERT_FALSE(R); // even the Base-mode rung tripped: nothing left
  EXPECT_EQ(R.status().code(), ErrorCode::VerifyFailed);
  EXPECT_NE(R.status().message().find("base-mode degraded recompile"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Executor front doors: deadlocks as Statuses, seed validation
//===----------------------------------------------------------------------===//

TEST(ExecutorTry, InputShortfallIsADeadlockStatus) {
  FaultGuard G;
  StreamPtr Root = externallyDrivenGraph();
  CompiledProgramRef P = makeProgram(*Root);

  CompiledExecutor E(P);
  E.provideInput({1, 2, 3});
  Status St = E.tryRunIterations(64);
  ASSERT_FALSE(St.isOk());
  EXPECT_EQ(St.code(), ErrorCode::Deadlock);
  EXPECT_NE(St.message().find("external input"), std::string::npos);

  ParallelExecutor PE(P, ParallelOptions());
  PE.provideInput({1, 2, 3});
  Status PSt = PE.tryRunIterations(64);
  ASSERT_FALSE(PSt.isOk());
  EXPECT_EQ(PSt.code(), ErrorCode::Deadlock);
  EXPECT_NE(PSt.message().find("external input"), std::string::npos);
}

TEST(ExecutorTry, SeedPreconditionsComeBackAsShardAnomalies) {
  FaultGuard G;
  // Non-shardable program (feedback loop cycles state).
  auto Root = std::make_unique<Pipeline>("fb-root");
  Root->add(makeCountingSource());
  Root->add(std::make_unique<FeedbackLoop>(
      "fb", Joiner::roundRobin({1, 1}), makeSumDiffFilter(), makeIdentity(),
      Splitter::roundRobin({1, 1}), std::vector<double>{0.5}));
  Root->add(makePrinterSink());
  CompiledProgramRef FB = makeProgram(*Root);
  ASSERT_FALSE(FB->shardInfo().Shardable);
  CompiledExecutor E1(FB);
  Status St = E1.trySeedSteadyState(8);
  ASSERT_FALSE(St.isOk());
  EXPECT_EQ(St.code(), ErrorCode::ShardAnomaly);

  // A stale (already-run) executor must refuse seeding too.
  StreamPtr Fir = firSourcePipeline({1, 2, 3, 4, 5, 6, 7, 8});
  CompiledProgramRef P = makeProgram(*Fir);
  ASSERT_TRUE(P->shardInfo().Shardable) << P->shardInfo().Reason;
  CompiledExecutor E2(P);
  E2.tryRunIterations(4).orDie();
  St = E2.trySeedSteadyState(8);
  ASSERT_FALSE(St.isOk());
  EXPECT_EQ(St.code(), ErrorCode::ShardAnomaly);

  // The injected corruption fires on an otherwise-valid seed.
  faults::arm(faults::Point::ShardSeedCorrupt, 1);
  CompiledExecutor E3(P);
  St = E3.trySeedSteadyState(8);
  ASSERT_FALSE(St.isOk());
  EXPECT_EQ(St.code(), ErrorCode::ShardAnomaly);
  EXPECT_NE(St.message().find("injected"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Parallel backend: shard-seed anomaly -> sequential fallback,
// bit-identical
//===----------------------------------------------------------------------===//

void expectSeedCorruptFallback(bool Persistent) {
  FaultGuard G;
  StreamPtr Root = firSourcePipeline({1.5, -2.25, 3.0, 0.5, -0.125, 7.0});
  CompiledProgramRef P = makeProgram(*Root);
  ASSERT_TRUE(P->shardInfo().Shardable) << P->shardInfo().Reason;

  const int64_t Span = 150;
  CompiledExecutor Ref(P);
  ops::CountingScope Scope;
  OpCounts Before = ops::counts();
  Ref.tryRunIterations(Span).orDie();
  OpCounts RefOps = ops::counts() - Before;

  ParallelOptions PO;
  PO.Workers = 4;
  PO.ShardMinIterations = 2;
  faults::arm(faults::Point::ShardSeedCorrupt, 1, Persistent);
  ParallelExecutor E(P, PO);
  Before = ops::counts();
  Status St = E.tryRunIterations(Span);
  OpCounts ParOps = ops::counts() - Before;
  ASSERT_TRUE(St.isOk()) << St.str();
  EXPECT_GE(faults::hitCount(faults::Point::ShardSeedCorrupt), 1u);

  // The whole span re-ran sequentially, recorded as such...
  ParallelExecutor::RunStats Stats = E.lastRunStats();
  EXPECT_TRUE(Stats.Sequential);
  EXPECT_EQ(Stats.ShardsUsed, 1);
  EXPECT_NE(Stats.FallbackReason.find("shard-anomaly"), std::string::npos);
  // ...with outputs AND FLOP counts bit-identical to the clean run.
  EXPECT_EQ(E.printed(), Ref.printed());
  EXPECT_EQ(E.outputSnapshot(), Ref.outputSnapshot());
  EXPECT_TRUE(ParOps == RefOps);
  EXPECT_EQ(E.iterationsDone(), Span);
}

TEST(ParallelFallback, OneCorruptShardFallsBackBitIdentically) {
  expectSeedCorruptFallback(/*Persistent=*/false);
}

TEST(ParallelFallback, PersistentCorruptionFallsBackBitIdentically) {
  expectSeedCorruptFallback(/*Persistent=*/true);
}

TEST(ParallelFallback, NextSpanAfterFallbackContinuesCleanly) {
  FaultGuard G;
  StreamPtr Root = firSourcePipeline({2, -3, 5, -7});
  CompiledProgramRef P = makeProgram(*Root);
  ASSERT_TRUE(P->shardInfo().Shardable);

  CompiledExecutor Ref(P);
  Ref.tryRunIterations(240).orDie();

  ParallelOptions PO;
  PO.Workers = 4;
  PO.ShardMinIterations = 2;
  ParallelExecutor E(P, PO);
  faults::arm(faults::Point::ShardSeedCorrupt, 1); // poisons the 1st call
  ASSERT_TRUE(E.tryRunIterations(120).isOk());
  EXPECT_TRUE(E.lastRunStats().Sequential);
  ASSERT_TRUE(E.tryRunIterations(120).isOk()); // fault spent: shards again
  EXPECT_FALSE(E.lastRunStats().Sequential);
  EXPECT_EQ(E.printed(), Ref.printed());
}

//===----------------------------------------------------------------------===//
// Run deadline / cancellation
//===----------------------------------------------------------------------===//

TEST(RunDeadlineToken, InjectedHangReturnsTimeout) {
  FaultGuard G;
  StreamPtr Root = firSourcePipeline({1, 2, 3});
  CompiledProgramRef P = makeProgram(*Root);

  faults::arm(faults::Point::ExecHang, 1);
  faults::RunDeadline DL = faults::RunDeadline::afterMillis(50);
  CompiledExecutor E(P);
  Status St = E.tryRun(256, &DL);
  ASSERT_FALSE(St.isOk());
  EXPECT_EQ(St.code(), ErrorCode::Timeout);
}

TEST(RunDeadlineToken, CancellationFlagReturnsCancelled) {
  FaultGuard G;
  StreamPtr Root = firSourcePipeline({1, 2, 3});
  CompiledProgramRef P = makeProgram(*Root);

  std::atomic<bool> Cancel{true};
  faults::RunDeadline DL;
  DL.setCancelFlag(&Cancel);
  CompiledExecutor E(P);
  Status St = E.tryRunIterations(64, &DL);
  ASSERT_FALSE(St.isOk());
  EXPECT_EQ(St.code(), ErrorCode::Cancelled);
}

TEST(RunDeadlineToken, GenerousDeadlineChangesNothing) {
  FaultGuard G;
  StreamPtr Root = firSourcePipeline({4, 5, 6});
  CompiledProgramRef P = makeProgram(*Root);

  CompiledExecutor Ref(P);
  Ref.tryRun(128).orDie();

  faults::RunDeadline DL = faults::RunDeadline::afterMillis(60'000);
  CompiledExecutor E(P);
  ASSERT_TRUE(E.tryRun(128, &DL).isOk());
  EXPECT_EQ(E.printed(), Ref.printed());
}

TEST(RunDeadlineToken, ExpiredDeadlineStopsAParallelRun) {
  FaultGuard G;
  StreamPtr Root = firSourcePipeline({1, 2, 3, 4});
  CompiledProgramRef P = makeProgram(*Root);

  faults::RunDeadline DL = faults::RunDeadline::afterMillis(1);
  while (!DL.expired())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ParallelOptions PO;
  PO.Workers = 2;
  ParallelExecutor E(P, PO);
  Status St = E.tryRunIterations(100, &DL);
  ASSERT_FALSE(St.isOk());
  EXPECT_EQ(St.code(), ErrorCode::Timeout);
}

//===----------------------------------------------------------------------===//
// Native codegen (codegen-cc-fail / codegen-dlopen-fail)
//===----------------------------------------------------------------------===//

/// Clears the native-module cache (including negative entries) so a
/// fault armed here cannot poison — or be masked by — another test's
/// memoized module.
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

/// True when the discovered compiler both exists and runs (the CI
/// no-toolchain arm names a nonexistent SLIN_CXX, which
/// discoverCompiler() returns verbatim).
bool toolchainWorks() {
  std::string Cxx = codegen::discoverCompiler();
  if (Cxx.empty())
    return false;
  std::string Cmd = "'" + Cxx + "' --version >/dev/null 2>&1";
  int Rc = std::system(Cmd.c_str());
  return Rc != -1 && WIFEXITED(Rc) && WEXITSTATUS(Rc) == 0;
}

/// First N outputs with module \p M attached (null: op tapes).
std::vector<double> runWithModule(const CompiledProgramRef &P,
                                  codegen::NativeModuleRef M, size_t N) {
  CompiledExecutor E(P, std::move(M));
  E.tryRun(N).orDie();
  std::vector<double> Out =
      E.printed().empty() ? E.outputSnapshot() : E.printed();
  if (Out.size() > N)
    Out.resize(N);
  return Out;
}

TEST(NativeCodegenFaults, CompileFailureDegradesBitIdentical) {
  FaultGuard G;
  NativeGuard NG;
  if (codegen::discoverCompiler().empty())
    GTEST_SKIP() << "no C++ toolchain available";
  StreamPtr Root = firSourcePipeline({2.5, -1.25, 0.5, 3.0});
  CompiledProgramRef P = makeProgram(*Root);
  std::vector<double> Clean = runProgram(P, 96);

  faults::arm(faults::Point::CodegenCcFail, 1);
  std::string Reason;
  codegen::NativeModuleRef M =
      codegen::NativeModuleCache::global().get(*P, &Reason);
  EXPECT_EQ(M, nullptr);
  EXPECT_NE(Reason.find("injected compiler failure"), std::string::npos);
  EXPECT_EQ(codegen::NativeModuleCache::global().stats().CompileFailures, 1u);

  // The degraded engine answers on the op tapes, bit-identically.
  EXPECT_EQ(runWithModule(P, M, 96), Clean);
}

TEST(NativeCodegenFaults, DlopenFailureDegradesBitIdentical) {
  FaultGuard G;
  NativeGuard NG;
  if (!toolchainWorks())
    GTEST_SKIP() << "no working C++ toolchain available";
  StreamPtr Root = firSourcePipeline({1.5, 4.0, -2.0, 0.25});
  CompiledProgramRef P = makeProgram(*Root);
  std::vector<double> Clean = runProgram(P, 96);

  // The compile succeeds; loading the fresh object fails.
  faults::arm(faults::Point::CodegenDlopenFail, 1);
  std::string Reason;
  codegen::NativeModuleRef M =
      codegen::NativeModuleCache::global().get(*P, &Reason);
  EXPECT_EQ(M, nullptr);
  EXPECT_NE(Reason.find("injected dlopen failure"), std::string::npos);
  auto S = codegen::NativeModuleCache::global().stats();
  EXPECT_EQ(S.Compiles, 1u);
  EXPECT_EQ(S.DlopenFailures, 1u);

  EXPECT_EQ(runWithModule(P, M, 96), Clean);
}

TEST(NativeCodegenFaults, DiskTierDlopenFailureEvictsAndRebuilds) {
  FaultGuard G;
  NativeGuard NG;
  if (!toolchainWorks())
    GTEST_SKIP() << "no working C++ toolchain available";
  StoreGuard SG;
  codegen::NativeModuleCache &C = codegen::NativeModuleCache::global();
  StreamPtr Root = firSourcePipeline({0.75, -3.0, 2.25});
  CompiledProgramRef P = makeProgram(*Root);
  std::vector<double> Clean = runProgram(P, 96);

  // Build and publish the object, then forget the in-memory module.
  ASSERT_NE(C.get(*P), nullptr);
  ASSERT_EQ(C.stats().Compiles, 1u);
  C.clear();
  C.resetStats();

  // The disk-tier dlopen fails once: the stored object must be evicted
  // and a fresh build must serve the module — never a crash, never null.
  faults::arm(faults::Point::CodegenDlopenFail, 1);
  codegen::NativeModuleRef M = C.get(*P);
  ASSERT_NE(M, nullptr);
  auto S = C.stats();
  EXPECT_EQ(S.DiskHits, 0u);
  EXPECT_EQ(S.DlopenFailures, 1u);
  EXPECT_EQ(S.Compiles, 1u);

  EXPECT_EQ(runWithModule(P, M, 96), Clean);
}

//===----------------------------------------------------------------------===//
// Executor pool under concurrent requests with fault arms active
//===----------------------------------------------------------------------===//

TEST(PoolFaults, OneHungRequestTimesOutOthersServeIdentically) {
  FaultGuard G;
  StreamPtr Root = firSourcePipeline({1.25, -0.5, 2.0, 0.75});
  CompiledProgramRef P = makeProgram(*Root);
  std::vector<double> Clean = runProgram(P, 128);

  // One-shot hang: exactly one of the concurrent requests draws it,
  // parks until its deadline and comes back as a Timeout *result* —
  // the pool worker survives and keeps serving.
  faults::arm(faults::Point::ExecHang, 1);
  ExecutorPool Pool(P, 4);
  std::vector<std::future<ExecutorPool::Result>> Futures;
  for (int I = 0; I != 8; ++I) {
    ExecutorPool::Request R;
    R.NOutputs = 128;
    R.DeadlineMillis = 200;
    Futures.push_back(Pool.submit(std::move(R)));
  }
  int Timeouts = 0, Ok = 0;
  for (auto &F : Futures) {
    ExecutorPool::Result R = F.get();
    if (R.St.isOk()) {
      ++Ok;
      ASSERT_GE(R.Outputs.size(), Clean.size());
      std::vector<double> Out = R.Outputs;
      Out.resize(Clean.size());
      EXPECT_EQ(Out, Clean);
    } else {
      EXPECT_EQ(R.St.code(), ErrorCode::Timeout) << R.St.str();
      ++Timeouts;
    }
  }
  EXPECT_EQ(Timeouts, 1);
  EXPECT_EQ(Ok, 7);
  ExecutorPool::Stats S = Pool.stats();
  EXPECT_EQ(S.Served, 7u);
  EXPECT_EQ(S.Timeouts, 1u);
  EXPECT_EQ(S.Failures, 0u);
}

TEST(PoolFaults, PersistentShardCorruptionServesSequentiallyBitIdentical) {
  FaultGuard G;
  StreamPtr Root = firSourcePipeline({2.0, -1.5, 0.25});
  CompiledProgramRef P = makeProgram(*Root);
  ASSERT_TRUE(P->shardInfo().Shardable) << P->shardInfo().Reason;
  std::vector<double> Clean = runProgram(P, 256);

  // Every shard-seed attempt is corrupted for the whole burst: each
  // sharded request must absorb the anomaly and fall back to an
  // equivalent sequential run — all Ok, outputs bit-identical.
  faults::arm(faults::Point::ShardSeedCorrupt, 1, /*Persistent=*/true);
  ExecutorPool Pool(P, 4);
  std::vector<std::future<ExecutorPool::Result>> Futures;
  for (int I = 0; I != 6; ++I) {
    ExecutorPool::Request R;
    R.NOutputs = 256;
    R.Shard = true;
    Futures.push_back(Pool.submit(std::move(R)));
  }
  for (auto &F : Futures) {
    ExecutorPool::Result R = F.get();
    ASSERT_TRUE(R.St.isOk()) << R.St.str();
    ASSERT_GE(R.Outputs.size(), Clean.size());
    std::vector<double> Out = R.Outputs;
    Out.resize(Clean.size());
    EXPECT_EQ(Out, Clean);
  }
  EXPECT_GE(faults::hitCount(faults::Point::ShardSeedCorrupt), 1u);
  EXPECT_EQ(Pool.stats().Served, 6u);
  EXPECT_EQ(Pool.stats().Failures, 0u);
}

} // namespace
