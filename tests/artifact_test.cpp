//===- tests/artifact_test.cpp - Persistent artifact tests ----------------==//
//
// The disk-persistent CompiledProgram artifacts (support/Serialize.h +
// compiler/ArtifactStore.h): serialization round trips (graph, schedule,
// op tapes, packed matrices, native prototypes), golden-file byte
// stability, cache-key coverage (every CompiledOptions field perturbs
// the digest), ProgramCache observability, the disk tier (zero-pass
// loads that are bit-identical in outputs AND FLOP counts across the
// Compiled and Parallel engines), and the failure paths: corrupt,
// truncated and version-mismatched files must fall back to a clean
// recompile, never crash or serve stale bytes.
//
//===----------------------------------------------------------------------===//

#include "apps/Benchmarks.h"
#include "compiler/ArtifactStore.h"
#include "support/RuntimeConfig.h"
#include "compiler/AnalysisManager.h"
#include "compiler/Pipeline.h"
#include "compiler/Program.h"
#include "compiler/StructuralHash.h"
#include "exec/CompiledExecutor.h"
#include "exec/Measure.h"
#include "exec/Parallel.h"
#include "opt/Optimizer.h"
#include "support/Serialize.h"
#include "TestGraphs.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <unistd.h>

using namespace slin;
using namespace slin::testing_helpers;

namespace {

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

StreamPtr firPipeline(std::vector<double> Taps, const std::string &Name) {
  auto P = std::make_unique<Pipeline>(Name);
  P->add(makeCountingSource());
  P->add(makeFIR(std::move(Taps)));
  P->add(makePrinterSink());
  return P;
}

StreamPtr splitJoinGraph() {
  auto Root = std::make_unique<Pipeline>("root");
  Root->add(makeCountingSource());
  auto SJ = std::make_unique<SplitJoin>("sj", Splitter::duplicate(),
                                        Joiner::roundRobin({1, 2}));
  SJ->add(makeGain(10.0, "Gain10"));
  {
    auto Inner = std::make_unique<Pipeline>("inner");
    Inner->add(makeFIR({1.0, 2.0}, "Fir2"));
    Inner->add(makeExpander(2));
    SJ->add(std::move(Inner));
  }
  Root->add(std::move(SJ));
  Root->add(makePrinterSink());
  return Root;
}

StreamPtr feedbackGraph() {
  auto Root = std::make_unique<Pipeline>("root");
  Root->add(makeCountingSource());
  Root->add(std::make_unique<FeedbackLoop>(
      "fb", Joiner::roundRobin({1, 1}), makeSumDiffFilter(), makeIdentity(),
      Splitter::roundRobin({1, 1}), std::vector<double>{0.5}));
  Root->add(makePrinterSink());
  return Root;
}

std::vector<uint8_t> serializeOrDie(const CompiledProgram &P) {
  serial::Writer W;
  EXPECT_TRUE(serializeProgram(W, P));
  return W.bytes();
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

Measurement measureProgram(const Stream &Root, const CompiledProgramRef &P,
                           Engine Eng) {
  MeasureOptions MO;
  MO.WarmupOutputs = 64;
  MO.MeasureOutputs = 256;
  MO.MeasureTime = false;
  MO.Exec.Eng = Eng;
  MO.Program = P;
  return measureSteadyState(Root, MO);
}

/// A scoped artifact directory: points the global store at a fresh temp
/// directory and restores a clean, store-less state afterwards.
class StoreGuard {
public:
  StoreGuard() {
    Dir = (std::filesystem::temp_directory_path() /
           ("slin-artifact-test-" + std::to_string(::getpid()) + "-" +
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

private:
  static int Counter;
  std::string Dir;
};

int StoreGuard::Counter = 0;

//===----------------------------------------------------------------------===//
// Serialize primitives
//===----------------------------------------------------------------------===//

TEST(Serialize, PrimitivesRoundTrip) {
  serial::Writer W;
  W.u8(7);
  W.u32(0xdeadbeefu);
  W.u64(0x0123456789abcdefULL);
  W.i32(-42);
  W.i64(-1234567890123LL);
  W.f64(3.14159);
  W.boolean(true);
  W.str("hello");
  W.f64s({1.5, -2.5});
  W.ints({3, -4, 5});
  W.strs({"a", "bc"});

  serial::Reader R(W.bytes());
  EXPECT_EQ(R.u8(), 7);
  EXPECT_EQ(R.u32(), 0xdeadbeefu);
  EXPECT_EQ(R.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(R.i32(), -42);
  EXPECT_EQ(R.i64(), -1234567890123LL);
  EXPECT_EQ(R.f64(), 3.14159);
  EXPECT_TRUE(R.boolean());
  EXPECT_EQ(R.str(), "hello");
  EXPECT_EQ(R.f64s(), (std::vector<double>{1.5, -2.5}));
  EXPECT_EQ(R.ints(), (std::vector<int>{3, -4, 5}));
  EXPECT_EQ(R.strs(), (std::vector<std::string>{"a", "bc"}));
  EXPECT_TRUE(R.ok());
  EXPECT_TRUE(R.atEnd());
}

TEST(Serialize, ReaderRejectsTruncationAndAbsurdCounts) {
  serial::Writer W;
  W.u32(1000000); // element count with no elements behind it
  serial::Reader R(W.bytes());
  std::vector<double> V = R.f64s();
  EXPECT_TRUE(V.empty());
  EXPECT_FALSE(R.ok());

  serial::Reader R2(W.bytes().data(), 2); // truncated mid-integer
  R2.u32();
  EXPECT_FALSE(R2.ok());
}

//===----------------------------------------------------------------------===//
// Round trips
//===----------------------------------------------------------------------===//

/// Serializing the deserialized program must reproduce the original
/// bytes exactly — graph, schedule, tapes, matrices, everything.
void expectStableRoundTrip(const CompiledProgram &P) {
  std::vector<uint8_t> Bytes = serializeOrDie(P);
  serial::Reader R(Bytes);
  auto Loaded = deserializeProgram(R);
  ASSERT_NE(Loaded, nullptr);
  EXPECT_TRUE(Loaded->loadedFromArtifact());
  EXPECT_EQ(serializeOrDie(*Loaded), Bytes);

  // Spot checks on the pieces (the byte comparison above covers them,
  // but these localize failures).
  EXPECT_EQ(Loaded->graph().Nodes.size(), P.graph().Nodes.size());
  EXPECT_EQ(Loaded->graph().numChannels(), P.graph().numChannels());
  EXPECT_EQ(Loaded->schedule().BatchIterations,
            P.schedule().BatchIterations);
  EXPECT_EQ(Loaded->schedule().Repetitions, P.schedule().Repetitions);
  EXPECT_EQ(Loaded->schedule().ChannelBufSize, P.schedule().ChannelBufSize);
  EXPECT_EQ(Loaded->shardInfo().Shardable, P.shardInfo().Shardable);
  EXPECT_EQ(Loaded->shardInfo().WashoutIterations,
            P.shardInfo().WashoutIterations);
  for (size_t I = 0; I != P.graph().Nodes.size(); ++I) {
    if (P.graph().Nodes[I].Kind != flat::NodeKind::Filter)
      continue;
    EXPECT_EQ(Loaded->filterArtifact(I).Work.size(),
              P.filterArtifact(I).Work.size());
    EXPECT_EQ(Loaded->filterArtifact(I).Native != nullptr,
              P.filterArtifact(I).Native != nullptr);
  }

  // The reconstructed stream is structurally the stored stream.
  EXPECT_EQ(structuralHash(Loaded->root()), structuralHash(P.root()));
  EXPECT_EQ(hashOptions(Loaded->options()), hashOptions(P.options()));
}

TEST(ArtifactRoundTrip, PlainIRGraphs) {
  for (const auto &Make :
       {+[] { return firPipeline({1, 2, 3, 4, 5}, "fir"); },
        +[] { return splitJoinGraph(); }, +[] { return feedbackGraph(); }}) {
    StreamPtr Root = Make();
    CompiledOptions Opts;
    Opts.BatchIterations = 4;
    auto P = std::make_shared<const CompiledProgram>(*Root, Opts);
    expectStableRoundTrip(*P);

    std::vector<uint8_t> Bytes = serializeOrDie(*P);
    serial::Reader R(Bytes);
    auto Loaded = deserializeProgram(R);
    ASSERT_NE(Loaded, nullptr);
    EXPECT_EQ(runProgram(Loaded, 96), runProgram(P, 96));
  }
}

TEST(ArtifactRoundTrip, OptimizedNativePrototypes) {
  // Each mode exercises a different native prototype: PackedNative and
  // TunedNative the packed/tuned matrix kernels, Freq the FFT filter
  // with its precomputed spectra.
  struct Config {
    OptMode Mode;
    LinearCodeGenStyle CodeGen;
  };
  for (Config C : {Config{OptMode::Linear, LinearCodeGenStyle::PackedNative},
                   Config{OptMode::Linear, LinearCodeGenStyle::TunedNative},
                   Config{OptMode::Freq, LinearCodeGenStyle::Auto}}) {
    StreamPtr Root = firPipeline({1, 2, 3, 4, 5, 6, 7, 8}, "fir8");
    PipelineOptions PO;
    PO.Mode = C.Mode;
    PO.CodeGen = C.CodeGen;
    PO.Exec.Eng = Engine::Compiled;
    PO.UseProgramCache = false;
    CompileResult R = compileStream(*Root, PO);
    ASSERT_NE(R.Program, nullptr);
    expectStableRoundTrip(*R.Program);

    std::vector<uint8_t> Bytes = serializeOrDie(*R.Program);
    serial::Reader Rd(Bytes);
    auto Loaded = deserializeProgram(Rd);
    ASSERT_NE(Loaded, nullptr);
    EXPECT_EQ(runProgram(Loaded, 96), runProgram(R.Program, 96))
        << "mode " << optModeName(C.Mode);
  }
}

// The real applications, AutoSel-optimized (frequency natives, packed
// kernels, null splitters, init work): a loaded artifact must behave
// bit-identically — outputs and FLOP counts — on both artifact engines.
TEST(ArtifactRoundTrip, BenchmarkAppsAutoSelLoadedBitIdentity) {
  StoreGuard Guard;
  for (const char *Name : {"FIR", "RateConvert", "FilterBank", "Radar"}) {
    StreamPtr Root;
    for (const apps::BenchmarkEntry &B : apps::allBenchmarks())
      if (B.Name == Name)
        Root = B.Build();
    ASSERT_NE(Root, nullptr) << Name;

    PipelineOptions PO;
    PO.Mode = OptMode::AutoSel;
    PO.Exec.Eng = Engine::Compiled;
    CompileResult Cold = compileStream(*Root, PO);
    ASSERT_NE(Cold.Program, nullptr) << Name;

    ProgramCache::global().clear();
    AnalysisManager::global().invalidate();
    CompileResult Warm = compileStream(*Root, PO);
    ASSERT_NE(Warm.Program, nullptr) << Name;
    EXPECT_TRUE(Warm.Program->loadedFromArtifact()) << Name;
    EXPECT_EQ(Warm.Passes.size(), 1u) << Name << "\n" << Warm.timingReport();

    EXPECT_EQ(runProgram(Warm.Program, 512), runProgram(Cold.Program, 512))
        << Name;
    for (Engine Eng : {Engine::Compiled, Engine::Parallel}) {
      Measurement MCold = measureProgram(*Cold.Optimized, Cold.Program, Eng);
      Measurement MWarm = measureProgram(*Warm.Optimized, Warm.Program, Eng);
      EXPECT_EQ(MCold.Ops.flops(), MWarm.Ops.flops())
          << Name << " on " << engineName(Eng);
      EXPECT_EQ(MCold.Outputs, MWarm.Outputs)
          << Name << " on " << engineName(Eng);
    }
  }
}

//===----------------------------------------------------------------------===//
// Golden file
//===----------------------------------------------------------------------===//

// The serialized form of a fixed small program must stay byte-stable;
// any intentional format change must bump ArtifactStore::formatVersion()
// and regenerate the goldens (SLIN_UPDATE_GOLDEN=1 ./artifact_test).
void expectGoldenBytes(const CompiledProgram &P, const std::string &File) {
  std::vector<uint8_t> Bytes = serializeOrDie(P);
  std::string Path = std::string(SLIN_TEST_GOLDEN_DIR) + "/" + File;
  if (std::getenv("SLIN_UPDATE_GOLDEN")) {
    std::ofstream Out(Path, std::ios::binary);
    Out.write(reinterpret_cast<const char *>(Bytes.data()),
              static_cast<std::streamsize>(Bytes.size()));
    GTEST_SKIP() << "golden regenerated: " << Path;
  }
  std::ifstream In(Path, std::ios::binary);
  ASSERT_TRUE(In.good()) << "missing golden file " << Path;
  std::vector<uint8_t> Golden((std::istreambuf_iterator<char>(In)),
                              std::istreambuf_iterator<char>());
  EXPECT_EQ(Bytes, Golden)
      << "serialized form changed (" << Bytes.size() << " vs "
      << Golden.size()
      << " bytes): bump ArtifactStore::formatVersion() and regenerate "
         "with SLIN_UPDATE_GOLDEN=1";
}

TEST(ArtifactGolden, SmallProgramBytesAreStable) {
  StreamPtr Root = firPipeline({1.0, 2.0, 3.0}, "golden");
  CompiledOptions Opts;
  Opts.BatchIterations = 4;
  CompiledProgram P(*Root, Opts);
  expectGoldenBytes(P, "program_v1.bin");
}

// The same pipeline under frequency replacement: its "freq" payload
// stores the column spectra forwardReal computed, bit for bit, so any
// rounding drift in the FFT kernels changes these bytes too.
TEST(ArtifactGolden, FrequencyProgramBytesAreStable) {
  StreamPtr Root = firPipeline({1.0, 2.0, 3.0}, "golden");
  OptimizerOptions O;
  O.Mode = OptMode::Freq;
  StreamPtr Opt = optimize(*Root, O);
  CompiledOptions Opts;
  Opts.BatchIterations = 4;
  CompiledProgram P(*Opt, Opts);
  expectGoldenBytes(P, "program_freq_v1.bin");
}

uint64_t fnv1a64(const std::vector<uint8_t> &Bytes) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (uint8_t B : Bytes) {
    H ^= B;
    H *= 0x100000001b3ull;
  }
  return H;
}

// The selection DP's choices on the nine fig 5-1 apps, under the default
// (measured, compiled-engine) model and under the paper's model: the
// size and FNV-1a-64 of each serialized program. A change to selection
// or to a cost model that moves any of these must declare itself here.
TEST(ArtifactGolden, AutoSelProgramsArePinned) {
  struct Pin {
    const char *App;
    size_t Bytes;
    uint64_t Hash;
    size_t PaperBytes;
    uint64_t PaperHash;
  };
  const Pin Pins[] = {
      {"FIR", 5539, 0x5a70ac37c1ce8f05, 5539, 0x5a70ac37c1ce8f05},
      {"RateConvert", 9845, 0x2986330d6d14b69a, 9845, 0x2986330d6d14b69a},
      {"TargetDetect", 61098, 0x58c0beed5fe3760d, 61098, 0x58c0beed5fe3760d},
      {"FMRadio", 9554, 0xd607c2f2be19f7d3, 9554, 0xd607c2f2be19f7d3},
      {"Radar", 169638, 0x0dfcdea711b74f25, 108847, 0x66e99746877a2b3d},
      {"FilterBank", 27442, 0x9f130171c25b7426, 27442, 0x9f130171c25b7426},
      {"Vocoder", 12789, 0xf422395d1b1818d7, 12789, 0xf422395d1b1818d7},
      {"Oversampler", 18669, 0x57bc6c05993513f4, 18669, 0x57bc6c05993513f4},
      {"DToA", 17562325, 0x9331907195ff57eb, 17562325, 0x9331907195ff57eb},
  };
  const CostModel Paper;
  ASSERT_EQ(apps::allBenchmarks().size(), std::size(Pins));
  for (const Pin &Want : Pins) {
    StreamPtr Root;
    for (const apps::BenchmarkEntry &B : apps::allBenchmarks())
      if (B.Name == Want.App)
        Root = B.Build();
    ASSERT_NE(Root, nullptr) << Want.App;
    for (const CostModel *Model : {static_cast<const CostModel *>(nullptr),
                                   &Paper}) {
      PipelineOptions PO;
      PO.Mode = OptMode::AutoSel;
      PO.Exec.Eng = Engine::Compiled;
      PO.Model = Model;
      PO.UseProgramCache = false;
      PO.VerifyAfterEachPass = true;
      CompileResult R = compileStream(*Root, PO);
      ASSERT_NE(R.Program, nullptr) << Want.App;
      std::vector<uint8_t> Bytes = serializeOrDie(*R.Program);
      const char *What = Model ? "paper model" : "measured model";
      EXPECT_EQ(Bytes.size(), Model ? Want.PaperBytes : Want.Bytes)
          << Want.App << " under the " << What;
      EXPECT_EQ(fnv1a64(Bytes), Model ? Want.PaperHash : Want.Hash)
          << Want.App << " under the " << What;
    }
  }
}

//===----------------------------------------------------------------------===//
// Cache-key coverage
//===----------------------------------------------------------------------===//

// Every CompiledOptions field (including nested ParallelOptions) must
// perturb the cache key, or configurations differing only in that field
// would alias one artifact. hashOptions itself is guarded at compile
// time by aggregate destructuring; this pins the runtime behaviour.
TEST(HashOptionsKey, EveryFieldPerturbsTheDigest) {
  CompiledOptions Base;
  HashDigest D0 = hashOptions(Base);

  CompiledOptions A = Base;
  A.BatchIterations += 1;
  EXPECT_NE(hashOptions(A), D0) << "BatchIterations not keyed";

  CompiledOptions B = Base;
  B.Parallel.Workers += 1;
  EXPECT_NE(hashOptions(B), D0) << "Parallel.Workers not keyed";

  CompiledOptions C = Base;
  C.Parallel.ShardMinIterations += 1;
  EXPECT_NE(hashOptions(C), D0) << "Parallel.ShardMinIterations not keyed";

  // And all three produce distinct keys from each other.
  EXPECT_NE(hashOptions(A), hashOptions(B));
  EXPECT_NE(hashOptions(A), hashOptions(C));
  EXPECT_NE(hashOptions(B), hashOptions(C));
}

//===----------------------------------------------------------------------===//
// ProgramCache observability
//===----------------------------------------------------------------------===//

TEST(ProgramCacheStats, HitsMissesEvictionsAndEntries) {
  ArtifactStore::setGlobalDir(""); // memory tier only
  ProgramCache &Cache = ProgramCache::global();
  Cache.clear();
  Cache.resetStats();
  Cache.setCapacity(2);

  StreamPtr G1 = firPipeline({1, 2}, "g1");
  StreamPtr G2 = firPipeline({1, 2, 3}, "g2");
  StreamPtr G3 = firPipeline({1, 2, 3, 4}, "g3");
  CompiledOptions Opts;

  Cache.get(*G1, Opts);
  Cache.get(*G1, Opts); // hit
  Cache.get(*G2, Opts);
  Cache.get(*G3, Opts); // evicts the LRU entry (g1)

  ProgramCache::Stats S = Cache.stats();
  EXPECT_EQ(S.Misses, 3u);
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.Evictions, 1u);
  EXPECT_EQ(S.Entries, 2u);
  EXPECT_EQ(S.DiskHits, 0u);
  EXPECT_EQ(S.DiskMisses, 0u);

  bool Hit = false;
  Cache.get(*G1, Opts, &Hit); // was evicted: recompile
  EXPECT_FALSE(Hit);

  Cache.setCapacity(64); // restore the default for other tests
  Cache.clear();
  Cache.resetStats();
}

//===----------------------------------------------------------------------===//
// Disk tier
//===----------------------------------------------------------------------===//

TEST(DiskTier, ProgramCacheLoadsFromDiskAfterClear) {
  StoreGuard Guard;
  StreamPtr Root = firPipeline({1, 2, 3, 4}, "disk");
  CompiledOptions Opts;

  bool Hit = true;
  CompiledProgramRef Fresh = ProgramCache::global().get(*Root, Opts, &Hit);
  EXPECT_FALSE(Hit);
  EXPECT_FALSE(Fresh->loadedFromArtifact());
  EXPECT_GE(ProgramCache::global().stats().DiskStores, 1u);

  // "Second process": drop all in-memory state, keep the files.
  ProgramCache::global().clear();
  CompiledProgramRef Loaded = ProgramCache::global().get(*Root, Opts, &Hit);
  EXPECT_TRUE(Hit);
  ASSERT_NE(Loaded, nullptr);
  EXPECT_TRUE(Loaded->loadedFromArtifact());
  EXPECT_GE(ProgramCache::global().stats().DiskHits, 1u);

  // Zero lowering passes ran for the loaded program.
  EXPECT_EQ(Loaded->buildStats().FlattenSeconds, 0.0);
  EXPECT_EQ(Loaded->buildStats().ScheduleSeconds, 0.0);
  EXPECT_EQ(Loaded->buildStats().TapeSeconds, 0.0);

  EXPECT_EQ(runProgram(Loaded, 128), runProgram(Fresh, 128));
}

// The acceptance path: a post-clear (second-process-equivalent) compile
// of an optimizing configuration resolves entirely through the artifact
// store — zero compiler passes, asserted via the pass-manager records —
// and the loaded program is bit-identical in outputs AND FLOP counts to
// the fresh compile on both artifact engines.
TEST(DiskTier, WarmPipelineCompileRunsZeroPassesAndIsBitIdentical) {
  StoreGuard Guard;
  StreamPtr Root = firPipeline({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, "warm");

  PipelineOptions PO;
  PO.Mode = OptMode::AutoSel;
  PO.Exec.Eng = Engine::Compiled;
  PO.Exec.Compiled.Parallel.Workers = 2;

  CompileResult Cold = compileStream(*Root, PO);
  ASSERT_NE(Cold.Program, nullptr);
  EXPECT_FALSE(Cold.Program->loadedFromArtifact());
  bool SawTransformPass = false;
  for (const PassInfo &P : Cold.Passes)
    SawTransformPass |= P.Name == "selection";
  EXPECT_TRUE(SawTransformPass);

  // Second process: all in-memory caches gone.
  ProgramCache::global().clear();
  AnalysisManager::global().invalidate();

  CompileResult Warm = compileStream(*Root, PO);
  ASSERT_NE(Warm.Program, nullptr);
  EXPECT_TRUE(Warm.Program->loadedFromArtifact());
  EXPECT_TRUE(Warm.ProgramCacheHit);
  ASSERT_EQ(Warm.Passes.size(), 1u) << Warm.timingReport();
  EXPECT_EQ(Warm.Passes[0].Name, "artifact-load");
  EXPECT_EQ(Warm.Passes[0].Note, "disk artifact hit");
  EXPECT_EQ(Warm.Program->buildStats().FlattenSeconds, 0.0);
  EXPECT_EQ(Warm.Program->buildStats().ScheduleSeconds, 0.0);
  EXPECT_EQ(Warm.Program->buildStats().TapeSeconds, 0.0);

  // Same optimized structure, bit-identical behaviour on both engines.
  EXPECT_EQ(structuralHash(*Warm.Optimized), structuralHash(*Cold.Optimized));
  EXPECT_EQ(runProgram(Warm.Program, 256), runProgram(Cold.Program, 256));
  for (Engine Eng : {Engine::Compiled, Engine::Parallel}) {
    Measurement MCold = measureProgram(*Cold.Optimized, Cold.Program, Eng);
    Measurement MWarm = measureProgram(*Warm.Optimized, Warm.Program, Eng);
    EXPECT_EQ(MCold.Ops.flops(), MWarm.Ops.flops())
        << "engine " << engineName(Eng);
    EXPECT_EQ(MCold.Ops.mults(), MWarm.Ops.mults())
        << "engine " << engineName(Eng);
    EXPECT_EQ(MCold.Outputs, MWarm.Outputs) << "engine " << engineName(Eng);
  }
}

TEST(DiskTier, SlinNoCacheBypassesTheDiskTier) {
  StoreGuard Guard;
  StreamPtr Root = firPipeline({4, 3, 2, 1}, "nocache");
  CompiledOptions Opts;

  // Populate the store.
  ProgramCache::global().get(*Root, Opts);
  ASSERT_GE(Guard.fileCount(), 1u);
  size_t Files = Guard.fileCount();

  ProgramCache::global().clear();
  ProgramCache::global().resetStats();
  ::setenv("SLIN_NO_CACHE", "1", 1);
  RuntimeConfig::refreshFromEnv();
  bool Hit = true;
  CompiledProgramRef P = ProgramCache::global().get(*Root, Opts, &Hit);
  ::unsetenv("SLIN_NO_CACHE");
  RuntimeConfig::refreshFromEnv();

  // Neither served from disk nor stored to disk.
  EXPECT_FALSE(Hit);
  EXPECT_FALSE(P->loadedFromArtifact());
  ProgramCache::Stats S = ProgramCache::global().stats();
  EXPECT_EQ(S.DiskHits, 0u);
  EXPECT_EQ(S.DiskMisses, 0u);
  EXPECT_EQ(S.DiskStores, 0u);
  EXPECT_EQ(Guard.fileCount(), Files);
}

TEST(DiskTier, CorruptTruncatedAndVersionMismatchedFilesRecompile) {
  StoreGuard Guard;
  StreamPtr Root = firPipeline({1, 2, 3, 4, 5}, "corrupt");
  CompiledOptions Opts;

  CompiledProgramRef Fresh = ProgramCache::global().get(*Root, Opts);
  std::vector<double> Expect = runProgram(Fresh, 128);

  ArtifactStore::Key K{structuralHash(Fresh->root()), hashOptions(Opts)};
  std::string Path = Guard.store().pathFor(K);
  ASSERT_TRUE(std::filesystem::exists(Path));
  std::ifstream In(Path, std::ios::binary);
  std::vector<char> Original((std::istreambuf_iterator<char>(In)),
                             std::istreambuf_iterator<char>());
  In.close();
  ASSERT_GT(Original.size(), 100u);

  auto WriteFile = [&](const std::vector<char> &Bytes) {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  };
  auto ExpectCleanRecompile = [&](const char *What) {
    ProgramCache::global().clear();
    uint64_t FailuresBefore = Guard.store().stats().LoadFailures;
    bool Hit = true;
    CompiledProgramRef P = ProgramCache::global().get(*Root, Opts, &Hit);
    EXPECT_FALSE(Hit) << What;
    ASSERT_NE(P, nullptr) << What;
    EXPECT_FALSE(P->loadedFromArtifact()) << What;
    EXPECT_EQ(runProgram(P, 128), Expect) << What;
    EXPECT_GT(Guard.store().stats().LoadFailures, FailuresBefore) << What;
  };

  // Bit flip in the middle of the payload: the checksum must reject it.
  std::vector<char> Flipped = Original;
  Flipped[Flipped.size() / 2] ^= 0x40;
  WriteFile(Flipped);
  ExpectCleanRecompile("bit-flipped payload");

  // Bit flip inside the header's key field.
  Flipped = Original;
  Flipped[20] ^= 0x01;
  WriteFile(Flipped);
  ExpectCleanRecompile("bit-flipped header");

  // Truncation at an arbitrary point.
  std::vector<char> Truncated(Original.begin(),
                              Original.begin() + Original.size() / 3);
  WriteFile(Truncated);
  ExpectCleanRecompile("truncated file");

  // Format-version bump: byte 8 is the little-endian version word.
  std::vector<char> Versioned = Original;
  Versioned[8] = static_cast<char>(Versioned[8] + 1);
  WriteFile(Versioned);
  ExpectCleanRecompile("version mismatch");

  // Restoring the original bytes serves from disk again (same content).
  WriteFile(Original);
  ProgramCache::global().clear();
  bool Hit = false;
  CompiledProgramRef P = ProgramCache::global().get(*Root, Opts, &Hit);
  EXPECT_TRUE(Hit);
  EXPECT_TRUE(P->loadedFromArtifact());
  EXPECT_EQ(runProgram(P, 128), Expect);
}

//===----------------------------------------------------------------------===//
// Unserializable natives degrade to memory-only caching
//===----------------------------------------------------------------------===//

/// A native with no serialTag: programs containing it must never be
/// persisted (and never crash trying).
class OpaqueNegate : public NativeFilter {
public:
  int peekRate() const override { return 1; }
  int popRate() const override { return 1; }
  int pushRate() const override { return 1; }
  void fire(wir::Tape &T) override { T.push(-T.peek(0)), T.pop(); }
  std::unique_ptr<NativeFilter> clone() const override {
    return std::make_unique<OpaqueNegate>();
  }
};

TEST(DiskTier, UnserializableNativeStaysMemoryOnly) {
  StoreGuard Guard;
  auto Root = std::make_unique<Pipeline>("opaque");
  Root->add(makeCountingSource());
  Root->add(std::make_unique<Filter>("Neg", std::make_unique<OpaqueNegate>()));
  Root->add(makePrinterSink());

  CompiledOptions Opts;
  size_t FilesBefore = Guard.fileCount();
  CompiledProgramRef P = ProgramCache::global().get(*Root, Opts);
  EXPECT_EQ(Guard.fileCount(), FilesBefore); // nothing persisted
  EXPECT_EQ(ProgramCache::global().stats().DiskStores, 0u);

  serial::Writer W;
  EXPECT_FALSE(serializeProgram(W, *P));

  // Memory tier still serves it.
  bool Hit = false;
  ProgramCache::global().get(*Root, Opts, &Hit);
  EXPECT_TRUE(Hit);
}

} // namespace
