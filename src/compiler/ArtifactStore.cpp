//===- compiler/ArtifactStore.cpp - Disk-persistent artifacts ----------------==//

#include "compiler/ArtifactStore.h"

#include "compiler/StructuralHash.h"
#include "opt/Frequency.h"
#include "opt/LinearReplacement.h"
#include "support/Diag.h"
#include "support/FaultInjection.h"
#include "support/RuntimeConfig.h"
#include "support/Serialize.h"
#include "support/StatsRegistry.h"
#include "wir/IRSerialize.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <dirent.h>
#include <fcntl.h>
#include <map>
#include <optional>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>
#include <vector>

using namespace slin;
using namespace slin::serial;
using namespace slin::wir;

//===----------------------------------------------------------------------===//
// Native-filter factory registry
//===----------------------------------------------------------------------===//

namespace {

std::mutex &registryMutex() {
  static std::mutex M;
  return M;
}

std::map<std::string, NativeFilterFactory> &registry() {
  static std::map<std::string, NativeFilterFactory> R;
  return R;
}

/// The built-in serializable natives live in opt/*.cpp; registering them
/// explicitly (rather than via static initializers) keeps registration
/// deterministic under static linking.
void ensureBuiltinFactories() {
  static std::once_flag Once;
  std::call_once(Once, [] {
    registerFrequencyNativeSerialization();
    registerLinearNativeSerialization();
  });
}

std::unique_ptr<NativeFilter> makeNative(const std::string &Tag, Reader &R) {
  ensureBuiltinFactories();
  NativeFilterFactory Factory = nullptr;
  {
    std::lock_guard<std::mutex> Lock(registryMutex());
    auto It = registry().find(Tag);
    if (It != registry().end())
      Factory = It->second;
  }
  if (!Factory) {
    R.fail(); // unknown class: written by a newer build — treat as miss
    return nullptr;
  }
  return Factory(R);
}

} // namespace

void slin::registerNativeFilterFactory(const std::string &Tag,
                                       NativeFilterFactory Factory) {
  std::lock_guard<std::mutex> Lock(registryMutex());
  registry()[Tag] = Factory;
}

//===----------------------------------------------------------------------===//
// Stream-tree serialization
//===----------------------------------------------------------------------===//

namespace {

enum StreamTag : uint8_t {
  TagFilterIR = 1,
  TagFilterNative = 2,
  TagPipeline = 3,
  TagSplitJoin = 4,
  TagFeedback = 5,
};

bool writeStream(Writer &W, const Stream &S) {
  switch (S.kind()) {
  case StreamKind::Filter: {
    const auto *F = slin::cast<Filter>(&S);
    if (F->isNative()) {
      const char *Tag = F->native().serialTag();
      if (!Tag)
        return false; // not serializable; the program stays memory-only
      W.u8(TagFilterNative);
      W.str(F->name());
      W.str(Tag);
      F->native().serializePayload(W);
      return true;
    }
    W.u8(TagFilterIR);
    W.str(F->name());
    writeFilterBody(W, F->fields(), F->work(), F->initWork());
    return true;
  }
  case StreamKind::Pipeline: {
    const auto *P = slin::cast<Pipeline>(&S);
    W.u8(TagPipeline);
    W.str(P->name());
    W.u32(static_cast<uint32_t>(P->children().size()));
    for (const StreamPtr &C : P->children())
      if (!writeStream(W, *C))
        return false;
    return true;
  }
  case StreamKind::SplitJoin: {
    const auto *SJ = slin::cast<SplitJoin>(&S);
    W.u8(TagSplitJoin);
    W.str(SJ->name());
    W.u8(static_cast<uint8_t>(SJ->splitter().Kind));
    W.ints(SJ->splitter().Weights);
    W.ints(SJ->joiner().Weights);
    W.u32(static_cast<uint32_t>(SJ->children().size()));
    for (const StreamPtr &C : SJ->children())
      if (!writeStream(W, *C))
        return false;
    return true;
  }
  case StreamKind::FeedbackLoop: {
    const auto *FB = slin::cast<FeedbackLoop>(&S);
    W.u8(TagFeedback);
    W.str(FB->name());
    W.ints(FB->joiner().Weights);
    W.u8(static_cast<uint8_t>(FB->splitter().Kind));
    W.ints(FB->splitter().Weights);
    W.f64s(FB->enqueued());
    return writeStream(W, FB->body()) && writeStream(W, FB->loop());
  }
  }
  unreachable("unknown stream kind");
}

StreamPtr readStream(Reader &R, int Depth) {
  if (Depth > MaxTreeDepth) {
    R.fail();
    return nullptr;
  }
  uint8_t Tag = R.u8();
  if (!R.ok()) {
    R.fail();
    return nullptr;
  }
  switch (Tag) {
  case TagFilterIR: {
    std::string Name = R.str();
    std::vector<FieldDef> Fields;
    WorkFunction Work;
    std::optional<WorkFunction> Init;
    if (!readFilterBody(R, Fields, Work, Init))
      return nullptr;
    auto F = std::make_unique<Filter>(std::move(Name), std::move(Fields),
                                      std::move(Work));
    if (Init)
      F->setInitWork(std::move(*Init));
    return F;
  }
  case TagFilterNative: {
    std::string Name = R.str();
    std::string NativeTag = R.str();
    if (!R.ok())
      return nullptr;
    std::unique_ptr<NativeFilter> N = makeNative(NativeTag, R);
    if (!N || !R.ok()) {
      R.fail();
      return nullptr;
    }
    return std::make_unique<Filter>(std::move(Name), std::move(N));
  }
  case TagPipeline: {
    std::string Name = R.str();
    uint32_t Count = R.u32();
    if (!R.ok() || Count == 0 || Count > R.remaining()) {
      R.fail();
      return nullptr;
    }
    auto P = std::make_unique<Pipeline>(std::move(Name));
    for (uint32_t I = 0; I != Count; ++I) {
      StreamPtr C = readStream(R, Depth + 1);
      if (!C)
        return nullptr;
      P->add(std::move(C));
    }
    return P;
  }
  case TagSplitJoin: {
    std::string Name = R.str();
    uint8_t SplitKind = R.u8();
    std::vector<int> SplitWeights = R.ints();
    std::vector<int> JoinWeights = R.ints();
    uint32_t Count = R.u32();
    if (!R.ok() || SplitKind > Splitter::RoundRobin || Count == 0 ||
        Count > R.remaining()) {
      R.fail();
      return nullptr;
    }
    Splitter Split = SplitKind == Splitter::Duplicate
                         ? Splitter::duplicate()
                         : Splitter::roundRobin(std::move(SplitWeights));
    auto SJ = std::make_unique<SplitJoin>(
        std::move(Name), std::move(Split),
        Joiner::roundRobin(std::move(JoinWeights)));
    for (uint32_t I = 0; I != Count; ++I) {
      StreamPtr C = readStream(R, Depth + 1);
      if (!C)
        return nullptr;
      SJ->add(std::move(C));
    }
    return SJ;
  }
  case TagFeedback: {
    std::string Name = R.str();
    std::vector<int> JoinWeights = R.ints();
    uint8_t SplitKind = R.u8();
    std::vector<int> SplitWeights = R.ints();
    std::vector<double> Enqueued = R.f64s();
    if (!R.ok() || SplitKind > Splitter::RoundRobin) {
      R.fail();
      return nullptr;
    }
    StreamPtr Body = readStream(R, Depth + 1);
    StreamPtr Loop = Body ? readStream(R, Depth + 1) : nullptr;
    if (!Loop)
      return nullptr;
    Splitter Split = SplitKind == Splitter::Duplicate
                         ? Splitter::duplicate()
                         : Splitter::roundRobin(std::move(SplitWeights));
    return std::make_unique<FeedbackLoop>(
        std::move(Name), Joiner::roundRobin(std::move(JoinWeights)),
        std::move(Body), std::move(Loop), std::move(Split),
        std::move(Enqueued));
  }
  default:
    R.fail();
    return nullptr;
  }
}

/// Filters in canonical DFS order (pipeline/splitjoin children in order,
/// feedback body before loop) — identical on both sides of a round trip,
/// so the flat graph can reference filters by index.
void collectFilters(const Stream &S, std::vector<const Filter *> &Out) {
  switch (S.kind()) {
  case StreamKind::Filter:
    Out.push_back(slin::cast<Filter>(&S));
    return;
  case StreamKind::Pipeline:
    for (const StreamPtr &C : slin::cast<Pipeline>(&S)->children())
      collectFilters(*C, Out);
    return;
  case StreamKind::SplitJoin:
    for (const StreamPtr &C : slin::cast<SplitJoin>(&S)->children())
      collectFilters(*C, Out);
    return;
  case StreamKind::FeedbackLoop: {
    const auto *FB = slin::cast<FeedbackLoop>(&S);
    collectFilters(FB->body(), Out);
    collectFilters(FB->loop(), Out);
    return;
  }
  }
  unreachable("unknown stream kind");
}

//===----------------------------------------------------------------------===//
// Flat graph serialization
//===----------------------------------------------------------------------===//

void writeFlatGraph(Writer &W, const flat::FlatGraph &G,
                    const std::map<const Filter *, int> &FilterIdx) {
  W.u32(static_cast<uint32_t>(G.Nodes.size()));
  for (const flat::Node &N : G.Nodes) {
    W.u8(static_cast<uint8_t>(N.Kind));
    W.str(N.Name);
    W.i32(N.F ? FilterIdx.at(N.F) : -1);
    W.i32(N.In);
    W.i32(N.Out);
    W.ints(N.Ins);
    W.ints(N.Outs);
    W.ints(N.Weights);
  }
  W.u32(static_cast<uint32_t>(G.InitialItems.size()));
  for (const std::vector<double> &Items : G.InitialItems)
    W.f64s(Items);
  W.i32(G.ExternalIn);
  W.i32(G.ExternalOut);
  W.boolean(G.RootProducesOutput);
}

bool channelInRange(int C, size_t NumChannels) {
  return C >= -1 && C < static_cast<int>(NumChannels);
}

bool readFlatGraph(Reader &R, const std::vector<const Filter *> &Filters,
                   flat::FlatGraph &Out) {
  uint32_t NumNodes = R.u32();
  if (!R.ok() || NumNodes > R.remaining()) {
    R.fail();
    return false;
  }
  Out.Nodes.resize(NumNodes);
  for (flat::Node &N : Out.Nodes) {
    uint8_t Kind = R.u8();
    if (!R.ok() || Kind > static_cast<uint8_t>(flat::NodeKind::RRJoin)) {
      R.fail();
      return false;
    }
    N.Kind = static_cast<flat::NodeKind>(Kind);
    N.Name = R.str();
    int FIdx = R.i32();
    N.In = R.i32();
    N.Out = R.i32();
    N.Ins = R.ints();
    N.Outs = R.ints();
    N.Weights = R.ints();
    bool IsFilter = N.Kind == flat::NodeKind::Filter;
    if (!R.ok() || FIdx < (IsFilter ? 0 : -1) || (!IsFilter && FIdx != -1) ||
        (IsFilter && static_cast<size_t>(FIdx) >= Filters.size())) {
      R.fail();
      return false;
    }
    N.F = IsFilter ? Filters[static_cast<size_t>(FIdx)] : nullptr;
  }
  uint32_t NumChannels = R.u32();
  if (!R.ok() || NumChannels > R.remaining()) {
    R.fail();
    return false;
  }
  Out.InitialItems.resize(NumChannels);
  for (std::vector<double> &Items : Out.InitialItems)
    Items = R.f64s();
  Out.ExternalIn = R.i32();
  Out.ExternalOut = R.i32();
  Out.RootProducesOutput = R.boolean();
  if (!R.ok())
    return false;
  // Every channel reference must be a real channel (the executors trust
  // these indices).
  for (const flat::Node &N : Out.Nodes) {
    if (!channelInRange(N.In, NumChannels) ||
        !channelInRange(N.Out, NumChannels))
      return false;
    for (int C : N.Ins)
      if (!channelInRange(C, NumChannels))
        return false;
    for (int C : N.Outs)
      if (!channelInRange(C, NumChannels))
        return false;
  }
  return channelInRange(Out.ExternalIn, NumChannels) &&
         channelInRange(Out.ExternalOut, NumChannels);
}

//===----------------------------------------------------------------------===//
// Shard-info serialization
//===----------------------------------------------------------------------===//

void writeShardInfo(Writer &W, const CompiledProgram::ShardInfo &S) {
  W.boolean(S.Shardable);
  W.str(S.Reason);
  W.i64(S.WashoutIterations);
  W.u32(static_cast<uint32_t>(S.Seeds.size()));
  for (const CompiledProgram::ShardInfo::FieldSeed &Seed : S.Seeds) {
    W.i32(Seed.Node);
    W.i32(Seed.Field);
    W.f64(Seed.Base);
    W.f64(Seed.DeltaFirst);
    W.f64(Seed.DeltaRest);
    W.f64(Seed.Modulus);
  }
}

bool readShardInfo(Reader &R, CompiledProgram::ShardInfo &Out) {
  Out.Shardable = R.boolean();
  Out.Reason = R.str();
  Out.WashoutIterations = R.i64();
  uint32_t N = R.u32();
  // Each seed occupies 40 bytes on the wire.
  if (!R.ok() || static_cast<uint64_t>(N) * 40 > R.remaining()) {
    R.fail();
    return false;
  }
  Out.Seeds.resize(N);
  for (CompiledProgram::ShardInfo::FieldSeed &Seed : Out.Seeds) {
    Seed.Node = R.i32();
    Seed.Field = R.i32();
    Seed.Base = R.f64();
    Seed.DeltaFirst = R.f64();
    Seed.DeltaRest = R.f64();
    Seed.Modulus = R.f64();
  }
  return R.ok();
}

} // namespace

//===----------------------------------------------------------------------===//
// Whole-program serialization
//===----------------------------------------------------------------------===//

bool slin::serializeProgram(Writer &W, const CompiledProgram &P) {
  // Engine options — destructured so a new field breaks the build here
  // (mirroring hashOptions' exhaustiveness check) instead of silently
  // round-tripping to its default.
  const auto &[BatchIterations, Parallel] = P.options();
  const auto &[Workers, ShardMinIterations] = Parallel;
  W.i32(BatchIterations);
  W.i32(Workers);
  W.i64(ShardMinIterations);

  if (!writeStream(W, P.root()))
    return false;

  std::vector<const Filter *> Filters;
  collectFilters(P.root(), Filters);
  std::map<const Filter *, int> FilterIdx;
  for (size_t I = 0; I != Filters.size(); ++I)
    FilterIdx[Filters[I]] = static_cast<int>(I);

  writeFlatGraph(W, P.graph(), FilterIdx);
  serializeSchedule(W, P.schedule());

  // Per-node compiled forms. Native prototypes live in the stream tree;
  // here they are just marked so the loader rewires the pointer.
  for (size_t I = 0; I != P.graph().Nodes.size(); ++I) {
    const flat::Node &N = P.graph().Nodes[I];
    if (N.Kind != flat::NodeKind::Filter) {
      W.u8(0);
      continue;
    }
    const CompiledProgram::FilterArtifact &A = P.filterArtifact(I);
    if (A.Native) {
      W.u8(1);
      continue;
    }
    W.u8(A.InitWork.empty() ? 2 : 3);
    A.Work.serialize(W);
    if (!A.InitWork.empty())
      A.InitWork.serialize(W);
  }

  writeShardInfo(W, P.shardInfo());
  return true;
}

std::shared_ptr<const CompiledProgram> slin::deserializeProgram(Reader &R) {
  ensureBuiltinFactories();
  CompiledProgram::Parts Parts;

  auto &Opts = Parts.Opts;
  Opts.BatchIterations = R.i32();
  Opts.Parallel.Workers = R.i32();
  Opts.Parallel.ShardMinIterations = R.i64();
  if (!R.ok() || Opts.BatchIterations < 1)
    return nullptr;

  Parts.Root = readStream(R, 0);
  if (!Parts.Root)
    return nullptr;

  std::vector<const Filter *> Filters;
  collectFilters(*Parts.Root, Filters);

  if (!readFlatGraph(R, Filters, Parts.Graph))
    return nullptr;
  if (!deserializeSchedule(R, Parts.Sched))
    return nullptr;

  const size_t NumNodes = Parts.Graph.Nodes.size();
  const size_t NumChannels = Parts.Graph.numChannels();
  // The schedule's per-node and per-channel tables must match the graph
  // (the executors index them without checks).
  if (Parts.Sched.Repetitions.size() != NumNodes ||
      Parts.Sched.InitFirings.size() != NumNodes ||
      Parts.Sched.ChannelHighWater.size() != NumChannels ||
      Parts.Sched.ChannelBufSize.size() != NumChannels ||
      Parts.Sched.PostInitLive.size() != NumChannels)
    return nullptr;
  auto ValidSteps = [&](const FiringProgram &P) {
    for (const FiringStep &S : P)
      if (!isWellFormedStep(S, NumNodes))
        return false;
    return true;
  };
  if (!ValidSteps(Parts.Sched.InitProgram) ||
      !ValidSteps(Parts.Sched.SteadyProgram) ||
      !ValidSteps(Parts.Sched.BatchProgram))
    return nullptr;

  Parts.Artifacts.resize(NumNodes);
  for (size_t I = 0; I != NumNodes; ++I) {
    const flat::Node &N = Parts.Graph.Nodes[I];
    uint8_t Form = R.u8();
    if (!R.ok())
      return nullptr;
    bool IsFilter = N.Kind == flat::NodeKind::Filter;
    if (Form == 0) {
      if (IsFilter)
        return nullptr;
      continue;
    }
    if (!IsFilter)
      return nullptr;
    CompiledProgram::FilterArtifact &A = Parts.Artifacts[I];
    if (Form == 1) {
      if (!N.F->isNative())
        return nullptr;
      A.Native = &N.F->native();
      continue;
    }
    if (Form > 3 || N.F->isNative())
      return nullptr;
    if (!wir::OpProgram::deserialize(R, A.Work))
      return nullptr;
    if (Form == 3 && !wir::OpProgram::deserialize(R, A.InitWork))
      return nullptr;
  }

  if (!readShardInfo(R, Parts.Shard))
    return nullptr;
  for (const CompiledProgram::ShardInfo::FieldSeed &Seed :
       Parts.Shard.Seeds) {
    if (Seed.Node < 0 || static_cast<size_t>(Seed.Node) >= NumNodes)
      return nullptr;
    const flat::Node &N = Parts.Graph.Nodes[static_cast<size_t>(Seed.Node)];
    if (N.Kind != flat::NodeKind::Filter || N.F->isNative() ||
        Seed.Field < 0 ||
        static_cast<size_t>(Seed.Field) >= N.F->fields().size())
      return nullptr;
  }

  if (!R.ok() || !R.atEnd())
    return nullptr;
  return std::make_shared<const CompiledProgram>(std::move(Parts));
}

//===----------------------------------------------------------------------===//
// The store
//===----------------------------------------------------------------------===//

namespace {

constexpr uint64_t ArtifactMagic = 0x315452414E494C53ULL; // "SLINART1"
constexpr uint64_t AliasMagic = 0x3159454B4E494C53ULL;    // "SLINKEY1"
constexpr uint32_t FormatVersion = 1;

struct GlobalStore {
  std::mutex Mutex;
  bool Resolved = false;
  std::unique_ptr<ArtifactStore> Store;
};

GlobalStore &globalStore() {
  static GlobalStore G;
  return G;
}

/// Creates \p Dir (and parents) best-effort; existing directories are
/// fine, failures surface later as plain I/O misses.
void makeDirs(const std::string &Dir) {
  std::string Path;
  for (size_t I = 0; I <= Dir.size(); ++I) {
    if (I != Dir.size() && Dir[I] != '/') {
      Path.push_back(Dir[I]);
      continue;
    }
    if (!Path.empty())
      ::mkdir(Path.c_str(), 0755);
    if (I != Dir.size())
      Path.push_back('/');
  }
}

bool readWholeFile(const std::string &Path, std::vector<uint8_t> &Out) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return false;
  std::fseek(F, 0, SEEK_END);
  long Size = std::ftell(F);
  if (Size < 0) {
    std::fclose(F);
    return false;
  }
  std::fseek(F, 0, SEEK_SET);
  Out.resize(static_cast<size_t>(Size));
  bool Ok = Size == 0 || std::fread(Out.data(), 1, Out.size(), F) ==
                             Out.size();
  std::fclose(F);
  return Ok;
}

/// One file in a directory listing, with the stat fields the
/// maintenance passes sort and sum over.
struct DirEntry {
  std::string Name;
  uint64_t Size = 0;
  int64_t Mtime = 0;
};

/// Lists regular files in \p Dir (names only; no recursion).
std::vector<DirEntry> listDir(const std::string &Dir) {
  std::vector<DirEntry> Out;
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return Out;
  while (struct dirent *E = ::readdir(D)) {
    std::string Name = E->d_name;
    if (Name == "." || Name == "..")
      continue;
    struct stat St;
    if (::stat((Dir + "/" + Name).c_str(), &St) != 0 ||
        !S_ISREG(St.st_mode))
      continue;
    Out.push_back({std::move(Name), static_cast<uint64_t>(St.st_size),
                   static_cast<int64_t>(St.st_mtime)});
  }
  ::closedir(D);
  return Out;
}

/// EINTR-immune full write of \p Size bytes; returns 0 or the errno.
int writeFully(int Fd, const uint8_t *Data, size_t Size) {
  while (Size > 0) {
    ssize_t N = ::write(Fd, Data, Size);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return errno;
    }
    Data += N;
    Size -= static_cast<size_t>(N);
  }
  return 0;
}

/// Best-effort fsync of a directory (crash safety for the rename: the
/// new directory entry reaches disk). Failure is not an error for the
/// running process — the artifact is still readable — so it is ignored.
void fsyncDir(const std::string &Dir) {
  int Fd = ::open(Dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (Fd < 0)
    return;
  ::fsync(Fd);
  ::close(Fd);
}

/// Stale-tmp policy: a ".tmp.<pid>.<seq>" file is garbage once its
/// writer is gone (kill(pid, 0) == ESRCH) or — when pids wrapped or the
/// parse fails — once it is older than an hour; in-flight publishes
/// live milliseconds.
constexpr int64_t TmpMaxAgeSeconds = 3600;

bool isStaleTmp(const DirEntry &E, int64_t Now) {
  size_t Pos = E.Name.find(".tmp.");
  if (Pos == std::string::npos)
    return false;
  const char *P = E.Name.c_str() + Pos + 5;
  char *End = nullptr;
  long Pid = std::strtol(P, &End, 10);
  if (End != P && *End == '.' && Pid > 0) {
    if (static_cast<pid_t>(Pid) == ::getpid())
      return false; // our own in-flight publish
    if (::kill(static_cast<pid_t>(Pid), 0) != 0 && errno == ESRCH)
      return true;
  }
  return Now - E.Mtime > TmpMaxAgeSeconds;
}

} // namespace

uint32_t ArtifactStore::formatVersion() { return FormatVersion; }

uint32_t ArtifactStore::buildFlags() {
#if defined(SLIN_COUNT_OPS) && SLIN_COUNT_OPS == 0
  return 0;
#else
  return 1; // op accounting compiled in
#endif
}

ArtifactStore::ArtifactStore(std::string Directory)
    : Dir(std::move(Directory)) {
  ensureBuiltinFactories();
  makeDirs(Dir);
  const RuntimeConfig C = RuntimeConfig::current();
  MaxBytes = C.StoreMaxBytes;
  TtlSeconds = C.StoreTtlSeconds;
  sweepNow();
}

void ArtifactStore::setMaxBytes(uint64_t Bytes) {
  MaxBytes = Bytes;
  enforceQuota(std::string());
}

void ArtifactStore::setTtlSeconds(int64_t Seconds) { TtlSeconds = Seconds; }

void ArtifactStore::sweepNow() {
  sweepStaleTmp();
  enforceTtl(std::string());
}

ArtifactStore *ArtifactStore::global() {
  GlobalStore &G = globalStore();
  std::lock_guard<std::mutex> Lock(G.Mutex);
  if (!G.Resolved) {
    G.Resolved = true;
    std::string Dir = RuntimeConfig::current().ArtifactDir;
    if (!Dir.empty())
      G.Store = std::make_unique<ArtifactStore>(Dir);
  }
  return G.Store.get();
}

ArtifactStore *ArtifactStore::globalPeek() {
  GlobalStore &G = globalStore();
  std::lock_guard<std::mutex> Lock(G.Mutex);
  return G.Store.get();
}

ArtifactStore *ArtifactStore::enabledGlobal() {
  // The cache kill-switch disables the disk tier too (tests flip it at
  // runtime and refresh the config snapshot).
  if (RuntimeConfig::current().NoCache)
    return nullptr;
  return global();
}

void ArtifactStore::setGlobalDir(const std::string &Directory) {
  GlobalStore &G = globalStore();
  std::lock_guard<std::mutex> Lock(G.Mutex);
  G.Resolved = true;
  G.Store = Directory.empty() ? nullptr
                              : std::make_unique<ArtifactStore>(Directory);
}

std::string ArtifactStore::pathFor(const Key &K) const {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "a-v%u-f%u-", formatVersion(),
                buildFlags());
  return Dir + "/" + Buf + K.Structure.str() + "-" + K.Options.str() +
         ".slin";
}

namespace {

/// Inverse of HashDigest::str() over one 32-char lowercase-hex name
/// segment; false on any non-hex character.
bool parseDigest(const std::string &S, size_t At, HashDigest &Out) {
  auto Nibble = [](char C, uint64_t &V) {
    if (C >= '0' && C <= '9')
      V = static_cast<uint64_t>(C - '0');
    else if (C >= 'a' && C <= 'f')
      V = static_cast<uint64_t>(C - 'a' + 10);
    else
      return false;
    return true;
  };
  Out = HashDigest();
  for (int I = 0; I != 16; ++I) {
    uint64_t LoN = 0, HiN = 0;
    if (!Nibble(S[At + static_cast<size_t>(15 - I)], LoN) ||
        !Nibble(S[At + static_cast<size_t>(31 - I)], HiN))
      return false;
    Out.Lo |= LoN << (4 * I);
    Out.Hi |= HiN << (4 * I);
  }
  return true;
}

} // namespace

std::vector<ArtifactStore::Key> ArtifactStore::listArtifacts() const {
  std::vector<Key> Out;
  char Prefix[32];
  std::snprintf(Prefix, sizeof(Prefix), "a-v%u-f%u-", formatVersion(),
                buildFlags());
  const std::string Pre = Prefix;
  // a-v<ver>-f<flags>-<32 hex>-<32 hex>.slin
  const size_t NameLen = Pre.size() + 32 + 1 + 32 + 5;
  for (const DirEntry &E : listDir(Dir)) {
    if (E.Name.size() != NameLen || E.Name.compare(0, Pre.size(), Pre) != 0 ||
        E.Name.compare(NameLen - 5, 5, ".slin") != 0 ||
        E.Name[Pre.size() + 32] != '-')
      continue;
    Key K;
    if (parseDigest(E.Name, Pre.size(), K.Structure) &&
        parseDigest(E.Name, Pre.size() + 33, K.Options))
      Out.push_back(K);
  }
  return Out;
}

std::string ArtifactStore::aliasPathFor(const HashDigest &PipelineKey) const {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "k-v%u-f%u-", formatVersion(),
                buildFlags());
  return Dir + "/" + Buf + PipelineKey.str() + ".slin";
}

bool ArtifactStore::contains(const Key &K) const {
  return ::access(pathFor(K).c_str(), R_OK) == 0;
}

/// One atomic publish attempt: write a unique temp file, fsync it,
/// rename into place, fsync the directory. A failure at any step
/// unlinks the temp file (counted in PublishFailures) — a failed
/// publish must never leave litter behind — and reports what broke.
Status ArtifactStore::writeAtomic(const std::string &Path,
                                  const std::vector<uint8_t> &Header,
                                  const std::vector<uint8_t> &Payload) {
  // Unique temp name per writer; rename() publishes atomically, so a
  // concurrent reader sees either nothing or a complete file, and racing
  // writers of the same key overwrite each other with identical bytes.
  static std::atomic<uint64_t> Seq{0};
  char Suffix[64];
  std::snprintf(Suffix, sizeof(Suffix), ".tmp.%ld.%llu",
                static_cast<long>(::getpid()),
                static_cast<unsigned long long>(
                    Seq.fetch_add(1, std::memory_order_relaxed)));
  std::string Tmp = Path + Suffix;

  auto Fail = [&](ErrorCode C, const std::string &What, int Err) {
    ::unlink(Tmp.c_str());
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      ++Counters.PublishFailures;
    }
    std::string Msg = What;
    if (Err)
      Msg += std::string(": ") + std::strerror(Err);
    return Status(C, Msg + " (" + Tmp + ")");
  };

  int Fd = -1;
  do {
    Fd = ::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  } while (Fd < 0 && errno == EINTR);
  if (Fd < 0)
    return Fail(errno == ENOSPC ? ErrorCode::NoSpace : ErrorCode::IoError,
                "open temp file", errno);

  int Err = 0;
  if (faults::shouldFail(faults::Point::StoreEnospc))
    Err = ENOSPC;
  else if (faults::shouldFail(faults::Point::ArtifactWriteShort))
    Err = EIO; // a detected short write surfaces as an I/O error
  else {
    Err = writeFully(Fd, Header.data(), Header.size());
    if (!Err)
      Err = writeFully(Fd, Payload.data(), Payload.size());
    // fsync before rename: once the new name exists, its contents are
    // durable — a crash can lose the artifact, never publish a torn one.
    if (!Err)
      while (::fsync(Fd) != 0) {
        if (errno != EINTR) {
          Err = errno;
          break;
        }
      }
  }
  ::close(Fd);
  if (Err)
    return Fail(Err == ENOSPC ? ErrorCode::NoSpace : ErrorCode::IoError,
                "write artifact bytes", Err);

  if (faults::shouldFail(faults::Point::ArtifactRenameFail))
    return Fail(ErrorCode::IoError, "rename (injected)", 0);
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0)
    return Fail(errno == ENOSPC ? ErrorCode::NoSpace : ErrorCode::IoError,
                "rename into place", errno);
  fsyncDir(Dir);
  return Status::ok();
}

/// Bounded retry with backoff around writeAtomic. ENOSPC first tries to
/// free space by evicting the oldest artifacts; retries that still fail
/// return the last Status and the caller stays memory-only.
Status ArtifactStore::publishWithRetry(const std::string &Path,
                                       const std::vector<uint8_t> &Header,
                                       const std::vector<uint8_t> &Payload) {
  constexpr int MaxAttempts = 3;
  Status St;
  for (int Attempt = 0; Attempt != MaxAttempts; ++Attempt) {
    if (Attempt != 0) {
      {
        std::lock_guard<std::mutex> Lock(Mutex);
        ++Counters.IoRetries;
      }
      if (St.code() == ErrorCode::NoSpace)
        evictForSpace(Header.size() + Payload.size(), Path);
      // Exponential backoff (1ms, 4ms): long enough for a transient
      // condition to clear, short enough to be invisible in a compile.
      ::usleep(Attempt == 1 ? 1000 : 4000);
    }
    St = writeAtomic(Path, Header, Payload);
    if (St.isOk())
      return St;
  }
  return St;
}

Status ArtifactStore::tryStore(const Key &K, const CompiledProgram &P) {
  Writer Payload;
  if (!serializeProgram(Payload, P))
    return Status(ErrorCode::Unserializable,
                  "program holds a native filter without a serialTag")
        .withContext("publish artifact");
  HashDigest PayloadHash =
      hashBytes(Payload.bytes().data(), Payload.size());

  Writer Header;
  Header.u64(ArtifactMagic);
  Header.u32(formatVersion());
  Header.u32(buildFlags());
  Header.u64(K.Structure.Lo);
  Header.u64(K.Structure.Hi);
  Header.u64(K.Options.Lo);
  Header.u64(K.Options.Hi);
  Header.u64(PayloadHash.Lo);
  Header.u64(PayloadHash.Hi);
  Header.u64(Payload.size());

  std::string Path = pathFor(K);
  Status St = publishWithRetry(Path, Header.bytes(), Payload.bytes());
  if (!St.isOk())
    return St.withContext("publish artifact");
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Counters.Stores;
  }
  enforceTtl(Path);
  enforceQuota(Path);
  return Status::ok();
}

Expected<std::shared_ptr<const CompiledProgram>>
ArtifactStore::tryLoad(const Key &K) {
  auto Miss = [&](bool FilePresent, const std::string &Why) {
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      ++Counters.Misses;
      if (FilePresent)
        ++Counters.LoadFailures;
    }
    return Status(FilePresent ? ErrorCode::Corrupt : ErrorCode::IoError,
                  Why)
        .withContext("load artifact");
  };

  std::vector<uint8_t> Bytes;
  if (!readWholeFile(pathFor(K), Bytes))
    return Miss(false, "no readable artifact file");

  constexpr size_t HeaderSize = 8 + 4 + 4 + 6 * 8 + 8;
  if (Bytes.size() < HeaderSize)
    return Miss(true, "file shorter than the header");
  Reader H(Bytes.data(), HeaderSize);
  uint64_t Magic = H.u64();
  uint32_t Version = H.u32();
  uint32_t Flags = H.u32();
  HashDigest Structure{H.u64(), H.u64()};
  HashDigest Options{H.u64(), H.u64()};
  HashDigest PayloadHash{H.u64(), H.u64()};
  uint64_t PayloadSize = H.u64();
  if (Magic != ArtifactMagic || Version != formatVersion() ||
      Flags != buildFlags() || !(Structure == K.Structure) ||
      !(Options == K.Options) ||
      PayloadSize != Bytes.size() - HeaderSize)
    return Miss(true, "header mismatch (magic/version/flags/key/size)");

  const uint8_t *Payload = Bytes.data() + HeaderSize;
  if (!(hashBytes(Payload, PayloadSize) == PayloadHash))
    // Bit rot: recompile, never serve stale bytes.
    return Miss(true, "payload checksum mismatch");

  Reader R(Payload, PayloadSize);
  auto Program = deserializeProgram(R);
  if (!Program)
    return Miss(true, "malformed payload");
  // Defense in depth: the reconstructed stream must hash to the key it
  // was stored under, and its options must match the options digest.
  if (!(structuralHash(Program->root()) == K.Structure) ||
      !(hashOptions(Program->options()) == K.Options))
    return Miss(true, "reconstructed program does not hash to its key");

  std::lock_guard<std::mutex> Lock(Mutex);
  ++Counters.Hits;
  return Program;
}

std::string ArtifactStore::objectPathFor(const Key &K,
                                         uint32_t CodegenVersion) const {
  char Buf[48];
  std::snprintf(Buf, sizeof(Buf), "o-v%u-f%u-g%u-", formatVersion(),
                buildFlags(), CodegenVersion);
  return Dir + "/" + Buf + K.Structure.str() + "-" + K.Options.str() + ".so";
}

Status ArtifactStore::publishObject(const Key &K, uint32_t CodegenVersion,
                                    const std::string &TmpPath) {
  std::string Path = objectPathFor(K, CodegenVersion);
  auto Fail = [&](const std::string &What, int Err) {
    ::unlink(TmpPath.c_str());
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      ++Counters.PublishFailures;
    }
    std::string Msg = What;
    if (Err)
      Msg += std::string(": ") + std::strerror(Err);
    return Status(Err == ENOSPC ? ErrorCode::NoSpace : ErrorCode::IoError,
                  Msg + " (" + TmpPath + ")")
        .withContext("publish native object");
  };

  int Fd = ::open(TmpPath.c_str(), O_RDONLY | O_CLOEXEC);
  if (Fd < 0)
    return Fail("open compiled object", errno);
  int Err = 0;
  while (::fsync(Fd) != 0) {
    if (errno != EINTR) {
      Err = errno;
      break;
    }
  }
  ::close(Fd);
  if (Err)
    return Fail("fsync compiled object", Err);

  if (std::rename(TmpPath.c_str(), Path.c_str()) != 0)
    return Fail("rename into place", errno);
  fsyncDir(Dir);
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Counters.ObjectStores;
  }
  enforceTtl(Path);
  enforceQuota(Path);
  return Status::ok();
}

bool ArtifactStore::storeAlias(const HashDigest &PipelineKey,
                               const Key &Artifact) {
  Writer Body;
  Body.u64(PipelineKey.Lo);
  Body.u64(PipelineKey.Hi);
  Body.u64(Artifact.Structure.Lo);
  Body.u64(Artifact.Structure.Hi);
  Body.u64(Artifact.Options.Lo);
  Body.u64(Artifact.Options.Hi);
  HashDigest BodyHash = hashBytes(Body.bytes().data(), Body.size());

  Writer Header;
  Header.u64(AliasMagic);
  Header.u32(formatVersion());
  Header.u32(buildFlags());
  Header.u64(BodyHash.Lo);
  Header.u64(BodyHash.Hi);
  return publishWithRetry(aliasPathFor(PipelineKey), Header.bytes(),
                          Body.bytes())
      .isOk();
}

bool ArtifactStore::loadAlias(const HashDigest &PipelineKey,
                              Key &Out) const {
  std::vector<uint8_t> Bytes;
  if (!readWholeFile(aliasPathFor(PipelineKey), Bytes))
    return false;
  Reader R(Bytes.data(), Bytes.size());
  uint64_t Magic = R.u64();
  uint32_t Version = R.u32();
  uint32_t Flags = R.u32();
  HashDigest BodyHash{R.u64(), R.u64()};
  if (!R.ok() || Magic != AliasMagic || Version != formatVersion() ||
      Flags != buildFlags() || R.remaining() != 6 * 8)
    return false;
  const uint8_t *Body = Bytes.data() + (Bytes.size() - R.remaining());
  if (!(hashBytes(Body, R.remaining()) == BodyHash))
    return false;
  HashDigest StoredKey{R.u64(), R.u64()};
  Out.Structure = {R.u64(), R.u64()};
  Out.Options = {R.u64(), R.u64()};
  if (!R.ok() || !(StoredKey == PipelineKey))
    return false;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Counters.AliasHits;
  }
  return true;
}

ArtifactStore::Stats ArtifactStore::stats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Counters;
}

void ArtifactStore::resetStats() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Counters = Stats();
}

//===----------------------------------------------------------------------===//
// Store maintenance: stale-tmp sweep, TTL expiry, size quota
//===----------------------------------------------------------------------===//

void ArtifactStore::sweepStaleTmp() {
  int64_t Now = static_cast<int64_t>(::time(nullptr));
  uint64_t Swept = 0;
  for (const DirEntry &E : listDir(Dir))
    if (isStaleTmp(E, Now) && ::unlink((Dir + "/" + E.Name).c_str()) == 0)
      ++Swept;
  if (Swept) {
    std::lock_guard<std::mutex> Lock(Mutex);
    Counters.TmpSwept += Swept;
  }
}

/// Removes published files older than the TTL. Artifact and alias files
/// alike: an expired alias pointing at an evicted artifact would only
/// buy a guaranteed miss.
void ArtifactStore::enforceTtl(const std::string &JustPublished) {
  if (TtlSeconds <= 0)
    return;
  int64_t Now = static_cast<int64_t>(::time(nullptr));
  uint64_t N = 0, Bytes = 0;
  for (const DirEntry &E : listDir(Dir)) {
    std::string Path = Dir + "/" + E.Name;
    if (Path == JustPublished || E.Name.find(".tmp.") != std::string::npos)
      continue;
    if (Now - E.Mtime > TtlSeconds && ::unlink(Path.c_str()) == 0) {
      ++N;
      Bytes += E.Size;
    }
  }
  if (N) {
    std::lock_guard<std::mutex> Lock(Mutex);
    Counters.Evictions += N;
    Counters.EvictedBytes += Bytes;
  }
}

/// Evicts oldest-first until the store fits its byte quota, never
/// touching the file just published (evicting one's own fresh artifact
/// would turn every store into a miss).
void ArtifactStore::enforceQuota(const std::string &JustPublished) {
  if (MaxBytes == 0)
    return;
  std::vector<DirEntry> Entries = listDir(Dir);
  uint64_t Total = 0;
  for (const DirEntry &E : Entries)
    Total += E.Size;
  if (Total <= MaxBytes)
    return;
  std::sort(Entries.begin(), Entries.end(),
            [](const DirEntry &A, const DirEntry &B) {
              return A.Mtime != B.Mtime ? A.Mtime < B.Mtime
                                        : A.Name < B.Name;
            });
  uint64_t N = 0, Bytes = 0;
  for (const DirEntry &E : Entries) {
    if (Total <= MaxBytes)
      break;
    std::string Path = Dir + "/" + E.Name;
    if (Path == JustPublished || E.Name.find(".tmp.") != std::string::npos)
      continue;
    if (::unlink(Path.c_str()) == 0) {
      Total -= E.Size;
      ++N;
      Bytes += E.Size;
    }
  }
  if (N) {
    std::lock_guard<std::mutex> Lock(Mutex);
    Counters.Evictions += N;
    Counters.EvictedBytes += Bytes;
  }
}

/// ENOSPC recovery: free at least \p BytesNeeded by evicting oldest
/// files first; returns bytes actually reclaimed.
uint64_t ArtifactStore::evictForSpace(uint64_t BytesNeeded,
                                      const std::string &JustPublished) {
  std::vector<DirEntry> Entries = listDir(Dir);
  std::sort(Entries.begin(), Entries.end(),
            [](const DirEntry &A, const DirEntry &B) {
              return A.Mtime != B.Mtime ? A.Mtime < B.Mtime
                                        : A.Name < B.Name;
            });
  uint64_t N = 0, Freed = 0;
  for (const DirEntry &E : Entries) {
    if (Freed >= BytesNeeded)
      break;
    std::string Path = Dir + "/" + E.Name;
    if (Path == JustPublished)
      continue;
    if (::unlink(Path.c_str()) == 0) {
      ++N;
      Freed += E.Size;
    }
  }
  if (N) {
    std::lock_guard<std::mutex> Lock(Mutex);
    Counters.Evictions += N;
    Counters.EvictedBytes += Freed;
  }
  return Freed;
}

namespace {
/// Publishes the resolved global store's counters into the unified
/// snapshot. Uses globalPeek(): a stats request must not resolve the
/// environment or mkdir a store directory as a side effect.
const StatsRegistry::Registration ArtifactStoreStatsReg(
    "artifact-store", [](StatsRegistry::Counters &C) {
      ArtifactStore *Store = ArtifactStore::globalPeek();
      if (!Store)
        return;
      ArtifactStore::Stats S = Store->stats();
      C.emplace_back("hits", S.Hits);
      C.emplace_back("misses", S.Misses);
      C.emplace_back("stores", S.Stores);
      C.emplace_back("load_failures", S.LoadFailures);
      C.emplace_back("alias_hits", S.AliasHits);
      C.emplace_back("publish_failures", S.PublishFailures);
      C.emplace_back("io_retries", S.IoRetries);
      C.emplace_back("tmp_swept", S.TmpSwept);
      C.emplace_back("evictions", S.Evictions);
      C.emplace_back("evicted_bytes", S.EvictedBytes);
      C.emplace_back("object_stores", S.ObjectStores);
    });
} // namespace
